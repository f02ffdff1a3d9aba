// Command perfbench is the repository's benchmark. It runs one workload
// of the hyperqueue runtime for a fixed time, checks every timed
// repetition against the workload's serial elision, and prints each
// metric by name with its unit. The last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload finegrain --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics from a separate traced run, which keeps
// spans in memory and writes them to .bench_build/spans when it ends. See
// metrics.go for what every metric means and which metric and workload
// a per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one benchmark input set driven through the public API.
type workload interface {
	// setup generates the inputs, builds the runtime and runs one
	// warm-up repetition. It is timed as setup_s.
	setup(workers int)
	// reference computes the serial-elision output every timed
	// repetition is checked against.
	reference()
	// measure runs timed repetitions for about budget.
	measure(budget time.Duration, traced bool, spansPath string) outcome
}

var workloads = map[string]func(seed uint64) workload{
	"dedup":     func(seed uint64) workload { return newDedup(seed) },
	"finegrain": func(seed uint64) workload { return newFinegrain(seed) },
	"stream":    func(seed uint64) workload { return newStream(seed) },
}

// setupRuns is how many times a run sets up its workload; setup_s is
// their median.
const setupRuns = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: dedup, finegrain or stream")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload dedup|finegrain|stream, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	res := bench(mk(*seed), *name, *seed, time.Duration(*seconds)*time.Second, *trace == 1,
		filepath.Join(".bench_build", "spans", *name+".csv"), stdout)
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench sets the workload up setupRuns times, measures it and returns
// the metrics of the requested kind; it prints the run's environment
// and every metric to out on the way.
func bench(w workload, name string, seed uint64, budget time.Duration, traced bool, spansPath string, out io.Writer) result {
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	setups := make([]float64, setupRuns)
	for i := range setups {
		start := time.Now()
		w.setup(procs)
		setups[i] = time.Since(start).Seconds()
	}
	w.reference()
	o := w.measure(budget, traced, spansPath)

	o.metrics["setup_s"] = median(setups)
	if o.attempted > 0 {
		o.metrics["failed_frac"] = float64(o.failed) / float64(o.attempted)
	}
	table := endToEnd
	if traced {
		table = perLayer
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range table {
		res.Metrics[m.Name] = metricValue{Value: o.metrics[m.Name], Unit: m.Unit}
	}

	env, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "trace": traced, "gomaxprocs": runtime.GOMAXPROCS(0),
		"workers": procs, "num_cpu": runtime.NumCPU(), "go_version": runtime.Version(),
		"run_seconds": budget.Seconds(), "samples": o.samples, "setup_runs": setupRuns,
	})
	fmt.Fprintf(out, "env %s\n", env)
	for _, n := range o.notes {
		fmt.Fprintln(out, n)
	}
	for _, m := range table {
		fmt.Fprintf(out, "%-28s %14.6g %-9s", m.Name, res.Metrics[m.Name].Value, m.Unit)
		if m.Moves != "" {
			fmt.Fprintf(out, " should move %s on %s", m.Moves, m.On)
		}
		fmt.Fprintln(out)
	}
	return res
}
