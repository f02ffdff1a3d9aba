// Command paperbench regenerates the paper's evaluation artifacts
// (Table 1, Table 2, Figure 8, Figure 11, and the §6.3 bzip2 results) on
// this machine and prints them as Markdown tables.
//
// Usage:
//
//	paperbench [-exp all|table1|table2|fig8|fig11|bzip2|latency] [-scale N] [-cores N] [-reps N] [-sched steal|goroutine] [-stats] [-metrics addr]
//
// Scale 1 keeps each experiment in the seconds range; the paper-like
// regime is -scale 4 or higher. -metrics serves a live Prometheus-text
// endpoint over every runtime the experiments create (curl the printed
// URL while they run); -stats prints the same counters, including one
// row per metered queue, after the experiments finish. fig8, fig11 and
// bzip2 check each model's output against the serial result and exit 1
// after printing a MISMATCH line for any model that disagrees.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/sched"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, table1, table2, fig8, fig11, bzip2, latency")
	scale := flag.Int("scale", 1, "workload scale factor")
	cores := flag.Int("cores", runtime.NumCPU(), "maximum cores to sweep")
	reps := flag.Int("reps", 2, "repetitions per configuration (best-of)")
	schedPolicy := flag.String("sched", "steal", "scheduler substrate for the Swan runtimes: steal (work-stealing deques) or goroutine (goroutine-per-task baseline)")
	showStats := flag.Bool("stats", false, "print per-runtime resource stats (pooled segments, recycled queues, spawns/steals, metered queues) after the experiments")
	metricsAddr := flag.String("metrics", "", "serve a live Prometheus-text metrics endpoint on this address while experiments run (e.g. 127.0.0.1:9090; empty disables)")
	flag.Parse()

	switch *schedPolicy {
	case "steal":
		sched.SetDefaultPolicy(sched.PolicySteal)
	case "goroutine":
		sched.SetDefaultPolicy(sched.PolicyGoroutine)
	default:
		fmt.Fprintf(os.Stderr, "unknown -sched %q (want steal or goroutine)\n", *schedPolicy)
		os.Exit(2)
	}

	cfg := bench.Config{MaxCores: *cores, Reps: *reps, Scale: *scale}
	// A MISMATCH fails the run once every requested experiment has
	// rendered; runs drained early by an interrupt are not compared.
	var interrupted atomic.Bool
	mismatched := false
	speedup := func(t *bench.Table, err error) {
		fmt.Println(t.Format())
		if err != nil && !interrupted.Load() {
			fmt.Fprintln(os.Stderr, err)
			mismatched = true
		}
	}
	run := func(name string) {
		switch name {
		case "table1":
			fmt.Println(bench.Table1(cfg).Format())
		case "table2":
			fmt.Println(bench.Table2(cfg).Format())
		case "fig8":
			speedup(bench.Fig8(cfg))
		case "fig11":
			speedup(bench.Fig11(cfg))
		case "bzip2":
			speedup(bench.Bzip2(cfg))
		case "latency":
			fmt.Println(bench.Latency(cfg).Format())
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}
	// Collection is always on here (the process is short-lived, the
	// references are cheap) so a SIGINT can reach every live runtime's
	// cancel scope: parked tasks unwind, the in-flight experiment drains,
	// and the stats report still renders before exit.
	bench.CollectRuntimeStats(true)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "paperbench: interrupt — canceling live runtimes, draining")
		signal.Stop(sig)
		interrupted.Store(true)
		bench.CancelCollected(nil)
	}()
	if *metricsAddr != "" {
		addr, err := bench.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics endpoint: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("serving metrics at http://%s/metrics\n", addr)
	}
	fmt.Printf("# Hyperqueue reproduction — %d cores available, scale %d, scheduler %s\n\n", runtime.NumCPU(), *scale, sched.DefaultPolicy())
	if *exp == "all" {
		for _, e := range []string{"table1", "table2", "fig8", "fig11", "bzip2", "latency"} {
			if interrupted.Load() {
				break
			}
			run(e)
		}
	} else {
		run(*exp)
	}
	if interrupted.Load() {
		fmt.Fprintln(os.Stderr, "paperbench: interrupted — results above the interrupt are valid, later rows drained early")
		fmt.Println(bench.RuntimeStatsReport())
		os.Exit(130)
	}
	if *showStats {
		fmt.Println(bench.RuntimeStatsReport())
	}
	if mismatched {
		os.Exit(1)
	}
}
