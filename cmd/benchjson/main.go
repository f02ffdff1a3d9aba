// Command benchjson converts `go test -bench` text output on stdin into
// a machine-readable JSON document on stdout, so the repository's perf
// trajectory can be recorded per PR (make bench-json emits
// BENCH_pr<N>.json) and diffed in CI.
//
// Usage:
//
//	go test -bench=... -benchmem -run '^$' . | benchjson > BENCH_pr3.json
//
// Every benchmark result line is parsed into its name (the -<procs>
// suffix stripped), its GOMAXPROCS (procs: the stripped suffix, or 1
// when go test printed none), iteration count, and all reported
// metrics: the standard ns/op, B/op and allocs/op plus any custom
// b.ReportMetric units such as steals/op or spawns/op. Non-benchmark
// lines (headers, PASS/ok trailers) populate the meta block or are
// ignored.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line. Metrics maps unit name (e.g. "ns/op",
// "allocs/op", "steals/op") to its value.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the emitted document.
type Doc struct {
	Meta       map[string]string `json:"meta"`
	Benchmarks []Result          `json:"benchmarks"`
}

func main() {
	doc := Doc{Meta: map[string]string{}, Benchmarks: []Result{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		// goos/goarch/pkg/cpu headers become meta entries.
		if k, v, ok := strings.Cut(line, ":"); ok && !strings.HasPrefix(line, "Benchmark") {
			switch k {
			case "goos", "goarch", "pkg", "cpu":
				doc.Meta[k] = strings.TrimSpace(v)
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcs(fields[0])
		r := Result{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = val
		}
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: write:", err)
		os.Exit(1)
	}
}

// splitProcs splits the trailing -<GOMAXPROCS> suffix go test appends
// to benchmark names (the last dash-delimited run of digits) off the
// name. go test omits the suffix at GOMAXPROCS=1, so a name without one
// ran on one proc.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], procs
}
