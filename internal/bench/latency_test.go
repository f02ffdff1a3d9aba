package bench

import (
	"strings"
	"testing"
)

// TestMeasureLatencySmoke runs each workload briefly through the
// open-loop harness and checks the accounting invariants: every offered
// element completes, the percentiles are ordered, and TTFR is set.
func TestMeasureLatencySmoke(t *testing.T) {
	for _, cfg := range []LatencyConfig{
		{Workload: "streamstats", Shards: 2, Workers: 4, Items: 20_000, Rate: 2_000_000},
		{Workload: "streamstats", Shards: 1, Workers: 2, Items: 5_000}, // closed loop
		{Workload: "dedup", Shards: 2, Workers: 4, Items: 32, Rate: 50_000},
	} {
		r := MeasureLatency(cfg)
		if r.Completed == 0 || r.Completed != r.Offered {
			t.Fatalf("%s: completed %d of %d offered", cfg.Workload, r.Completed, r.Offered)
		}
		if r.TTFR < 0 {
			t.Fatalf("%s: TTFR never recorded", cfg.Workload)
		}
		if r.P50 > r.P99 || r.P99 > r.P999 || r.P999 > r.Max {
			t.Fatalf("%s: percentiles not ordered: p50=%d p99=%d p999=%d max=%d",
				cfg.Workload, r.P50, r.P99, r.P999, r.Max)
		}
		if r.WallSeconds <= 0 {
			t.Fatalf("%s: wall time %v", cfg.Workload, r.WallSeconds)
		}
	}
}

// TestLatencyTableRenders pins the report surface paperbench prints.
func TestLatencyTableRenders(t *testing.T) {
	r := LatencyReport{Workload: "streamstats", Shards: 4, Workers: 8, Rate: 100000,
		Offered: 10, Completed: 10, TTFR: 1500, P50: 2000, P99: 9000, P999: 12000, Max: 15000}
	out := LatencyTable("Latency under open-loop load", []LatencyReport{r}).Format()
	for _, want := range []string{"streamstats", "p99", "100000", "9µs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestMeasureLatencyNeverEarly pins the open-loop generator's pacing: an
// element is never released before its intended arrival, so every
// completion latency is positive. A generator that releases elements
// ahead of time stamps them in the future, and at a rate the single
// shard keeps up with the median latency collapses to zero.
func TestMeasureLatencyNeverEarly(t *testing.T) {
	r := MeasureLatency(LatencyConfig{Workload: "streamstats", Shards: 1, Workers: 2, Items: 4_000, Rate: 20_000})
	if r.Completed != r.Offered {
		t.Fatalf("completed %d of %d offered", r.Completed, r.Offered)
	}
	if r.P50 <= 0 {
		t.Fatalf("p50 = %d ns: elements released before their intended arrival", r.P50)
	}
}
