package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// Small sizes keep every workload's repetitions well under a second.

func smallFinegrain() *finegrain {
	w := newFinegrain(7)
	w.n = 1 << 14
	return w
}

func smallDedup() *dedupBench {
	w := newDedup(7)
	w.size = 1 << 20
	return w
}

func smallStream() *streamBench {
	w := newStream(7)
	w.rate, w.window, w.closed = 100_000, 20_000, 50_000
	return w
}

func smallWorkloads() map[string]workload {
	return map[string]workload{"dedup": smallDedup(), "finegrain": smallFinegrain(), "stream": smallStream()}
}

func benchSmall(t *testing.T, w workload, name string, traced bool) result {
	t.Helper()
	return bench(w, name, 7, time.Second, traced, filepath.Join(t.TempDir(), name+".csv"), io.Discard)
}

// TestTracedRunsReportEveryMetric runs each workload traced and
// untraced: every repetition matches its serial elision and every
// metric of the table is reported.
func TestTracedRunsReportEveryMetric(t *testing.T) {
	for name, w := range smallWorkloads() {
		for _, traced := range []bool{false, true} {
			res := benchSmall(t, w, name, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			table := endToEnd
			if traced {
				table = perLayer
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(table))
			}
			if !traced {
				for _, m := range endToEnd {
					if v := res.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, v)
					}
				}
			}
		}
	}
}

// tampered is a workload whose serial reference is corrupted after it
// is computed.
type tampered struct {
	workload
	tamper func()
}

func (w tampered) reference() {
	w.workload.reference()
	w.tamper()
}

// TestTamperedReferenceFailsEveryRep feeds each workload a wrong
// reference: every repetition must count as failed.
func TestTamperedReferenceFailsEveryRep(t *testing.T) {
	fg, dd, st := smallFinegrain(), smallDedup(), smallStream()
	cases := map[string]workload{
		"finegrain": tampered{fg, func() { fg.ref.hash++ }},
		"dedup":     tampered{dd, func() { dd.ref.Stream[len(dd.ref.Stream)/2]++ }},
		"stream":    tampered{st, func() { st.refWindow, st.refClosed = "x", "y" }},
	}
	for name, w := range cases {
		res := benchSmall(t, w, name, true)
		if res.Correct || res.Failed != res.Attempted {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want every repetition failed", name, res.Correct, res.Failed, res.Attempted)
		}
		if got := res.Metrics["failed_frac"].Value; got != 1 {
			t.Errorf("%s: failed_frac = %v, want 1", name, got)
		}
	}
}

// TestSlowConsumerRaisesLatency slows the stream's egress consumer
// below the offered rate: the open-loop generator keeps its schedule,
// so the backlog shows in latency_p99_ms, and no event is released
// before its intended arrival time.
func TestSlowConsumerRaisesLatency(t *testing.T) {
	// A low rate, so that the normal consumer keeps up even under the
	// race detector.
	slowStream := func() *streamBench {
		w := smallStream()
		w.rate, w.window = 20_000, 4_000
		w.limit = 50 * time.Millisecond // below the backlog a slowed window builds
		return w
	}
	events := slowStream().events(slowStream().window)
	run := func(slow func()) (windowResult, result) {
		w := slowStream()
		w.setup(2)
		w.slow = slow
		win := w.openLoop(w.rts[0], nil)
		return win, benchSmall(t, w, "stream", false)
	}
	spin := func() {
		for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
		}
	}
	fastWin, fast := run(nil)
	slowWin, slow := run(spin)
	for _, win := range []windowResult{fastWin, slowWin} {
		if win.minLag < 0 {
			t.Errorf("an event was released %d ns before its intended arrival", -win.minLag)
		}
		if win.offered != events || win.completed != events {
			t.Errorf("offered %d, completed %d, want %d", win.offered, win.completed, events)
		}
	}
	if f, s := median(fastWin.p99s), median(slowWin.p99s); s < 5*f {
		t.Errorf("window p99: slowed %.3f ms, normal %.3f ms; want the slowed consumer to raise it", s, f)
	}
	f, s := fast.Metrics["latency_p99_ms"].Value, slow.Metrics["latency_p99_ms"].Value
	if s < 5*f {
		t.Errorf("latency_p99_ms: slowed %.3f, normal %.3f; want the slowed consumer to raise it", s, f)
	}
	if slow.Failed == 0 {
		t.Error("slowed consumer: no event over the latency limit counted as failed")
	}
}

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json lists the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	strip := func(ms []metric) []metric {
		out := make([]metric, len(ms))
		for i, m := range ms {
			out[i] = metric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if got, want := spec.EndToEnd, strip(endToEnd); !slices.Equal(got, want) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprogram:\n%v", got, want)
	}
	if got, want := spec.PerLayer, strip(perLayer); !slices.Equal(got, want) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprogram:\n%v", got, want)
	}
}
