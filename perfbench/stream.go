package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/workloads/streamstats"
	"repro/swan"
)

// streamBench drives streamstats.RunSharded (4 shards) open-loop at a
// fixed Poisson arrival rate well below capacity, then closed-loop flat
// out. Sparse arrivals make consumers park and wake, and per-shard
// credit backpressure, the shard router/merger and a named reducer sit
// on every event's path; latency is its result.
type streamBench struct {
	seed    uint64
	rate    float64       // open-loop arrivals per second
	window  int           // events per open-loop window (one RunSharded)
	closed  int           // events per closed-loop repetition
	shards  int           // swan.Sharded fan-out
	sensors int           // interleaved sensor streams
	slice   int           // events per latency slice (about 50 ms of arrivals)
	limit   time.Duration // latency limit: a slower event counts as failed
	// slow, when set, runs on the egress consumer for every completed
	// event; tests use it to slow the consumer down deliberately.
	slow func()

	rts       []*swan.Runtime // one per set-up; repetitions take turns
	due       []int64         // intended arrival of each window event, ns from window start
	refWindow string          // serial-elision digests
	refClosed string
	lat, lags []int64
}

func newStream(seed uint64) *streamBench {
	return &streamBench{
		seed: seed, rate: 500_000, window: 250_000, closed: 1_000_000,
		shards: 4, sensors: 16, slice: 25_000, limit: 250 * time.Millisecond,
	}
}

func (w *streamBench) config(samples int) streamstats.ShardedConfig {
	return streamstats.ShardedConfig{
		Config: streamstats.Config{Samples: samples, Sensors: w.sensors, SegCap: 256},
		Shards: w.shards,
	}
}

// events is how many events a RunSharded of cfg moves: whole rounds of
// the sensor interleaving.
func (w *streamBench) events(samples int) int { return samples / w.sensors * w.sensors }

func (w *streamBench) setup(workers int) {
	r := rand.New(rand.NewPCG(w.seed, 0x5eed))
	n := w.events(w.window)
	w.due = make([]int64, n)
	t := 0.0
	for i := range w.due {
		t += r.ExpFloat64() / w.rate
		w.due[i] = int64(t * 1e9)
	}
	w.lat, w.lags = make([]int64, 0, n), make([]int64, 0, n)
	rt := swan.NewWithPolicy(workers, swan.PolicySteal)
	w.rts = append(w.rts, rt)
	// The warm-up is open-loop only, so that the queues' high-water
	// marks read in the open-loop phase are the open-loop ones.
	w.openLoop(rt, nil)
}

func (w *streamBench) reference() {
	w.refWindow = streamstats.RunShardedSerial(w.config(w.window)).Digest()
	w.refClosed = streamstats.RunShardedSerial(w.config(w.closed)).Digest()
}

// windowResult is one open-loop window: latencies are completion time
// minus intended arrival time, lags are release time minus intended
// arrival time (never negative: no event is released early). The
// latency percentiles are taken per slice of consecutive events, so a
// stall of the host disturbs the slices it overlaps and not the
// window.
type windowResult struct {
	digest             string
	offered, completed int
	overLimit          int
	p50s, p99s         []float64 // ms, one per slice
	lagP99, minLag     int64     // ns
	wall               time.Duration
}

// openLoop runs one open-loop window. The generator is the producer's
// Arrive hook: it sleeps inside Frame.Block (not holding a worker
// slot) until an event is due and never releases it before then; the
// event carries its intended arrival time, so a stall is charged to
// every event it delays.
func (w *streamBench) openLoop(rt *swan.Runtime, tr *tracer) windowResult {
	var start time.Time
	lat, lags := w.lat[:0], w.lags[:0]
	cfg := w.config(w.window)
	cfg.Arrive = func(c *swan.Frame, i int) int64 {
		due := w.due[i]
		for {
			now := int64(time.Since(start))
			if now >= due {
				lags = append(lags, now-due)
				return due
			}
			id := tr.begin(spanArrive, tr.parentOf(c.WorkerID()))
			c.Block(func() { time.Sleep(time.Duration(due - now)) })
			tr.end(id)
		}
	}
	cfg.Complete = func(stamp int64) {
		if w.slow != nil {
			w.slow()
		}
		lat = append(lat, int64(time.Since(start))-stamp)
	}
	start = time.Now()
	res := streamstats.RunSharded(rt, cfg)
	r := windowResult{digest: res.Digest(), offered: len(lags), completed: len(lat), wall: time.Since(start)}
	limit := int64(w.limit)
	for _, l := range lat {
		if l > limit {
			r.overLimit++
		}
	}
	r.minLag = math.MaxInt64
	for _, l := range lags {
		r.minLag = min(r.minLag, l)
	}
	for lo := 0; lo < len(lat); lo += w.slice {
		sl := lat[lo:min(lo+w.slice, len(lat))]
		r.p50s = append(r.p50s, float64(quantileInt64(sl, 0.50))/1e6)
		r.p99s = append(r.p99s, float64(quantileInt64(sl, 0.99))/1e6)
	}
	r.lagP99 = quantileInt64(lags, 0.99)
	return r
}

// closedRep runs one closed-loop repetition flat out and returns its
// digest.
func (w *streamBench) closedRep(rt *swan.Runtime) string {
	return streamstats.RunSharded(rt, w.config(w.closed)).Digest()
}

// measure spends the first 60% of the budget on open-loop windows and
// the rest on closed-loop repetitions. Traced runs alternate untraced
// and traced repetitions in both phases; per-layer counters come from
// the traced open-loop windows, the tracing overhead from the
// closed-loop rates.
func (w *streamBench) measure(budget time.Duration, traced bool, spansPath string) outcome {
	o := outcome{correct: true, metrics: map[string]float64{}}
	var tr *tracer
	if traced {
		tr = newTracer(1 << 20)
	}
	minReps := int32(1)
	if traced {
		minReps = 2
	}
	var p50s, p99s, lagP99s, openHeaps []float64
	var acc layerAcc
	var offered int
	var openWall time.Duration
	nWindow := int64(w.events(w.window))
	openEnd := time.Now().Add(budget * 6 / 10)
	for rep := int32(0); rep < minReps || time.Now().Before(openEnd); rep++ {
		t := (*tracer)(nil)
		if rep%2 == 1 {
			t = tr
		}
		var win windowResult
		rt := w.rts[int(rep)%len(w.rts)]
		r := timeRep(rt, t, rep, func() { win = w.openLoop(rt, t) })
		if !o.book(fmt.Sprintf("stream window %d", rep), r, win.digest == w.refWindow, nWindow) {
			continue
		}
		o.failed += int64(win.overLimit) + nWindow - int64(win.completed)
		if win.minLag < 0 {
			o.correct = false
			o.notes = append(o.notes, fmt.Sprintf("stream window %d released an event %d ns early", rep, -win.minLag))
		}
		offered += win.offered
		openWall += win.wall
		lagP99s = append(lagP99s, float64(win.lagP99)/1e3)
		if t != nil {
			acc.add(r.before, r.after, nWindow)
			continue
		}
		openHeaps = append(openHeaps, r.heapMB)
		p50s = append(p50s, win.p50s...)
		p99s = append(p99s, win.p99s...)
	}

	var plain, withTrace repTimes
	nClosed := int64(w.events(w.closed))
	closedEnd := time.Now().Add(budget * 4 / 10)
	for rep := int32(0); rep < minReps || time.Now().Before(closedEnd); rep++ {
		t := (*tracer)(nil)
		if rep%2 == 1 {
			t = tr
		}
		var digest string
		rt := w.rts[int(rep)%len(w.rts)]
		r := timeRep(rt, t, 1000+rep, func() { digest = w.closedRep(rt) })
		if !o.book(fmt.Sprintf("stream closed-loop rep %d", rep), r, digest == w.refClosed, nClosed) {
			continue
		}
		if t != nil {
			withTrace.add(r.secs, nClosed, r.heapMB)
		} else {
			plain.add(r.secs, nClosed, r.heapMB)
		}
	}
	o.samples = len(p50s)
	if !traced {
		o.metrics["items_per_s"] = plain.rate()
		o.metrics["latency_p50_ms"] = median(p50s)
		o.metrics["latency_p99_ms"] = median(p99s)
		o.metrics["peak_heap_mb"] = max(median(openHeaps), median(plain.heaps))
		o.notes = append(o.notes, fmt.Sprintf("stream: %d latency slices of %d events in open-loop windows of %d events at %.0f/s (latency limit %v; slice p99 quartiles %.3f/%.3f/%.3f ms), %d closed-loop reps of %d events",
			len(p50s), w.slice, nWindow, w.rate, w.limit, quantile(p99s, 0.25), median(p99s), quantile(p99s, 0.75), len(plain.secs), nClosed))
		return o
	}
	acc.into(o.metrics)
	o.metrics["loadgen.lag_p99_us"] = median(lagP99s)
	if openWall > 0 {
		o.metrics["loadgen.offered"] = float64(offered) / openWall.Seconds()
	}
	o.metrics["trace.overhead_frac"] = overhead(plain, withTrace)
	o.notes = append(o.notes, spanNote(tr, spansPath))
	return o
}
