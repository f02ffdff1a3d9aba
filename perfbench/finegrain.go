package main

import (
	"fmt"
	"time"

	"repro/swan"
)

// finegrain is the paper's Fig. 2 shape at the smallest grain: a
// recursive producer tree pushes n uint64 values into an unbounded
// hyperqueue and folds a count into a named reducer; a serial transform
// stage forwards them through a bounded queue to a consumer that hashes
// them in order. Runtime overhead (spawn/steal, push/pop handles, the
// segment pool, view merges, flow credits) is almost all of its time.
type finegrain struct {
	seed  uint64
	n     int // values per repetition
	leaf  int // values pushed by one leaf task
	bound int // element budget of the queue between transform and consumer

	rts []*swan.Runtime // one per set-up; repetitions take turns
	ref finegrainResult // serial-elision output
}

type finegrainResult struct {
	hash, count uint64
}

func newFinegrain(seed uint64) *finegrain {
	return &finegrain{seed: seed, n: 1 << 20, leaf: 256, bound: 4096}
}

// value is element i of the seeded input stream (SplitMix64).
func (w *finegrain) value(i int) uint64 {
	z := w.seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// transform is the serial stage's per-value work.
func transform(v uint64) uint64 { return v ^ (v >> 29) }

// fold is the consumer's order-sensitive hash (FNV-1a over words).
func fold(h, v uint64) uint64 { return (h ^ v) * 0x100000001b3 }

const fnvOffset = 0xcbf29ce484222325

func (w *finegrain) setup(workers int) {
	rt := swan.NewWithPolicy(workers, swan.PolicySteal)
	w.rts = append(w.rts, rt)
	w.rep(rt, nil)
}

// reference computes the serial elision: a plain loop over the inputs.
func (w *finegrain) reference() {
	h := uint64(fnvOffset)
	for i := 0; i < w.n; i++ {
		h = fold(h, transform(w.value(i)))
	}
	w.ref = finegrainResult{hash: h, count: uint64(w.n)}
}

var countMonoid = swan.Monoid[uint64]{
	Identity: func() uint64 { return 0 },
	Combine:  func(into *uint64, from uint64) { *into += from },
}

// emptySample is how often, on average, the traced consumer times its
// Empty call: timing a random one in emptySample keeps tracing cheap,
// and each timed call stands for emptySample calls. (A fixed stride
// would alias with the segment size, where the waits fall.)
const emptySample = 64

// rep runs the pipeline once. With a tracer it records spans around
// Spawn, Sync, the leaf push loops, the consumer, and a sample of the
// consumer's Empty calls (where it waits for values); the consumer is
// then swan.Drain's loop written out, and rep also returns its
// estimate of the time the consumer waited in Empty. Without a tracer
// the consumer is swan.Drain.
func (w *finegrain) rep(rt *swan.Runtime, tr *tracer) (res finegrainResult, waitNs int64) {
	res.hash = fnvOffset
	rt.Run(func(f *swan.Frame) {
		in := swan.NewQueue[uint64](f)
		out := swan.NewQueue[uint64](f, swan.Bounded(w.bound), swan.Named("finegrain.out"))
		count := swan.NewReducer(f, countMonoid, swan.HyperNamed("finegrain.count"))

		var produce func(c *swan.Frame, lo, hi int)
		produce = func(c *swan.Frame, lo, hi int) {
			wid := c.WorkerID()
			if hi-lo <= w.leaf {
				id := tr.begin(spanPush, tr.parentOf(wid))
				pw := in.BindPush(c)
				for i := lo; i < hi; i++ {
					pw.Push(w.value(i))
				}
				tr.end(id)
				rh := count.BindReduce(c)
				rh.Add(uint64(hi - lo))
				return
			}
			mid := lo + (hi-lo)/2
			for _, r := range [2][2]int{{lo, mid}, {mid, hi}} {
				id := tr.begin(spanSpawn, tr.parentOf(wid))
				c.Spawn(func(g *swan.Frame) { produce(g, r[0], r[1]) }, swan.Push(in), swan.Reduce(count))
				tr.end(id)
			}
			id := tr.begin(spanSync, tr.parentOf(wid))
			prev := tr.enter(wid, id)
			c.Sync()
			tr.leave(wid, prev)
			tr.end(id)
		}
		f.Spawn(func(c *swan.Frame) { produce(c, 0, w.n) }, swan.Push(in), swan.Reduce(count))
		swan.TransformSerial(f, in, out, func(v uint64, emit func(uint64)) { emit(transform(v)) })
		if tr == nil {
			swan.Drain(f, out, func(v uint64) { res.hash = fold(res.hash, v) })
		} else {
			f.Spawn(func(c *swan.Frame) {
				id := tr.begin(spanConsume, tr.parentOf(c.WorkerID()))
				pp := out.BindPop(c)
				rnd := uint64(0x9e3779b97f4a7c15) // xorshift64 state
				for i := 0; ; i++ {
					rnd ^= rnd << 13
					rnd ^= rnd >> 7
					rnd ^= rnd << 17
					var weight int64
					switch {
					case i == 0:
						weight = 1 // waits for the pipeline to start: always timed, stands for itself
					case rnd%emptySample == 0:
						weight = emptySample
					}
					var empty bool
					if weight > 0 {
						e := tr.begin(spanEmpty, id)
						empty = pp.Empty()
						waitNs += weight * tr.end(e)
					} else {
						empty = pp.Empty()
					}
					if empty {
						break
					}
					res.hash = fold(res.hash, pp.Pop())
				}
				tr.end(id)
			}, swan.Pop(out))
		}
		f.Sync()
		res.count = count.Value(f)
	})
	return res, waitNs
}

// measure runs timed repetitions until the budget is spent; traced runs
// alternate untraced and traced repetitions so that the tracing
// overhead is measured under the same conditions.
func (w *finegrain) measure(budget time.Duration, traced bool, spansPath string) outcome {
	o := outcome{correct: true, metrics: map[string]float64{}}
	var plain, withTrace repTimes
	var acc layerAcc
	var consumerWait int64 // ns, over the traced repetitions
	var tr *tracer
	if traced {
		tr = newTracer(1 << 21)
	}
	minReps := int32(1)
	if traced {
		minReps = 2
	}
	deadline := time.Now().Add(budget)
	for rep := int32(0); rep < minReps || time.Now().Before(deadline); rep++ {
		t := (*tracer)(nil)
		if rep%2 == 1 {
			t = tr
		}
		var res finegrainResult
		var waitNs int64
		rt := w.rts[int(rep)%len(w.rts)]
		r := timeRep(rt, t, rep, func() { res, waitNs = w.rep(rt, t) })
		if !o.book(fmt.Sprintf("finegrain rep %d", rep), r, res == w.ref, int64(w.n)) {
			continue
		}
		if t != nil {
			withTrace.add(r.secs, int64(w.n), r.heapMB)
			acc.add(r.before, r.after, int64(w.n))
			consumerWait += waitNs
		} else {
			plain.add(r.secs, int64(w.n), r.heapMB)
		}
	}
	o.samples = len(plain.secs)
	if !traced {
		plain.batchMetrics(o.metrics)
		return o
	}
	acc.into(o.metrics)
	totals := spanTotals(tr.recorded())
	reps := float64(max(len(withTrace.secs), 1))
	items := float64(max(acc.items, 1))
	if s := totals[spanSpawn]; s.count > 0 {
		o.metrics["sched.spawn_ns"] = float64(s.total) / float64(s.count)
	}
	o.metrics["sched.sync_wait_ms"] = float64(totals[spanSync].self) / 1e6 / reps
	o.metrics["core.push_ns"] = float64(totals[spanPush].total) / items
	o.metrics["core.pop_ns"] = float64(totals[spanConsume].total-consumerWait) / items
	o.metrics["core.consumer_wait_ms"] = float64(consumerWait) / 1e6 / reps
	o.metrics["trace.overhead_frac"] = overhead(plain, withTrace)
	o.notes = append(o.notes, spanNote(tr, spansPath))
	return o
}
