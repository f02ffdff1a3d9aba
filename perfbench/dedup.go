package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/workloads/dedup"
	"repro/swan"
)

// dedupBench is the paper's Fig. 11 pipeline: dedup.RunHyperqueue with
// default options on seeded input. Its kernels dominate (Compress is
// about three quarters of the serial time) while it churns recycled
// nested queues and two hypermaps per repetition.
type dedupBench struct {
	seed uint64
	size int // input bytes

	opts   dedup.Options
	data   []byte
	rts    []*swan.Runtime // one per set-up; repetitions take turns
	ref    dedup.Result    // serial-elision output
	chunks int64           // fine chunks written per repetition: the operations counted as attempted
}

// dedupSegCap is the segment capacity RunHyperqueue's queues use, as in
// the paper's Fig. 11 experiments.
const dedupSegCap = 64

func newDedup(seed uint64) *dedupBench {
	return &dedupBench{seed: seed, size: 16 << 20, opts: dedup.DefaultOptions()}
}

func (w *dedupBench) setup(workers int) {
	w.data = dedup.GenerateInput(w.seed, w.size, 0.5)
	rt := swan.NewWithPolicy(workers, swan.PolicySteal)
	w.rts = append(w.rts, rt)
	dedup.RunHyperqueue(rt, w.data, w.opts, dedupSegCap)
}

// reference computes the serial elision's output and counts the fine
// chunks one repetition writes.
func (w *dedupBench) reference() {
	w.ref = dedup.RunSerial(w.data, w.opts)
	w.chunks = 0
	for _, c := range dedup.Fragment(w.data, w.opts) {
		w.chunks += int64(len(dedup.Refine(c, w.opts)))
	}
}

func (w *dedupBench) matches(r dedup.Result) bool {
	return r.Checksum == w.ref.Checksum && bytes.Equal(r.Stream, w.ref.Stream)
}

// measure runs timed parallel repetitions until the budget is spent.
// Traced runs first characterize the serial stages, then interleave
// untraced, serial and traced repetitions, so the serial baseline is
// measured warm, at the same GOMAXPROCS, under the same conditions.
func (w *dedupBench) measure(budget time.Duration, traced bool, spansPath string) outcome {
	o := outcome{correct: true, metrics: map[string]float64{}}
	var plain, withTrace, serial repTimes
	var acc layerAcc
	var tr *tracer
	deadline := time.Now().Add(budget)
	if traced {
		tr = newTracer(1 << 12)
		id := tr.begin(spanStages, 0)
		stages := dedup.CharacterizeStages(w.data, w.opts)
		tr.end(id)
		for i, name := range []string{"fragment", "refine", "dedup", "compress", "output"} {
			o.metrics["dedup.stage_"+name+"_s"] = stages[i].Seconds
		}
	}
	minReps := int32(1)
	if traced {
		minReps = 3
	}
	parallel := 0 // parallel repetitions so far: they take turns on the runtimes
	for rep := int32(0); rep < minReps || time.Now().Before(deadline); rep++ {
		kind := rep % 3
		if !traced {
			kind = 0
		}
		if kind == 1 { // serial elision
			runtime.GC()
			id := tr.begin(spanSerial, 0)
			start := time.Now()
			r := dedup.RunSerial(w.data, w.opts)
			secs := time.Since(start).Seconds()
			tr.end(id)
			serial.add(secs, int64(len(w.data)), 0)
			if !w.matches(r) {
				o.notes = append(o.notes, "dedup: serial repetition disagrees with the reference")
				o.correct = false
			}
			continue
		}
		t := (*tracer)(nil)
		if kind == 2 {
			t = tr
		}
		var res dedup.Result
		rt := w.rts[parallel%len(w.rts)]
		parallel++
		r := timeRep(rt, t, rep, func() { res = dedup.RunHyperqueue(rt, w.data, w.opts, dedupSegCap) })
		if !o.book(fmt.Sprintf("dedup rep %d", rep), r, w.matches(res), w.chunks) {
			continue
		}
		// Throughput counts input bytes: the chunk count of an input
		// varies by about ten percent from seed to seed, its size not.
		if t != nil {
			withTrace.add(r.secs, int64(len(w.data)), r.heapMB)
			acc.add(r.before, r.after, w.chunks)
		} else {
			plain.add(r.secs, int64(len(w.data)), r.heapMB)
		}
	}
	o.samples = len(plain.secs)
	if !traced {
		plain.batchMetrics(o.metrics)
		return o
	}
	acc.into(o.metrics)
	o.metrics["dedup.serial_s"] = median(serial.secs)
	o.metrics["trace.overhead_frac"] = overhead(plain, withTrace)
	if p := median(plain.secs); p > 0 {
		o.notes = append(o.notes, fmt.Sprintf("dedup: speedup over serial %.2fx (serial %.3f s, parallel %.3f s, medians of %d and %d warm reps)",
			median(serial.secs)/p, median(serial.secs), p, len(serial.secs), len(plain.secs)))
	}
	o.notes = append(o.notes, spanNote(tr, spansPath))
	return o
}
