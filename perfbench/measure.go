package main

import (
	"fmt"
	"math"
	"regexp"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/swan"
)

// outcome is what one benchmark run measured.
type outcome struct {
	attempted, failed int64
	correct           bool               // every checked repetition matched its serial reference
	metrics           map[string]float64 // by metric name; units come from the metric tables
	samples           int                // timed repetitions behind the end-to-end medians
	notes             []string           // human-readable lines printed before the result
}

// runtime/metrics names the go.* per-layer metrics and peak_heap_mb
// derive from.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
	mSchedLat    = "/sched/latencies:seconds"
)

// snapshot is every cumulative counter the per-layer metrics are
// deltas of: the runtime's own stats plus the Go runtime's.
type snapshot struct {
	st      swan.RuntimeStats
	rtm     []metrics.Sample
	latCnts []uint64
}

var goMetricNames = []string{mAllocObjs, mAllocBytes, mGCCycles, mGCCPU, mTotalCPU, mSchedLat}

func takeSnapshot(rt *swan.Runtime) snapshot {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[len(s)-1].Value.Float64Histogram()
	return snapshot{st: swan.Stats(rt), rtm: s, latCnts: append([]uint64(nil), h.Counts...)}
}

func (s snapshot) goValue(i int) float64 {
	v := s.rtm[i].Value
	if v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	return v.Float64()
}

// layerAcc accumulates per-layer counters over the traced repetitions.
type layerAcc struct {
	reps, items                           int64
	spawns, steals, stolen, parks, blocks uint64
	segAllocs, recycled                   uint64
	prodBlocks, consBlocks, views, merges uint64
	allocObjs, allocBytes, gcCycles       float64
	gcCPU, totalCPU                       float64
	latCnts                               []uint64
	latBuckets                            []float64
	shardPushed                           map[string]uint64
	last                                  swan.RuntimeStats
}

// add folds the counters of one traced repetition that moved items
// items between before and after.
func (a *layerAcc) add(before, after snapshot, items int64) {
	a.reps++
	a.items += items
	b, e := before.st, after.st
	a.spawns += e.Spawns - b.Spawns
	a.steals += e.Steals - b.Steals
	a.stolen += e.StolenTasks - b.StolenTasks
	a.parks += e.Parks - b.Parks
	a.blocks += e.Blocks - b.Blocks
	a.segAllocs += e.SegmentAllocs - b.SegmentAllocs
	a.recycled += e.RecycledQueues - b.RecycledQueues
	prev := map[string]swan.QueueStats{}
	for _, q := range b.Queues {
		prev[q.Name] = q
	}
	if a.shardPushed == nil {
		a.shardPushed = map[string]uint64{}
	}
	for _, q := range e.Queues {
		p := prev[q.Name]
		if q.Bound > 0 {
			a.prodBlocks += q.ProducerBlocks - p.ProducerBlocks
			a.consBlocks += q.ConsumerBlocks - p.ConsumerBlocks
		}
		if isShardIngress(q.Name) {
			a.shardPushed[q.Name] += q.Pushed - p.Pushed
		}
	}
	prevH := map[string]swan.HyperobjectStats{}
	for _, h := range b.Hyperobjects {
		prevH[h.Name+"/"+h.Kind] = h
	}
	for _, h := range e.Hyperobjects {
		p := prevH[h.Name+"/"+h.Kind]
		a.views += h.Views - p.Views
		a.merges += h.Merges - p.Merges
	}
	a.allocObjs += after.goValue(0) - before.goValue(0)
	a.allocBytes += after.goValue(1) - before.goValue(1)
	a.gcCycles += after.goValue(2) - before.goValue(2)
	a.gcCPU += after.goValue(3) - before.goValue(3)
	a.totalCPU += after.goValue(4) - before.goValue(4)
	if a.latCnts == nil {
		a.latCnts = make([]uint64, len(after.latCnts))
		a.latBuckets = after.rtm[5].Value.Float64Histogram().Buckets
	}
	for i := range after.latCnts {
		a.latCnts[i] += after.latCnts[i] - before.latCnts[i]
	}
	a.last = e
}

// shardQueue matches the per-shard queues of a swan.Sharded fan-out,
// "<name>.shard<i>.in" and "<name>.shard<i>.out".
var shardQueue = regexp.MustCompile(`\.shard[0-9]+\.(in|out)$`)

func isShardIngress(name string) bool {
	return shardQueue.MatchString(name) && strings.HasSuffix(name, ".in")
}

// into writes the counter-derived per-layer metrics into m. Counts are
// per traced repetition; gauges are read at the end of the last one.
func (a *layerAcc) into(m map[string]float64) {
	if a.reps == 0 {
		return
	}
	perRep := func(v uint64) float64 { return float64(v) / float64(a.reps) }
	m["sched.spawns"] = perRep(a.spawns)
	m["sched.steals"] = perRep(a.steals)
	if a.steals > 0 {
		m["sched.stolen_per_steal"] = float64(a.stolen) / float64(a.steals)
	}
	m["sched.parks"] = perRep(a.parks)
	m["sched.blocks"] = perRep(a.blocks)
	m["core.segment_allocs"] = perRep(a.segAllocs)
	m["core.recycled_queues"] = perRep(a.recycled)
	m["core.pooled_segments"] = float64(a.last.PooledSegments)
	m["flow.producer_blocks"] = perRep(a.prodBlocks)
	m["flow.consumer_blocks"] = perRep(a.consBlocks)
	var hw, shardHW int64
	for _, q := range a.last.Queues {
		if q.Bound > 0 {
			hw = max(hw, q.HighWater)
		}
		if shardQueue.MatchString(q.Name) {
			shardHW = max(shardHW, q.HighWater)
		}
	}
	m["flow.high_water"] = float64(hw)
	m["shard.high_water_max"] = float64(shardHW)
	if len(a.shardPushed) > 0 {
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for _, n := range a.shardPushed {
			lo, hi = min(lo, n), max(hi, n)
		}
		if lo > 0 {
			m["shard.push_skew"] = float64(hi) / float64(lo)
		}
	}
	m["hyper.views"] = perRep(a.views)
	m["hyper.merges"] = perRep(a.merges)
	if a.items > 0 {
		m["go.allocs_per_item"] = a.allocObjs / float64(a.items)
		m["go.alloc_bytes_per_item"] = a.allocBytes / float64(a.items)
	}
	m["go.gc_cycles"] = a.gcCycles / float64(a.reps)
	if a.totalCPU > 0 {
		m["go.gc_cpu_frac"] = a.gcCPU / a.totalCPU
	}
	m["go.sched_latency_p99_us"] = histQuantile(a.latCnts, a.latBuckets, 0.99) * 1e6
}

// histQuantile returns the upper bound of the bucket holding quantile q
// of a runtime/metrics histogram (the lower bound for the open top
// bucket).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			if hi := buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-2]
}

// heapSampleEvery is how often peak_heap_mb samples the live heap while
// a repetition runs.
const heapSampleEvery = 2 * time.Millisecond

// withHeapPeak runs fn while a sampler reads the heap-object bytes every
// heapSampleEvery, and returns the largest reading in MiB. The sampler
// has exited when withHeapPeak returns.
func withHeapPeak(fn func()) float64 {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: mHeapObjects}}
		var hi uint64
		read := func() {
			metrics.Read(s)
			hi = max(hi, s[0].Value.Uint64())
		}
		read()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-done:
				read()
				peak <- hi
				return
			}
		}
	}()
	fn()
	close(done)
	return float64(<-peak) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantileInt64 returns the q-quantile (nearest rank) of xs; xs is not
// modified.
func quantileInt64(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// repTimes collects the end-to-end figures of one kind of repetition.
type repTimes struct {
	secs, heaps []float64
	items       int64
}

func (r *repTimes) add(secs float64, items int64, heapMB float64) {
	r.secs = append(r.secs, secs)
	r.heaps = append(r.heaps, heapMB)
	r.items += items
}

// rate is items moved per second of repetition time. Taken over all
// repetitions rather than as a median of per-repetition rates, it stays
// steady when repetitions fall into a fast and a slow schedule.
func (r *repTimes) rate() float64 {
	var t float64
	for _, s := range r.secs {
		t += s
	}
	if t == 0 {
		return 0
	}
	return float64(r.items) / t
}

// batchMetrics fills the end-to-end metrics of a batch workload, whose
// latency is the time from input to complete result of one repetition:
// the median repetition and the 0.99 quantile of repetitions.
func (r *repTimes) batchMetrics(m map[string]float64) {
	m["items_per_s"] = r.rate()
	m["latency_p50_ms"] = median(r.secs) * 1e3
	m["latency_p99_ms"] = quantile(r.secs, 0.99) * 1e3
	m["peak_heap_mb"] = median(r.heaps)
}

// overhead returns 1 - traced/untraced item rate.
func overhead(untraced, traced repTimes) float64 {
	u := untraced.rate()
	if u == 0 {
		return 0
	}
	return 1 - traced.rate()/u
}

// repRun is one timed repetition: the counters around it, its wall
// time, the peak heap while it ran and any panic that escaped the
// runtime.
type repRun struct {
	before, after snapshot
	secs, heapMB  float64
	panicked      any
}

// timeRep runs fn as repetition rep on rt, after a forced GC so every
// repetition starts from the same heap, between two counter snapshots
// and under a root span of t (nil when the repetition is untraced).
func timeRep(rt *swan.Runtime, t *tracer, rep int32, fn func()) repRun {
	runtime.GC()
	r := repRun{before: takeSnapshot(rt)}
	t.beginRep(rep, spanRep)
	r.heapMB = withHeapPeak(func() {
		start := time.Now()
		defer func() {
			r.secs = time.Since(start).Seconds()
			r.panicked = recover()
		}()
		fn()
	})
	t.endRep()
	r.after = takeSnapshot(rt)
	return r
}

// book counts a repetition that moved items items and reports whether
// it succeeded: it failed when it panicked, its run was canceled or its
// output differed from the serial reference.
func (o *outcome) book(what string, r repRun, matches bool, items int64) bool {
	o.attempted += items
	if r.panicked != nil {
		o.notes = append(o.notes, fmt.Sprintf("%s panicked: %v", what, r.panicked))
	}
	if r.panicked != nil || !matches || r.after.st.CanceledRuns != r.before.st.CanceledRuns {
		o.correct = false
		o.failed += items
		return false
	}
	return true
}
