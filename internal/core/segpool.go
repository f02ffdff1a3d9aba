package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/core/hyper"
	"repro/internal/sched"
)

// This file implements the two layers of segment recycling:
//
//   - segPool is one sharded free list of segments of a single element
//     type and capacity;
//   - PoolProvider is the runtime-wide registry of segPools, stored once
//     per sched.Runtime (via Runtime.Shared), so that every queue the
//     runtime ever creates with the same element type and segment
//     capacity draws from the same free lists.
//
// Before PR 4 each Queue owned a private segPool, which made the steady
// state of one long-lived queue allocation-free but re-paid the full
// segment-allocation cost for every queue a churn-heavy program creates
// (dedup builds one short-lived queue per coarse chunk). With the
// provider, a recycled queue's segments outlive the queue: the next
// pipeline instance — whether it reuses the Queue via Recycle or
// constructs a fresh one — starts on warm segments.

// providerKey is the Runtime.Shared key under which the one PoolProvider
// of a runtime lives.
type providerKey struct{}

// poolKey identifies one segPool inside a provider: the element type
// (carried by the generic instantiation) and the segment capacity. Only
// queues agreeing on both can exchange segments.
type poolKey[T any] struct{ segCap int }

// PoolProvider is the per-runtime segment-pool registry. The runtime
// owns exactly one (lazily created by the first queue); queues resolve
// their segPool through it at construction time, so pools — and the
// segments cached in them — are shared across all queues of the runtime
// with the same element type and segment capacity.
type PoolProvider struct {
	workers int

	mu    sync.Mutex
	pools map[any]any // poolKey[T] -> *segPool[T]

	// recycles counts completed Queue.Recycle resets runtime-wide — the
	// companion gauge to PooledSegments for the swan.Stats surface.
	recycles atomic.Uint64

	// segAllocs counts segments allocated fresh because every free list
	// missed — the runtime-wide "the pool was not enough" gauge. Together
	// with a queue bound it yields a provable memory ceiling: a bounded
	// 1P/1C pipeline can keep at most ceil(bound/segCap)+O(1) segments
	// live, so segAllocs stays flat once the chain is warm (asserted in
	// the backpressure tests). Every fresh segment a queue ever creates
	// is counted here — pool misses and the oversized one-off segments
	// WriteSlice builds for requests larger than the configured capacity
	// — so together with segDrops it closes the pool-accounting books:
	//
	//   SegmentAllocs == PooledSegments + DroppedSegments + live chains
	//                    + segments abandoned with their queues
	//
	// at any quiescent point. The soak harness (internal/soak) audits
	// exactly this balance, tracking the abandoned term itself via
	// Queue.DebugChainSegments.
	segAllocs atomic.Uint64

	// segDrops counts segments handed to put that the pool declined to
	// cache — free lists full, or a segment of a non-pooled (oversized)
	// capacity — and released to the garbage collector instead. The
	// counterpart to segAllocs in the audit balance above.
	segDrops atomic.Uint64

	// flows is the registry of metered queues (bounded or Named), read by
	// QueueStats for the swan metrics endpoint. Registration happens once
	// per queue construction; entries survive Recycle (the meter is
	// cumulative) and are never removed — the registry is bounded by the
	// number of metered queues the program creates, and programs that
	// churn queues use Recycle precisely to avoid re-creating them.
	flowMu   sync.Mutex
	flows    []*flowState
	autoName atomic.Uint64 // "queue-N" names for unnamed bounded queues

	// hypers is the registry of named reducers and hypermaps, read by
	// HyperStats for the swan metrics endpoint. Like flows, only Named
	// objects register (HyperNamed), registration happens once per
	// construction, and entries are never removed — unnamed objects stay
	// unregistered so churny callers do not grow the registry.
	hyperMu sync.Mutex
	hypers  []hyper.Hyperobject
}

// RecycledQueues reports how many Queue.Recycle resets have completed
// across every queue of the runtime.
func (p *PoolProvider) RecycledQueues() uint64 { return p.recycles.Load() }

// SegmentAllocs reports how many segments have ever been allocated fresh
// (pool misses plus oversized WriteSlice segments) across every pool of
// the provider.
func (p *PoolProvider) SegmentAllocs() uint64 { return p.segAllocs.Load() }

// DroppedSegments reports how many segments the pools declined to cache
// (full free lists or non-pooled capacities) and released to the garbage
// collector. Part of the pool-audit debug API: see the segAllocs comment
// for the balance equation the soak harness checks.
func (p *PoolProvider) DroppedSegments() uint64 { return p.segDrops.Load() }

// CarryProvider installs the segment-pool provider of one runtime as the
// provider of another, so pools — and every segment cached in them —
// survive a runtime teardown/rebuild (a policy switch mid-service, or
// per-connection runtime reuse). It must run before any queue is created
// on the destination runtime; if the destination already resolved its own
// provider, that one wins and CarryProvider reports it instead. The
// returned provider is the one dst will use.
func CarryProvider(src, dst *sched.Runtime) *PoolProvider {
	prov := ProviderOf(src)
	return dst.Shared(providerKey{}, func() any { return prov }).(*PoolProvider)
}

// registerFlow adds a metered queue's flow block to the provider
// registry, assigning an automatic name when the queue was bounded but
// not Named.
func (p *PoolProvider) registerFlow(fl *flowState) {
	if fl.name == "" {
		fl.name = "queue-" + itoa(p.autoName.Add(1))
	}
	p.flowMu.Lock()
	p.flows = append(p.flows, fl)
	p.flowMu.Unlock()
}

// registerHyper adds a named hyperobject (reducer, hypermap) to the
// provider registry.
func (p *PoolProvider) registerHyper(h hyper.Hyperobject) {
	p.hyperMu.Lock()
	p.hypers = append(p.hypers, h)
	p.hyperMu.Unlock()
}

// HyperStats snapshots every named hyperobject of the runtime, in order
// of first appearance. Objects sharing a name and kind — a per-run
// reducer constructed once per pipeline instance, for example —
// aggregate into one row: merge and view counters sum, so the name
// labels the role rather than one object instance.
func (p *PoolProvider) HyperStats() []hyper.Stat {
	p.hyperMu.Lock()
	hypers := p.hypers
	p.hyperMu.Unlock()
	var out []hyper.Stat
	type key struct{ name, kind string }
	index := make(map[key]int, len(hypers))
	for _, h := range hypers {
		s := h.HyperStat()
		k := key{s.Name, s.Kind}
		i, ok := index[k]
		if !ok {
			index[k] = len(out)
			out = append(out, s)
			continue
		}
		agg := &out[i]
		agg.Merges += s.Merges
		agg.Views += s.Views
	}
	return out
}

// QueueStats snapshots every metered queue of the runtime, in order of
// first appearance. Plain unbounded queues do not appear (they carry no
// meter). Queues sharing a name — a pipeline stage constructed once per
// run, for example — are aggregated into one row: counters and
// occupancy sum, high-water and bound take the maximum, so the name
// labels the stage rather than one queue instance and the Prometheus
// rendering never emits duplicate series.
func (p *PoolProvider) QueueStats() []QueueStat {
	p.flowMu.Lock()
	flows := p.flows
	p.flowMu.Unlock()
	var out []QueueStat
	index := make(map[string]int, len(flows))
	for _, fl := range flows {
		s := fl.snapshot()
		i, ok := index[s.Name]
		if !ok {
			index[s.Name] = len(out)
			out = append(out, s)
			continue
		}
		agg := &out[i]
		agg.Bound = max(agg.Bound, s.Bound)
		agg.Occupancy += s.Occupancy
		agg.HighWater = max(agg.HighWater, s.HighWater)
		agg.Pushed += s.Pushed
		agg.Popped += s.Popped
		agg.ProducerBlocks += s.ProducerBlocks
		agg.ProducerWakes += s.ProducerWakes
		agg.ConsumerBlocks += s.ConsumerBlocks
		agg.ConsumerWakes += s.ConsumerWakes
		agg.Sheds += s.Sheds
	}
	return out
}

// itoa is strconv.Itoa for the auto-namer without importing strconv into
// the hot-path compilation unit.
func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ProviderOf returns the runtime's segment-pool provider, creating it on
// first use. All queues created on rt share this provider.
func ProviderOf(rt *sched.Runtime) *PoolProvider {
	return rt.Shared(providerKey{}, func() any {
		return &PoolProvider{workers: rt.Workers(), pools: make(map[any]any)}
	}).(*PoolProvider)
}

// poolFor resolves (and on first use creates) the shared segPool for
// element type T and segment capacity segCap. Called once per queue
// construction — never on a push/pop path.
func poolFor[T any](p *PoolProvider, segCap int) *segPool[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := poolKey[T]{segCap}
	if sp, ok := p.pools[key]; ok {
		return sp.(*segPool[T])
	}
	sp := &segPool[T]{prov: p}
	sp.init(p.workers, segCap)
	p.pools[key] = sp
	return sp
}

// PooledSegments reports how many segments are currently cached across
// every pool of the provider — a diagnostic for tests and tuning, not a
// hot-path primitive.
func (p *PoolProvider) PooledSegments() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, sp := range p.pools {
		total += sp.(interface{ cached() int }).cached()
	}
	return total
}

// segPool recycles queue segments so that a pipeline in steady state
// performs zero heap allocations: every segment the consumer drains past
// (reachableData) is reset and parked on a free list, and every producer
// overflow (Push into a full segment, attachFreshSegment, WriteSlice)
// takes a segment from a free list before falling back to make. One
// segPool serves every queue of its runtime that shares its element type
// and segment capacity (see PoolProvider above).
//
// The pool is sharded per worker: shard selection hashes the scheduler's
// worker id (sched.Frame.WorkerID), so a producer and consumer running on
// the same worker — the common case under help-first scheduling, and the
// only case on one worker — hit a private free list with an uncontended
// mutex. Segments freed on one worker and needed on another circulate
// through the bounded global overflow list; a get that misses its own
// shard and the overflow scans the other shards before allocating, so a
// recycled segment is never stranded while another worker allocates.
// Lists are fixed-capacity arrays: put and get never allocate, and a put
// that finds everything full simply drops the segment for the garbage
// collector (the pool is a cache, not an accounting structure).
//
// Only segments of the queue's configured capacity are pooled; the
// oversized segments WriteSlice creates for large requests (§5.2) are
// dropped on recycle.
type segPool[T any] struct {
	prov   *PoolProvider // owning provider, for the segAllocs miss counter
	shards []segPoolShard[T]
	mask   int
	segCap int

	overflowMu sync.Mutex
	overflow   []*segment[T] // fixed capacity, allocated at init
}

// cached reports how many segments the pool currently holds (shards plus
// overflow). Diagnostic only.
func (p *segPool[T]) cached() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	p.overflowMu.Lock()
	n += len(p.overflow)
	p.overflowMu.Unlock()
	return n
}

const (
	// segShardSlots bounds each per-worker free list; segOverflowSlots
	// bounds the shared overflow list. Together they cap the idle memory
	// one (type, capacity) pool retains — runtime-wide, now that pools
	// are shared — at (shards*segShardSlots + segOverflowSlots)
	// segments.
	segShardSlots    = 8
	segOverflowSlots = 64
	// maxSegShards caps the shard array on very wide machines; beyond
	// this, workers share shards by id hash, which only costs some mutex
	// sharing on a path taken once per segCap values.
	maxSegShards = 16
)

type segPoolShard[T any] struct {
	mu   sync.Mutex
	n    int
	free [segShardSlots]*segment[T]
	// Pad each shard to its own cache-line neighborhood so per-worker
	// lists do not false-share.
	_ cacheLinePad
}

// init sizes the pool for a runtime with the given worker count. The
// shard count is the smallest power of two covering the workers, capped
// at maxSegShards.
func (p *segPool[T]) init(workers, segCap int) {
	n := 1
	for n < workers && n < maxSegShards {
		n *= 2
	}
	p.shards = make([]segPoolShard[T], n)
	p.mask = n - 1
	p.segCap = segCap
	p.overflow = make([]*segment[T], 0, segOverflowSlots)
}

// shard maps a scheduler worker id to a shard index.
func (p *segPool[T]) shard(workerID int) int { return workerID & p.mask }

// get returns a reset segment of the queue's configured capacity, taking
// it from the sid shard, the overflow list, or any other shard before
// allocating a fresh one.
func (p *segPool[T]) get(sid int) *segment[T] {
	sh := &p.shards[sid]
	sh.mu.Lock()
	if sh.n > 0 {
		sh.n--
		s := sh.free[sh.n]
		sh.free[sh.n] = nil
		sh.mu.Unlock()
		return s
	}
	sh.mu.Unlock()
	p.overflowMu.Lock()
	if n := len(p.overflow); n > 0 {
		s := p.overflow[n-1]
		p.overflow[n-1] = nil
		p.overflow = p.overflow[:n-1]
		p.overflowMu.Unlock()
		return s
	}
	p.overflowMu.Unlock()
	for i := range p.shards {
		if i == sid {
			continue
		}
		o := &p.shards[i]
		o.mu.Lock()
		if o.n > 0 {
			o.n--
			s := o.free[o.n]
			o.free[o.n] = nil
			o.mu.Unlock()
			return s
		}
		o.mu.Unlock()
	}
	if p.prov != nil {
		p.prov.segAllocs.Add(1)
	}
	return newSegment[T](p.segCap)
}

// put recycles a drained segment into the sid shard, spilling to the
// overflow list, or drops it when both are full or it is not of the
// pooled capacity. The caller must own the segment exclusively (it has
// been drained past: no view points at it and no producer can reach it)
// and must not touch it afterwards.
func (p *segPool[T]) put(sid int, s *segment[T]) {
	if len(s.buf) != p.segCap {
		p.noteDrop()
		return
	}
	s.reset()
	sh := &p.shards[sid]
	sh.mu.Lock()
	if sh.n < segShardSlots {
		sh.free[sh.n] = s
		sh.n++
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	p.overflowMu.Lock()
	if len(p.overflow) < segOverflowSlots {
		p.overflow = append(p.overflow, s)
		p.overflowMu.Unlock()
		return
	}
	p.overflowMu.Unlock()
	p.noteDrop()
}

// noteDrop records a segment released to the garbage collector instead
// of cached, keeping the provider's audit balance closed.
func (p *segPool[T]) noteDrop() {
	if p.prov != nil {
		p.prov.segDrops.Add(1)
	}
}
