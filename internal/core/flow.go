package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// Bounded queues and flow control. The paper's hyperqueues are unbounded
// by construction — a producer never waits — which is the right model for
// batch pipelines but unsafe for long-running streaming services: a
// producer that outruns its consumer grows the segment chain (and the
// heap) without limit and nothing observes it. This file adds the
// producer-side dual of the consumer's emptyWait: an optional per-queue
// element budget (Bounded) enforced by credit accounting, plus the
// occupancy/high-water/block metering that makes a running pipeline
// observable (Named, QueueStat, the swan metrics endpoint).
//
// Credits. A bounded queue's free budget is not a counter of its own:
// it is derived as bound - (pushed - popped) from the two meters the
// queue keeps anyway. A push reserves its slots by advancing pushed with
// a CAS that the budget admits (reserve, the single grant routine behind
// Push, PushSlice, CommitWrite, TryPush and PushTimeout); the consumer
// returns them by advancing popped past every value it moves — Pop,
// TryPop, PopInto, ConsumeRead. The two counters live on separate cache
// lines, each written by one side only, and a producer reads popped
// through a cached copy on its own line, reloading the real one only
// when the copy says the bound is reached (or that the push may set a
// new high-water mark). So on an unblocked bounded queue a push is one
// CAS on the producer line and a release is one add on the consumer
// line plus the pushWaiters probe. Every return is immediate and exact:
// a returned slot is visible to the next producer that reloads, so no
// credit can sit stranded with a consumer that moved on to wait on
// another queue. When the budget is spent the producer spins briefly
// (the consumer is usually one pop away), then parks on a producer-side
// condition variable inside Frame.Block, so the scheduler releases the
// task's run token and a blocked producer can never starve the consumer
// of execution capacity. Wake-ups follow the same sleeper-counting rule
// as the consumer cond (wakeLocked): Signal when exactly one producer
// sleeps, Broadcast otherwise.
//
// Lock order. prodMu is a leaf lock, disjoint from the consMu/regMu
// hierarchy: it is only ever taken with no other queue lock held (the
// producer's park runs before any segment work, the consumer's release
// runs after the head advance, outside both locks). It can therefore
// never participate in a lock cycle with the view machinery.
//
// Deadlock freedom. Scheduler-level: a blocked Push routes through
// Frame.Block, which starts a compensating worker (PolicySteal) or
// releases the slot (PolicyGoroutine), so the consumer always has
// capacity to run, exactly as the consumer-side emptyWait guarantees the
// mirror case. Queue-level: credits are granted in arrival order while
// the consumer drains in serial program order, so a program whose
// producers run concurrently out of serial order can fill the bound with
// values the consumer cannot yet reach and wedge — see the in-order
// production discipline in OPERATIONS.md and the deadlock-freedom
// argument in ARCHITECTURE.md. Single-producer stages (the pipeline
// helpers, Produce, TransformSerial) are deadlock-free for any bound ≥ 1.

// creditSpins bounds the producer's yield-spin on an exhausted budget
// before it falls back to the capacity-releasing park, mirroring the
// consumer's emptySpins rationale: in steady state the next credit is
// one pop away.
const creditSpins = 64

// QueueOption configures a queue at construction (New,
// NewWithCapacity).
type QueueOption func(*queueOpts)

type queueOpts struct {
	bound int
	name  string
}

// Bounded caps the queue at n buffered values. Push and PushSlice block
// — releasing the worker slot via Frame.Block — once n values are in
// flight, and resume as the consumer drains. n < 1 is treated as 1. The
// default (no option) keeps the paper's unbounded semantics. A bounded
// queue is automatically metered (see Named).
func Bounded(n int) QueueOption {
	return func(o *queueOpts) {
		if n < 1 {
			n = 1
		}
		o.bound = n
	}
}

// Named meters the queue under the given name: occupancy, high-water and
// block/wake counters become visible in the runtime's QueueStats (and
// the swan metrics endpoint). Metering costs one atomic CAS per pushed
// element and one atomic add per popped element, each on its own side's
// cache line; plain unbounded queues pay only a nil check.
func Named(name string) QueueOption {
	return func(o *queueOpts) { o.name = name }
}

// QueueStat is a point-in-time snapshot of one metered queue's gauges
// and counters, reported by PoolProvider.QueueStats (runtime-wide) and
// Queue.Metrics (single queue). Counters are cumulative across Recycle.
type QueueStat struct {
	Name           string // Named value, or "queue-N" for auto-named bounded queues
	Bound          int    // element budget; 0 = unbounded (metering only)
	Occupancy      int64  // values currently buffered (pushed - popped)
	HighWater      int64  // maximum occupancy ever observed
	Pushed         uint64 // values ever pushed
	Popped         uint64 // values ever popped
	ProducerBlocks uint64 // producer parks on an exhausted budget
	ProducerWakes  uint64 // credit releases that found a parked producer
	ConsumerBlocks uint64 // consumer parks waiting for data (emptyWait)
	ConsumerWakes  uint64 // pushes that found a parked consumer
	Sheds          uint64 // values refused by TryPush / timed-out PushTimeout
}

// flowState is the per-queue flow-control block, allocated only for
// bounded or named queues; q.flow == nil is the plain unbounded case and
// keeps the hot paths branch-predictable with zero extra atomics.
//
// The fields fall into three groups on separate cache lines: state both
// sides read but rarely write (configuration, the park machinery and
// the event counters), the producer line and the consumer line.
type flowState struct {
	name  string
	bound int64 // 0 = metering only, no budget

	// failedp aliases the owning queue's poison cell (cancel.go) so the
	// producer-side park predicates can observe a Fail without a
	// reference to the generic Queue type. Immutable after construction.
	failedp *atomic.Pointer[failCell]

	// Producer park state. pushWaiters mirrors Queue.waiters: the
	// consumer's release probes it with one atomic load and skips prodMu
	// entirely in the no-waiter steady state. Lost wakeups are
	// impossible for the same reason as on the consumer side: a producer
	// increments pushWaiters under prodMu before re-checking the budget
	// against the real popped counter, so a releasing consumer either
	// observes the waiter (and its wake serializes through prodMu) or
	// advanced popped before the producer's re-check (and the producer
	// does not wait).
	pushWaiters  atomic.Int32
	prodMu       sync.Mutex
	prodCond     *sync.Cond
	prodSleepers int // producers inside the cond.Wait loop; guarded by prodMu

	prodBlocks atomic.Uint64
	prodWakes  atomic.Uint64
	consBlocks atomic.Uint64
	consWakes  atomic.Uint64
	sheds      atomic.Uint64

	// Producer line. pushed counts granted reservations (a reservation
	// precedes its value's segment store, so popped <= pushed). highWater
	// is a CAS-max on the push side only. poppedCache is the producers'
	// shared copy of popped: always at or behind it (it only ever holds
	// a value popped once had), so a budget computed from it is
	// conservative. It is atomic because several producers may reserve
	// at once; a racing store can move it backwards, never past popped.
	_           cacheLinePad
	pushed      atomic.Uint64
	highWater   atomic.Int64
	poppedCache atomic.Uint64

	// Consumer line: popped counts values the consumer moved past.
	_      cacheLinePad
	popped atomic.Uint64
	_      cacheLinePad
}

func newFlowState(name string, bound int) *flowState {
	fl := &flowState{name: name, bound: int64(bound)}
	fl.prodCond = sync.NewCond(&fl.prodMu)
	return fl
}

// acquire blocks until the budget admits at least one push, reserves up
// to want of them, and returns the number reserved. On an unbounded
// metered queue it never blocks and grants want whole.
func (fl *flowState) acquire(f *sched.Frame, want int64) int64 {
	for {
		if n := fl.reserve(want); n > 0 {
			return n
		}
		fl.waitForCredit(f)
	}
}

// reserve grants up to want pushes without blocking — as many as the
// budget admits, partial grants allowed (PushSlice moves what it can
// and comes back for the rest) — meters them, and returns the number
// granted; 0 means the bound is reached right now. It reloads the real
// popped counter only when the cached copy says the bound is reached or
// that the grant may set a new high-water mark; otherwise the whole
// grant stays on the producer line.
func (fl *flowState) reserve(want int64) int64 {
	for {
		p, seen := fl.pushed.Load(), fl.poppedCache.Load()
		take := want
		if fl.bound > 0 {
			free := fl.bound - int64(p-seen)
			if free <= 0 {
				seen = fl.refreshPopped()
				if free = fl.bound - int64(p-seen); free <= 0 {
					return 0
				}
			}
			// A successful CAS below proves pushed == p, and seen <=
			// popped <= pushed, so free is at most the real budget.
			take = min(want, free)
		}
		if !fl.pushed.CompareAndSwap(p, p+uint64(take)) {
			continue
		}
		if occ := int64(p + uint64(take) - seen); occ > fl.highWater.Load() {
			fl.raiseHighWater(int64(p + uint64(take) - fl.refreshPopped()))
		}
		return take
	}
}

// refreshPopped reloads the consumer's popped counter into the
// producers' cached copy and returns it.
func (fl *flowState) refreshPopped() uint64 {
	v := fl.popped.Load()
	fl.poppedCache.Store(v)
	return v
}

// raiseHighWater is the CAS-max of the high-water mark.
func (fl *flowState) raiseHighWater(occ int64) {
	for {
		hw := fl.highWater.Load()
		if occ <= hw || fl.highWater.CompareAndSwap(hw, occ) {
			return
		}
	}
}

// hasBudget reports, from the real counters, whether the bound admits
// another push. It is the predicate of every credit spin and park.
func (fl *flowState) hasBudget() bool {
	return fl.bound-int64(fl.pushed.Load()-fl.popped.Load()) > 0
}

// waitForCredit spins briefly and then parks the producer until the
// budget is replenished — or until the queue is poisoned or the frame's
// scope canceled, in which case the producer unwinds instead of holding
// its park forever (the wedge a canceled bounded pipeline would
// otherwise leave behind). The caller reserves again after a credit
// wake: the wake is a hint, not a grant.
func (fl *flowState) waitForCredit(f *sched.Frame) {
	for i := 0; i < creditSpins; i++ {
		runtime.Gosched()
		if fl.hasBudget() {
			return
		}
	}
	sc := f.CancelScope()
	if err := fl.failedErr(); err != nil {
		panic(sched.AbortUnwind{Err: err})
	}
	if sc.Canceled() {
		panic(sched.CancelUnwind{Err: sc.Err()})
	}
	fl.prodBlocks.Add(1)
	f.Block(func() {
		unreg := sc.OnCancel(fl.broadcastProd)
		defer unreg()
		fl.prodMu.Lock()
		fl.pushWaiters.Add(1)
		fl.prodSleepers++
		for !fl.hasBudget() && fl.failedErr() == nil && !sc.Canceled() {
			fl.prodCond.Wait()
		}
		fl.prodSleepers--
		fl.pushWaiters.Add(-1)
		fl.prodMu.Unlock()
	})
	if err := fl.failedErr(); err != nil {
		panic(sched.AbortUnwind{Err: err})
	}
	if sc.Canceled() {
		panic(sched.CancelUnwind{Err: sc.Err()})
	}
}

// release returns n slots of budget after the consumer advanced the head
// past n values, and wakes parked producers. The steady-state cost on an
// unblocked bounded queue is one atomic add on the consumer line and one
// atomic load of pushWaiters.
func (fl *flowState) release(n int64) {
	fl.popped.Add(uint64(n))
	if fl.bound == 0 || fl.pushWaiters.Load() == 0 {
		return
	}
	fl.prodWakes.Add(1)
	fl.prodMu.Lock()
	switch fl.prodSleepers {
	case 0:
	case 1:
		fl.prodCond.Signal()
	default:
		fl.prodCond.Broadcast()
	}
	fl.prodMu.Unlock()
}

// rearm restores the full budget. Only Recycle calls it, at a point
// where the queue is verified drained and no producer is live, so the
// true occupancy is zero. In a clean run pushed already equals popped
// and rearm changes nothing; after a recovered panic tore a push between
// its reservation and its segment store, the gap is budget held by
// values that never landed, and advancing popped to pushed returns it.
func (fl *flowState) rearm() {
	p := fl.pushed.Load()
	fl.popped.Store(p)
	fl.poppedCache.Store(p)
}

// snapshot reads the meter. Counters are loaded independently — the
// snapshot is internally consistent enough for a diagnostic surface, not
// a linearizable read.
func (fl *flowState) snapshot() QueueStat {
	pushed, popped := fl.pushed.Load(), fl.popped.Load()
	return QueueStat{
		Name:           fl.name,
		Bound:          int(fl.bound),
		Occupancy:      int64(pushed - popped),
		HighWater:      fl.highWater.Load(),
		Pushed:         pushed,
		Popped:         popped,
		ProducerBlocks: fl.prodBlocks.Load(),
		ProducerWakes:  fl.prodWakes.Load(),
		ConsumerBlocks: fl.consBlocks.Load(),
		ConsumerWakes:  fl.consWakes.Load(),
		Sheds:          fl.sheds.Load(),
	}
}

// Bound reports the queue's element budget (0 = unbounded).
func (q *Queue[T]) Bound() int {
	if q.flow == nil {
		return 0
	}
	return int(q.flow.bound)
}

// Metrics reports the queue's meter snapshot. ok is false for plain
// unbounded queues, which are not metered.
func (q *Queue[T]) Metrics() (stat QueueStat, ok bool) {
	if q.flow == nil {
		return QueueStat{}, false
	}
	return q.flow.snapshot(), true
}
