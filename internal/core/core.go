// Package core implements hyperqueues, the paper's primary contribution
// (SC 2013, "Deterministic Scale-Free Pipeline Parallelism with
// Hyperqueues"): a deterministic queue abstraction whose values are
// exposed to the (single) consumer in serial program order, while many
// producer tasks push concurrently and the consumer pops concurrently
// with them.
//
// The implementation follows §3–§4 of the paper:
//
//   - the underlying storage is a linked chain of fixed-size SPSC ring
//     segments (segment.go), recycled through a runtime-wide sharded
//     free-list pool (segpool.go, one PoolProvider per sched.Runtime,
//     one pool per element type and segment capacity) so the steady
//     state allocates nothing and short-lived queues start on warm
//     segments; a fully-drained quiescent queue can itself be reset and
//     reused via Recycle;
//   - partial chains are tracked by views with local/non-local ends and
//     combined with split and reduce; the pairing discipline and the
//     per-task view bookkeeping live in the generic hyperobject
//     substrate (internal/core/hyper), which this package instantiates
//     for segment-chain views (view.go) and drives through the queue's
//     engine (Queue.eng, called under regMu);
//   - every task holding privileges on a queue carries the view set
//     {children, user, right} (plus the conceptual queue view for
//     consumers), updated at push, spawn, completion and sync per
//     §4.1–4.2 by the substrate's structural folds (HandOff, Retire,
//     SyncFold, ShareToPredecessor, FoldFrontier);
//   - the queue view is stored once in the queue itself with ticket-based
//     ownership arbitration, the variant the paper sketches in §4.5
//     ("Special Optimization") for the queue hypermap;
//   - the per-segment producing flag of §3.2 is realized as a registry of
//     live producer tasks plus program-order labels: Empty blocks while
//     any producer that precedes the consumer in the serial elision is
//     still live, which is the same observable condition.
//
// Beyond the queue, the same substrate backs two more hyperobjects in
// this package: a deterministic monoid reducer (reducer.go) and a
// first-writer-wins keyed hypermap (hypermap.go); their determinism
// contracts are documented on their types.
//
// # The Empty contract
//
// Empty is the consumer's end-of-stream test and is allowed to block: it
// returns false as soon as a value is available to pop, and it returns
// true only when the emptiness is permanent — no value ordered before
// the consumer's current position in the serial elision exists now or
// can ever be produced. While the answer is undecided (the queue looks
// empty but a producer ordered before the consumer is still live), Empty
// waits, releasing the task's execution capacity so it never starves
// runnable tasks. Pop relies on the same decision procedure: popping a
// permanently empty queue panics, and a pop on a temporarily empty queue
// blocks until the head value arrives.
//
// Deciding permanent emptiness takes more than scanning the head chain:
// values pushed by an already-completed producer can sit in a view that
// is not yet physically linked into the queue's segment chain (a
// completed task's user view deposited into a sibling's right view, a
// child's views folded into its parent's children view, ...). The
// consumer therefore finishes the deferred reductions itself: once no
// live producer precedes it, every view ordered before its position is
// held by one of its ancestors' children views or by its own children
// and user views, and linkFrontier folds exactly those into the queue
// view (the §4.5 "double reduction", applied consistently at the
// consumer rather than only at push time). Only if the queue view still
// exposes no value after that fold is the emptiness permanent. The same
// fold also runs opportunistically from the producer side: when a
// retiring producer's Complete observes a consumer parked in Empty/Pop
// with no visible producer left, it links the frontier itself so the
// consumer wakes to already-linked data (deps.go).
//
// # Ownership and locking map
//
// The hot paths (Push, Pop, Empty's reachability probe) take no locks at
// all — and through the bound handles of handle.go (BindPush/BindPop,
// with bulk PushSlice/PopInto) they also stop re-resolving privileges
// per element; everything else is split between two independent mutexes
// so that sibling producers preparing and completing never serialize
// against a popping consumer. The rules, field by field:
//
//   - Queue.consMu (the consumer-side lock) guards: Queue.parked,
//     Queue.sleepers (the all-classes count of cond.Wait loops that lets
//     wakeLocked Signal instead of Broadcast when exactly one waiter
//     exists), and the condition variable Queue.cond (which signals
//     "data linked", "producer retired" and "consumer ticket served").
//     Every blocking consumer wait — Empty/Pop's emptyWait,
//     acquireConsumer, a pop dep's Wait — runs under consMu.
//   - Queue.regMu (the producer-registry lock) guards: Queue.producers,
//     Queue.nlctr, every qviews' children and right views, and the
//     live-sibling chain fields (prev, next, childHead, childTail).
//     Prepare, Complete, syncHook and every engine fold (Retire,
//     ShareToPredecessor, SyncFold, FoldFrontier) operate under regMu.
//   - Lock order: consMu before regMu, always. Code holding regMu must
//     release it before touching consMu (Complete does exactly that);
//     consumer decision paths nest regMu inside consMu.
//   - Single-writer fields need no lock: Queue.headView is written only
//     by the task currently holding the consumer role (ticket
//     arbitration makes that exclusive; a Complete-side frontier fold
//     writes it only while the consumer is parked under consMu, which
//     the fold also holds). Each qviews' user view is private to its
//     frame's goroutine. segment.tail is written only by the one
//     producer holding a local tail pointer to it, segment.head only by
//     the consumer-role holder (invariants 5 and 2 below).
//   - Atomics: Queue.waiters (producers read it lock-free to skip the
//     wake-up lock), Queue.everProducer (set under regMu when the first
//     push-privileged task registers, read lock-free by the
//     TryPop/ReadSlice miss path to skip the locked frontier fold,
//     cleared only by Recycle), Queue.consMuAcquires (a debug-mode
//     counter of consMu acquisitions, read by the lock-free fast-path
//     tests), qviews.popServed (advanced by completing pop children,
//     read by ticket gates), qviews.popTickets (written only by the
//     owning frame's goroutine during Prepare, atomic for the benefit of
//     readers), segment.head/tail/next (SPSC ring and chain
//     publication), and the debugChecks flag.
//   - Queue.consShard is a plain int written and read only by the
//     consumer-role holder; role handoff happens-before through the
//     popServed atomics.
//
// # Invariant numbering
//
// Comments throughout the package cite the §4.4 invariants by number:
//
//  1. Every hyperqueue holds at least one segment; the queue view's head
//     pointer is local.
//  2. There is exactly one queue view, and its head pointer is
//     manipulated only by the consumer-role holder.
//  3. The queue view's tail pointer is non-local, and a user view's head
//     pointer is non-local unless the view is empty — the queue view and
//     the serial frontier's user view share one split.
//  4. Every segment is reachable exactly once: through one next pointer
//     or one view head pointer.
//  5. At most one view holds a local tail pointer to a given segment,
//     and a local tail always points to a segment whose next link is nil
//     (the open tail).
//  6. (unnumbered in checks) Non-local pointers occur in matching pairs
//     between program-order-adjacent views; asserted by reduce.
//  7. Pair discipline at quiescence: the queue view's non-local tail
//     pairs with the owner's user (or children) view's non-local head.
//
// invariants.go checks 1–5 and 7 at quiescent points, and — with
// SetDebugChecks on — asserts at every permanent-emptiness decision that
// no view ordered before the consumer still hides data.
package core
