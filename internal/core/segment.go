package core

import "sync/atomic"

// cacheLinePad separates fields that different goroutines write, so a
// store by one side never invalidates the line the other side reads.
type cacheLinePad struct{ _ [64]byte }

// segment is one fixed-size queue segment (§3.2): a single-producer,
// single-consumer circular buffer (Lamport, TOPLAS 1983) with a link to
// the next segment in the hyperqueue's chain.
//
// Ownership discipline:
//   - tail (and the slots it guards) are written only by the one producer
//     task currently holding a local tail pointer to the segment
//     (invariant 5: at most one view's tail pointer).
//   - head is written only by the one consumer task holding the queue
//     view (invariant 2: exactly one queue view with a local head).
//   - next is written once, by the producer that abandons the segment
//     (push into a full segment) or by a reduction linking two chains;
//     both cases are serialized by the queue's structural mutex or by
//     tail ownership.
//
// Cache lines. head and tail sit on separate lines, each next to its
// side's cached copy of the other side's index: the consumer keeps
// tailCache beside head, the producer keeps headCache beside tail. The
// per-element operations (full, push, pop, hasData) test the cached copy
// first and reload the other side's index only when the copy says full
// or empty, so in steady state neither side reads a line the other
// writes. A cached copy is a value the other index once held, and the
// indices only grow, so it is always at or behind the true index: a
// "full" or "empty" verdict from it is rechecked against a fresh load,
// and a "has room" or "has data" verdict is exact. It also keeps the
// publication argument intact: every slot the copy vouches for was
// published by the atomic store the copy was loaded from. Each cached
// copy is owned by its side exactly like the index beside it, and
// ownership moves between tasks only across the scheduler's or the
// queue's synchronization.
//
// A producer and a consumer sharing one segment reuse it as a ring,
// giving the paper's zero-allocation steady state.
type segment[T any] struct {
	buf  []T
	next atomic.Pointer[segment[T]]

	_         cacheLinePad
	head      atomic.Int64 // next index to pop (mod len(buf))
	tailCache int64        // consumer's copy of tail; at or behind it

	_         cacheLinePad
	tail      atomic.Int64 // next index to push (mod len(buf))
	headCache int64        // producer's copy of head; at or behind it
}

func newSegment[T any](capacity int) *segment[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &segment[T]{buf: make([]T, capacity)}
}

// NextSeg and SetNextSeg implement hyper.Chain, letting the generic
// pairing discipline (hyper.View, hyper.PairOps) link segment chains
// without knowing the segment type.

func (s *segment[T]) NextSeg() *segment[T] { return s.next.Load() }

func (s *segment[T]) SetNextSeg(n *segment[T]) { s.next.Store(n) }

// reset returns a drained segment to its freshly-allocated state so the
// pool can hand it to a new producer. The caller must own the segment
// exclusively. Both cached copies are zeroed with the indices: a stale
// copy ahead of its reset index would let the next producer overrun
// unread slots or the next consumer read slots never written. The
// buffer needs no clearing: pop and ConsumeRead zero each slot as they
// drain it.
func (s *segment[T]) reset() {
	s.head.Store(0)
	s.tailCache = 0
	s.tail.Store(0)
	s.headCache = 0
	s.next.Store(nil)
}

// size reports the number of values currently stored, from fresh loads
// of both indices. Any task may call it; the per-element paths use the
// side-local tests below instead.
func (s *segment[T]) size() int64 { return s.tail.Load() - s.head.Load() }

// full reports whether a push would not fit. Only the owning producer
// may call it.
func (s *segment[T]) full() bool {
	t := s.tail.Load()
	if t-s.headCache < int64(len(s.buf)) {
		return false
	}
	s.headCache = s.head.Load()
	return t-s.headCache >= int64(len(s.buf))
}

// hasData reports whether a pop would find a value. Only the consumer
// holding the queue view may call it.
func (s *segment[T]) hasData() bool {
	h := s.head.Load()
	if s.tailCache > h {
		return true
	}
	s.tailCache = s.tail.Load()
	return s.tailCache > h
}

// push appends v. The caller must be the owning producer and must have
// checked !full(); push on a full segment panics.
func (s *segment[T]) push(v T) {
	t := s.tail.Load()
	if t-s.headCache >= int64(len(s.buf)) {
		s.headCache = s.head.Load()
		if t-s.headCache >= int64(len(s.buf)) {
			panic("hyperqueue: push on full segment")
		}
	}
	s.buf[t%int64(len(s.buf))] = v
	s.tail.Store(t + 1) // release: publishes buf[t] to the consumer
}

// pop removes and returns the oldest value. The caller must be the owning
// consumer and must have checked hasData().
func (s *segment[T]) pop() T {
	h := s.head.Load()
	if s.tailCache <= h {
		s.tailCache = s.tail.Load()
		if s.tailCache <= h {
			panic("hyperqueue: pop on empty segment")
		}
	}
	i := h % int64(len(s.buf))
	v := s.buf[i]
	var zero T
	s.buf[i] = zero // drop the reference for the garbage collector
	s.head.Store(h + 1)
	return v
}

// contiguousReadable returns the index of the oldest value and how many
// values can be read from buf without wrapping. Used by read slices
// (§5.2).
func (s *segment[T]) contiguousReadable() (start, n int64) {
	h := s.head.Load()
	avail := s.tail.Load() - h
	i := h % int64(len(s.buf))
	span := int64(len(s.buf)) - i
	if avail < span {
		span = avail
	}
	return i, span
}

// contiguousWritable returns the index of the next free slot and how many
// values can be written without wrapping. Used by write slices (§5.2).
func (s *segment[T]) contiguousWritable() (start, n int64) {
	t := s.tail.Load()
	free := int64(len(s.buf)) - (t - s.head.Load())
	i := t % int64(len(s.buf))
	span := int64(len(s.buf)) - i
	if free < span {
		span = free
	}
	return i, span
}
