package core_test

// Tests for the side-local state of a queue: the cached copies of the
// other side's ring index that each segment keeps next to its own index
// (segment.go), and the flow budget derived from the pushed and popped
// counters (flow.go). Both are only correct while every cached copy
// stays at or behind the value it mirrors, which these tests stress
// across ring wraps, segment reuse through the pool, Recycle, and
// concurrent producers.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/swan"
)

// TestRingWrapRecycleStress drives tiny segments (capacity 1, 2 and 3)
// through many Recycle rounds, with two producers and the consumer in
// separate tasks, so segments wrap as rings, are drained past, reset by
// the pool and handed to the next producer with their indices reused.
// The consumer checks every value against the serial elision. A
// segment returned to the pool with a stale cached index would let a
// producer overrun unread slots or a consumer read unwritten ones.
func TestRingWrapRecycleStress(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 300
	}
	for _, policy := range policies {
		for _, segCap := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%v/segCap=%d", policy, segCap), func(t *testing.T) {
				rt := swan.NewWithPolicy(4, policy)
				var crossWorker int
				rt.Run(func(f *swan.Frame) {
					q := swan.NewQueueWithCapacity[int](f, segCap)
					for round := 0; round < rounds; round++ {
						// Vary the per-producer count so the producers
						// stop at every ring position.
						k := 1 + (round*7)%40
						base := round * 1000
						var prodWorker atomic.Int64
						for p := 0; p < 2; p++ {
							f.Spawn(func(c *swan.Frame) {
								prodWorker.Store(int64(c.WorkerID()))
								pw := q.BindPush(c)
								for i := 0; i < k; i++ {
									pw.Push(base + p*k + i)
								}
							}, swan.Push(q))
						}
						f.Spawn(func(c *swan.Frame) {
							pp := q.BindPop(c)
							for want := base; want < base+2*k; want++ {
								if pp.Empty() {
									t.Errorf("round %d: queue empty at %d, want %d values", round, want-base, 2*k)
									return
								}
								if got := pp.Pop(); got != want {
									t.Errorf("round %d: popped %d, want %d", round, got, want)
									return
								}
							}
							if !pp.Empty() {
								t.Errorf("round %d: values past the serial elision", round)
							}
							if int64(c.WorkerID()) != prodWorker.Load() {
								crossWorker++
							}
						}, swan.Pop(q))
						f.Sync()
						if t.Failed() {
							return
						}
						q.Recycle(f)
					}
				})
				if policy == swan.PolicySteal && crossWorker == 0 {
					t.Errorf("producer and consumer never ran on different workers in %d rounds", rounds)
				}
			})
		}
	}
}

// TestBoundedConcurrentTryPushMeter runs several TryPush producers at
// once against one bounded queue while a consumer drains it. Producers
// race on the pushed counter and on the shared cached copy of popped;
// whatever interleaving they take, the budget must never admit more
// than the bound, the consumer must see exactly the accepted values in
// serial order, and at quiescence the meter must balance.
func TestBoundedConcurrentTryPushMeter(t *testing.T) {
	const producers, attempts, reps = 4, 5000, 8
	for _, policy := range policies {
		for _, bound := range []int{1, 4, 32, 1024} {
			t.Run(fmt.Sprintf("%v/bound=%d", policy, bound), func(t *testing.T) {
				rt := swan.NewWithPolicy(4, policy)
				for rep := 0; rep < reps && !t.Failed(); rep++ {
					tryPushRound(t, rt, producers, attempts, bound)
				}
			})
		}
	}
}

func tryPushRound(t *testing.T, rt *swan.Runtime, producers, attempts, bound int) {
	t.Helper()
	accepted := make([][]int, producers)
	var got []int
	var qs swan.QueueStats
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[int](f, 8, swan.Bounded(bound))
		for p := 0; p < producers; p++ {
			f.Spawn(func(c *swan.Frame) {
				pw := q.BindPush(c)
				for i := 0; i < attempts; i++ {
					v := p*attempts + i
					if pw.TryPush(v) {
						accepted[p] = append(accepted[p], v)
					}
				}
			}, swan.Push(q))
		}
		swan.Drain(f, q, func(v int) { got = append(got, v) })
		f.Sync()
		qs, _ = q.Metrics()
	})
	var want []int
	for p := range accepted {
		want = append(want, accepted[p]...)
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d values, producers had %d accepted", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d: serial order broken", i, got[i], want[i])
		}
	}
	if qs.HighWater > int64(bound) {
		t.Errorf("high-water = %d exceeds bound %d", qs.HighWater, bound)
	}
	if qs.Pushed != qs.Popped+uint64(qs.Occupancy) {
		t.Errorf("meter does not balance: pushed %d, popped %d, occupancy %d", qs.Pushed, qs.Popped, qs.Occupancy)
	}
	if qs.Occupancy != 0 || qs.Pushed != uint64(len(want)) {
		t.Errorf("meter pushed/occupancy = %d/%d, want %d/0", qs.Pushed, qs.Occupancy, len(want))
	}
	if sheds := uint64(producers*attempts - len(want)); qs.Sheds != sheds {
		t.Errorf("sheds = %d, want %d", qs.Sheds, sheds)
	}
}
