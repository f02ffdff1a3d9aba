package core_test

// Regression tests for the lifecycle corners the soak fuzzer leans on:
// Queue.Recycle probed while a bounded producer is blocked on credits,
// and a runtime torn down and rebuilt under the other scheduling policy
// with the segment pools carried over mid-churn. Both run under -race in
// the CI regression job.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/swan"
)

// TestRegressionRecycleVsBlockedBoundedProducer pins the interaction of
// the Recycle quiescence probe with the credit path: while a producer
// child is blocked mid-burst on a tight bound, CanRecycle must answer
// false (the producer is registered and live), it must keep answering
// false for as long as the producer cannot have finished, and once the
// owner drains the queue and syncs, Recycle must succeed and the rearmed
// queue must carry another full burst.
func TestRegressionRecycleVsBlockedBoundedProducer(t *testing.T) {
	const (
		bound  = 4
		values = 16
	)
	for _, policy := range policies {
		t.Run(fmt.Sprint(policy), func(t *testing.T) {
			swan.NewWithPolicy(4, policy).Run(func(f *swan.Frame) {
				q := swan.NewQueueWithCapacity[int](f, 2, swan.Bounded(bound))
				f.Spawn(func(c *swan.Frame) {
					pu := q.BindPush(c)
					for v := 0; v < values; v++ {
						pu.Push(v) // blocks on credits after the first bound pushes
					}
				}, swan.Push(q))
				for i := 0; i < values; i++ {
					// Until enough credits were freed for the producer to
					// have pushed its last value, it is necessarily still
					// live, so the recycle probe must refuse.
					if i < values-bound && q.CanRecycle(f) {
						t.Errorf("%v: CanRecycle true after %d pops with the producer necessarily live", policy, i)
					}
					if got := q.Pop(f); got != i {
						t.Errorf("%v: pop %d = %d, want %d", policy, i, got, i)
					}
				}
				f.Sync()
				if !q.CanRecycle(f) {
					t.Fatalf("%v: CanRecycle false after drain and sync", policy)
				}
				q.Recycle(f)
				// The rearmed queue must have its full credit budget and
				// the never-had-a-producer fast path back: push another
				// blocking burst through it.
				f.Spawn(func(c *swan.Frame) {
					pu := q.BindPush(c)
					for v := 0; v < values; v++ {
						pu.Push(100 + v)
					}
				}, swan.Push(q))
				for i := 0; i < values; i++ {
					if got := q.Pop(f); got != 100+i {
						t.Errorf("%v: post-recycle pop %d = %d, want %d", policy, i, got, 100+i)
					}
				}
				f.Sync()
			})
		})
	}
}

// churn runs one producer/consumer pipeline cycle on rt, recycling the
// queue between the two bursts, and fails the test on any wrong value.
// The producer is synced before the pops, so each burst fills its whole
// chain before the consumer frees a segment: the number of segments a
// burst needs does not depend on how far the scheduler lets the
// producer run ahead of the consumer.
func churn(t *testing.T, rt *swan.Runtime, tag string) {
	t.Helper()
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[int](f, 8)
		for round := 0; round < 2; round++ {
			base := round * 1000
			f.Spawn(func(c *swan.Frame) {
				pu := q.BindPush(c)
				for v := 0; v < 500; v++ {
					pu.Push(base + v)
				}
			}, swan.Push(q))
			f.Sync()
			for v := 0; v < 500; v++ {
				if got := q.Pop(f); got != base+v {
					t.Errorf("%s: round %d pop %d = %d, want %d", tag, round, v, got, base+v)
					return
				}
			}
			f.Sync()
			q.Recycle(f)
		}
	})
}

// TestRegressionPolicySwitchMidChurn tears a runtime down mid-churn and
// rebuilds it under the other scheduling policy with CarryProvider: the
// rebuilt runtime must observe the same provider (recycling gauges
// continue, the pool audit balance spans the switch) and its warm pool
// must serve the same churn with no more fresh allocations than the
// first runtime needed.
func TestRegressionPolicySwitchMidChurn(t *testing.T) {
	pairs := [][2]swan.SpawnPolicy{
		{swan.PolicySteal, swan.PolicyGoroutine},
		{swan.PolicyGoroutine, swan.PolicySteal},
	}
	for _, pair := range pairs {
		t.Run(fmt.Sprintf("%v-to-%v", pair[0], pair[1]), func(t *testing.T) {
			rtA := swan.NewWithPolicy(4, pair[0])
			prov := core.ProviderOf(rtA)
			allocs0 := prov.SegmentAllocs()
			churn(t, rtA, "before switch")
			allocsA := prov.SegmentAllocs() - allocs0
			recycledA := prov.RecycledQueues()

			rtB := swan.NewWithPolicy(4, pair[1])
			if core.CarryProvider(rtA, rtB) != prov {
				t.Fatal("CarryProvider did not attach the old provider to the rebuilt runtime")
			}
			if got := core.ProviderOf(rtB); got != prov {
				t.Fatalf("rebuilt runtime resolved a different provider: %p vs %p", got, prov)
			}
			churn(t, rtB, "after switch")
			// The first runtime's churn left every segment it allocated in
			// the carried pool except one: the head segment its queue took
			// at the final Recycle, abandoned with the queue. The same
			// churn needs no more, so the rebuilt runtime allocates at
			// most that one.
			allocsB := prov.SegmentAllocs() - allocs0 - allocsA
			if allocsB > 1 {
				t.Errorf("rebuilt runtime allocated %d fresh segments (first runtime %d), want at most 1 — pool not carried",
					allocsB, allocsA)
			}
			if got := prov.RecycledQueues(); got != recycledA+2 {
				t.Errorf("recycled-queue gauge %d after switch, want %d (continuity across rebuild)",
					got, recycledA+2)
			}
		})
	}
}
