package swan_test

import (
	"strconv"
	"testing"

	"repro/swan"
)

func TestProduceTransformDrain(t *testing.T) {
	const n = 300
	var got []string
	rt := swan.New(8)
	rt.Run(func(f *swan.Frame) {
		nums := swan.NewQueue[int](f)
		strs := swan.NewQueue[string](f)
		f.Spawn(func(mid *swan.Frame) {
			inner := swan.NewQueueWithCapacity[int](mid, 32)
			swan.Produce(mid, inner, func(c *swan.Frame, push func(int)) {
				for i := 0; i < n; i++ {
					push(i)
				}
			})
			swan.TransformEach(mid, inner, nums, func(v int) int { return v * v })
		}, swan.Push(nums))
		_ = strs
		swan.Drain(f, nums, func(v int) { got = append(got, strconv.Itoa(v)) })
		f.Sync()
	})
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	for i, s := range got {
		if s != strconv.Itoa(i*i) {
			t.Fatalf("got[%d] = %s, want %d", i, s, i*i)
		}
	}
}

func TestTransformSerialFanOut(t *testing.T) {
	var got []int
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		out := swan.NewQueue[int](f)
		f.Spawn(func(mid *swan.Frame) {
			in := swan.NewQueue[int](mid)
			swan.Produce(mid, in, func(c *swan.Frame, push func(int)) {
				for i := 1; i <= 5; i++ {
					push(i)
				}
			})
			// Each input k expands to k outputs — the variable fan-out
			// plain task dataflow cannot express.
			swan.TransformSerial(mid, in, out, func(k int, emit func(int)) {
				for j := 0; j < k; j++ {
					emit(k*10 + j)
				}
			})
		}, swan.Push(out))
		swan.Drain(f, out, func(v int) { got = append(got, v) })
		f.Sync()
	})
	want := []int{10, 20, 21, 30, 31, 32, 40, 41, 42, 43, 50, 51, 52, 53, 54}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDrainSlices(t *testing.T) {
	const n = 500
	var got []int
	rt := swan.New(4)
	rt.Run(func(f *swan.Frame) {
		q := swan.NewQueueWithCapacity[int](f, 64)
		swan.Produce(f, q, func(c *swan.Frame, push func(int)) {
			for i := 0; i < n; i++ {
				push(i)
			}
		})
		swan.DrainSlices(f, q, 32, func(s []int) {
			got = append(got, s...)
		})
		f.Sync()
	})
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d; order broken", i, v)
		}
	}
}

func TestThreeStageTypedPipeline(t *testing.T) {
	// nums -> squares (parallel) -> strings (serial fan-out) -> sink,
	// exercising both transform kinds chained through typed queues.
	var lines []string
	rt := swan.New(8)
	rt.Run(func(f *swan.Frame) {
		strs := swan.NewQueue[string](f)
		f.Spawn(func(m2 *swan.Frame) {
			squares := swan.NewQueue[int](m2)
			m2.Spawn(func(m1 *swan.Frame) {
				nums := swan.NewQueue[int](m1)
				swan.Produce(m1, nums, func(c *swan.Frame, push func(int)) {
					for i := 0; i < 50; i++ {
						push(i)
					}
				})
				swan.TransformEach(m1, nums, squares, func(v int) int { return v * v })
			}, swan.Push(squares))
			swan.TransformSerial(m2, squares, strs, func(v int, emit func(string)) {
				emit("sq=" + strconv.Itoa(v))
			})
		}, swan.Push(strs))
		swan.Drain(f, strs, func(s string) { lines = append(lines, s) })
		f.Sync()
	})
	if len(lines) != 50 {
		t.Fatalf("got %d lines, want 50", len(lines))
	}
	for i, s := range lines {
		if s != "sq="+strconv.Itoa(i*i) {
			t.Fatalf("lines[%d] = %q", i, s)
		}
	}
}

// TestTransformSerialAllocsPerElement pins TransformSerial's per-element
// loop at zero allocations: the emit function it hands fn must be bound
// once per stage, not built per value. Each queue holds the whole run
// in one segment, so after the warm-up run the segment pool serves
// every segment and only the per-run setup (queues, spawns) allocates.
func TestTransformSerialAllocsPerElement(t *testing.T) {
	const n = 1 << 16
	rt := swan.New(2)
	var sum int
	run := func() {
		sum = 0
		rt.Run(func(f *swan.Frame) {
			in := swan.NewQueueWithCapacity[int](f, n)
			out := swan.NewQueueWithCapacity[int](f, n)
			swan.Produce(f, in, func(c *swan.Frame, push func(int)) {
				for i := 0; i < n; i++ {
					push(i)
				}
			})
			swan.TransformSerial(f, in, out, func(v int, emit func(int)) { emit(2 * v) })
			swan.Drain(f, out, func(v int) { sum += v })
			f.Sync()
		})
	}
	perElem := testing.AllocsPerRun(5, run) / n
	if want := n * (n - 1); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if perElem >= 0.01 {
		t.Errorf("TransformSerial allocates %.3f times per element, want < 0.01", perElem)
	}
}
