package ferret

import (
	"time"

	"repro/internal/pipeline"
	"repro/swan"
)

// Output is the final serial stage's product.
type Output struct {
	Text     []byte
	Queries  int
	Checksum uint64
}

func (o *Output) add(r *Result) {
	line := FormatResult(r)
	o.Text = append(o.Text, line...)
	o.Queries++
	for i := 0; i < len(line); i++ {
		o.Checksum = o.Checksum*31 + uint64(line[i])
	}
}

// RunSerial is the reference implementation and serial elision.
func RunSerial(c *Corpus, p Params) *Output {
	out := &Output{}
	c.Root.Walk(func(id int) {
		out.add(Process(c.LoadImage(id), p, c.DB))
	})
	return out
}

// StageTime is one row of the Table 1 characterization.
type StageTime struct {
	Name       string
	Iterations int
	Seconds    float64
	Percent    float64
}

// CharacterizeStages measures the serial per-stage breakdown — the
// harness that regenerates Table 1.
func CharacterizeStages(c *Corpus, p Params) []StageTime {
	rows := []StageTime{
		{Name: "Input", Iterations: 1},
		{Name: "Segmentation"},
		{Name: "Extraction"},
		{Name: "Vectorizing"},
		{Name: "Ranking"},
		{Name: "Output"},
	}
	out := &Output{}
	c.Root.Walk(func(id int) {
		t0 := time.Now()
		img := c.LoadImage(id)
		t1 := time.Now()
		s := Segment(img, p.Clusters)
		t2 := time.Now()
		f := Extract(s)
		t3 := time.Now()
		sig := Vectorize(f, p.VectIters)
		t4 := time.Now()
		r := Rank(sig, c.DB, p.TopK)
		t5 := time.Now()
		out.add(r)
		t6 := time.Now()
		rows[0].Seconds += t1.Sub(t0).Seconds()
		rows[1].Seconds += t2.Sub(t1).Seconds()
		rows[2].Seconds += t3.Sub(t2).Seconds()
		rows[3].Seconds += t4.Sub(t3).Seconds()
		rows[4].Seconds += t5.Sub(t4).Seconds()
		rows[5].Seconds += t6.Sub(t5).Seconds()
		for i := 1; i < 6; i++ {
			rows[i].Iterations++
		}
	})
	var total float64
	for _, r := range rows {
		total += r.Seconds
	}
	for i := range rows {
		rows[i].Percent = 100 * rows[i].Seconds / total
	}
	return rows
}

// RunPthreads is the PARSEC pthreads shape: the traversal feeds a queue
// as files are discovered; each middle stage has its own (oversubscribed)
// thread pool; Output restores order.
func RunPthreads(c *Corpus, p Params, workersPerStage, queueCap int) *Output {
	out := &Output{}
	pipeline.RunPthreads(
		func(emit func(any)) { // Input: natural recursive traversal
			c.Root.Walk(func(id int) { emit(c.LoadImage(id)) })
		},
		[]pipeline.Stage{
			{Name: "seg", Workers: workersPerStage, Fn: func(d any, emit func(any)) {
				emit(Segment(d.(*Image), p.Clusters))
			}},
			{Name: "extract", Workers: workersPerStage, Fn: func(d any, emit func(any)) {
				emit(Extract(d.(*Segmented)))
			}},
			{Name: "vect", Workers: workersPerStage, Fn: func(d any, emit func(any)) {
				emit(Vectorize(d.(*SegFeatures), p.VectIters))
			}},
			{Name: "rank", Workers: workersPerStage, Fn: func(d any, emit func(any)) {
				emit(Rank(d.(*Signature), c.DB, p.TopK))
			}},
			{Name: "out", Ordered: true, Fn: func(d any, emit func(any)) {
				out.add(d.(*Result))
			}},
		},
		queueCap,
	)
	return out
}

// RunTBB is the structured TBB shape: the input filter needs the
// explicit-state iterator (the restructuring the paper calls tedious),
// and each stage is a 1:1 filter.
func RunTBB(c *Corpus, p Params, workers, tokens int) *Output {
	out := &Output{}
	next := c.Root.Iterator()
	pipeline.RunTBB(
		func() any {
			id, ok := next()
			if !ok {
				return nil
			}
			return c.LoadImage(id)
		},
		[]pipeline.Filter{
			{Name: "seg", Mode: pipeline.Parallel, Fn: func(d any) any {
				return Segment(d.(*Image), p.Clusters)
			}},
			{Name: "extract", Mode: pipeline.Parallel, Fn: func(d any) any {
				return Extract(d.(*Segmented))
			}},
			{Name: "vect", Mode: pipeline.Parallel, Fn: func(d any) any {
				return Vectorize(d.(*SegFeatures), p.VectIters)
			}},
			{Name: "rank", Mode: pipeline.Parallel, Fn: func(d any) any {
				return Rank(d.(*Signature), c.DB, p.TopK)
			}},
			{Name: "out", Mode: pipeline.SerialInOrder, Fn: func(d any) any {
				out.add(d.(*Result))
				return d
			}},
		},
		workers, tokens,
	)
	return out
}

// RunObjects is the plain task-dataflow version. As in the paper's
// "objects" experiment the input stage is *not* restructured: the
// traversal runs to completion before processing tasks are spawned, so
// input time is not overlapped — the scalability handicap Figure 8
// shows.
func RunObjects(rt *swan.Runtime, c *Corpus, p Params) *Output {
	out := &Output{}
	rt.Run(func(f *swan.Frame) {
		var images []*Image
		c.Root.Walk(func(id int) { images = append(images, c.LoadImage(id)) }) // serial input
		sink := swan.NewVersioned(&Output{})
		for _, img := range images {
			img := img
			res := swan.NewVersioned[*Result](nil)
			f.Spawn(func(g *swan.Frame) {
				res.Set(g, Process(img, p, c.DB))
			}, swan.Out(res))
			f.Spawn(func(g *swan.Frame) {
				sink.Get(g).add(res.Get(g))
			}, swan.In(res), swan.InOut(sink))
		}
		f.Sync()
		out = sink.Get(f)
	})
	return out
}

// dispatchBatch is how many queued images RunHyperqueue's dispatch stage
// gathers per batched spawn wave. Result order is batch-size independent.
const dispatchBatch = 8

// RunHyperqueue is the paper's version: a hyperqueue between Input and
// Segmentation lets the unrestructured recursive traversal overlap the
// rest of the pipeline, and a second hyperqueue between Ranking and
// Output feeds one coarse output task that iterates over all queue
// elements (§6.1). Every stage loop runs on a bound handle, and both
// queues are recycled once drained, so a reused runtime (paperbench
// repetitions) starts its next run on warm segments.
func RunHyperqueue(rt *swan.Runtime, c *Corpus, p Params, segCap int) *Output {
	out := &Output{}
	rt.Run(func(f *swan.Frame) {
		outQ := swan.NewQueueWithCapacity[*Result](f, segCap)
		f.Spawn(func(mid *swan.Frame) {
			imgQ := swan.NewQueueWithCapacity[*Image](mid, segCap)
			mid.Spawn(func(g *swan.Frame) { // Input: natural recursion
				pw := imgQ.BindPush(g)
				c.Root.Walk(func(id int) { pw.Push(c.LoadImage(id)) })
			}, swan.Push(imgQ))
			mid.Spawn(func(g *swan.Frame) { // dispatch middle stages
				// Batched fan-out: take the head image (blocking — Empty
				// has settled that one exists), opportunistically gather
				// up to dispatchBatch-1 more that are already queued, and
				// publish the whole wave of Process tasks with one
				// batched spawn. Result order is unchanged: SpawnN
				// prepares the outQ push privileges in index order.
				pp := imgQ.BindPop(g)
				for !pp.Empty() {
					batch := make([]*Image, 1, dispatchBatch)
					batch[0] = pp.Pop()
					for len(batch) < dispatchBatch {
						img, ok := pp.TryPop()
						if !ok {
							break
						}
						batch = append(batch, img)
					}
					g.SpawnN(len(batch), func(h *swan.Frame, i int) {
						outQ.Push(h, Process(batch[i], p, c.DB))
					}, swan.Push(outQ))
				}
			}, swan.Pop(imgQ), swan.Push(outQ))
			mid.Sync()
			if imgQ.CanRecycle(mid) {
				imgQ.Recycle(mid) // drained: return its segments to the pool
			}
		}, swan.Push(outQ))
		f.Spawn(func(g *swan.Frame) { // Output: one task iterating the queue
			pp := outQ.BindPop(g)
			for !pp.Empty() {
				out.add(pp.Pop())
			}
		}, swan.Pop(outQ))
		f.Sync()
		if outQ.CanRecycle(f) {
			outQ.Recycle(f)
		}
	})
	return out
}
