package main

// metric describes one reported metric. For a per-layer metric, moves
// names the end-to-end metric it should move and on names the
// workloads it should move it on; on the remaining workloads the
// prediction is no change. BENCHMARK.json lists the same names, units
// and directions (TestBenchmarkJSONMatchesTables checks it).
type metric struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
	Moves, On          string  // per-layer only
}

// endToEnd are the metrics a user of the runtime sees, from untraced
// runs. Every workload reports all of them.
var endToEnd = []metric{
	// items moved / time spent in timed repetitions; dedup: input
	// bytes, finegrain: elements, stream: events in the closed-loop
	// phase
	{Name: "items_per_s", Unit: "items/s", Better: "higher", Bound: 0.2},
	// stream: median over 25 000-event slices (about 50 ms of
	// open-loop arrivals) of the slice's p50 of completion time minus
	// intended arrival time; dedup, finegrain (batch jobs): median time
	// from input to complete result of a repetition
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	// stream: median over the same slices of the slice's p99 (an event
	// over the 250 ms limit counts as failed); dedup, finegrain: 0.99
	// quantile of repetition times
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	// median over timed repetitions, each started after a forced GC, of
	// the peak of /memory/classes/heap/objects:bytes sampled every 2 ms;
	// stream: the larger of the open- and closed-loop medians
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.2},
	// median of 3 set-ups: input generation + runtime construction + one
	// warm-up repetition
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, from traced runs. Counts
// are per traced repetition (a stream repetition is one open-loop
// window); a metric that does not apply to a workload reads 0.
var perLayer = []metric{
	// swan.Stats Spawns delta
	{Name: "sched.spawns", Unit: "count/rep", Better: "lower", Moves: "items_per_s", On: "finegrain"},
	// swan.Stats Steals delta
	{Name: "sched.steals", Unit: "count/rep", Better: "lower", Moves: "items_per_s", On: "finegrain"},
	// StolenTasks / Steals
	{Name: "sched.stolen_per_steal", Unit: "ratio", Better: "higher", Moves: "items_per_s", On: "finegrain"},
	// swan.Stats Parks delta
	{Name: "sched.parks", Unit: "count/rep", Better: "lower", Moves: "latency_p50_ms", On: "stream"},
	// swan.Stats Blocks delta
	{Name: "sched.blocks", Unit: "count/rep", Better: "lower", Moves: "latency_p50_ms", On: "stream"},
	// mean span around Frame.Spawn in the producer tree
	{Name: "sched.spawn_ns", Unit: "ns", Better: "lower", Moves: "items_per_s", On: "finegrain"},
	// self time of spans around Frame.Sync in the producer tree
	// (children run inline excluded)
	{Name: "sched.sync_wait_ms", Unit: "ms/rep", Better: "lower", Moves: "items_per_s", On: "finegrain"},
	// leaf push-loop span time per element
	{Name: "core.push_ns", Unit: "ns", Better: "lower", Moves: "items_per_s", On: "finegrain"},
	// consumer span time, less its estimated Empty waits, per element
	{Name: "core.pop_ns", Unit: "ns", Better: "lower", Moves: "items_per_s", On: "finegrain"},
	// time the consumer waited in Empty, estimated from spans around a
	// random 1/64 sample of its Empty calls
	{Name: "core.consumer_wait_ms", Unit: "ms/rep", Better: "lower", Moves: "items_per_s", On: "finegrain"},
	// swan.Stats SegmentAllocs delta (segment pool misses)
	{Name: "core.segment_allocs", Unit: "count/rep", Better: "lower", Moves: "items_per_s,peak_heap_mb", On: "dedup,finegrain"},
	// swan.Stats RecycledQueues delta
	{Name: "core.recycled_queues", Unit: "count/rep", Better: "higher", Moves: "items_per_s,peak_heap_mb", On: "dedup,finegrain"},
	// swan.Stats PooledSegments after the last traced repetition
	{Name: "core.pooled_segments", Unit: "count", Better: "lower", Moves: "items_per_s,peak_heap_mb", On: "dedup,finegrain"},
	// ProducerBlocks delta over bounded queues
	{Name: "flow.producer_blocks", Unit: "count/rep", Better: "lower", Moves: "items_per_s,latency_p99_ms", On: "finegrain,stream"},
	// ConsumerBlocks delta over bounded queues
	{Name: "flow.consumer_blocks", Unit: "count/rep", Better: "lower", Moves: "items_per_s,latency_p99_ms", On: "finegrain,stream"},
	// largest HighWater of a bounded queue
	{Name: "flow.high_water", Unit: "items", Better: "lower", Moves: "items_per_s,latency_p99_ms", On: "finegrain,stream"},
	// largest HighWater of a per-shard queue (sensor.sharded.shard*)
	{Name: "shard.high_water_max", Unit: "items", Better: "lower", Moves: "latency_p99_ms,items_per_s", On: "stream"},
	// max / min values pushed per shard ingress queue
	{Name: "shard.push_skew", Unit: "ratio", Better: "lower", Moves: "latency_p99_ms,items_per_s", On: "stream"},
	// HyperobjectStats Views delta of named reducers
	{Name: "hyper.views", Unit: "count/rep", Better: "lower", Moves: "items_per_s", On: "finegrain,stream"},
	// HyperobjectStats Merges delta of named reducers
	{Name: "hyper.merges", Unit: "count/rep", Better: "lower", Moves: "items_per_s", On: "finegrain,stream"},
	// median dedup.RunSerial time, warm, interleaved with the parallel
	// repetitions
	{Name: "dedup.serial_s", Unit: "s", Better: "lower", Moves: "items_per_s", On: "dedup"},
	// dedup.CharacterizeStages Fragment time
	{Name: "dedup.stage_fragment_s", Unit: "s", Better: "lower", Moves: "items_per_s", On: "dedup"},
	// dedup.CharacterizeStages FragmentRefine time
	{Name: "dedup.stage_refine_s", Unit: "s", Better: "lower", Moves: "items_per_s", On: "dedup"},
	// dedup.CharacterizeStages Deduplicate time
	{Name: "dedup.stage_dedup_s", Unit: "s", Better: "lower", Moves: "items_per_s", On: "dedup"},
	// dedup.CharacterizeStages Compress time
	{Name: "dedup.stage_compress_s", Unit: "s", Better: "lower", Moves: "items_per_s", On: "dedup"},
	// dedup.CharacterizeStages Output time
	{Name: "dedup.stage_output_s", Unit: "s", Better: "lower", Moves: "items_per_s", On: "dedup"},
	// /gc/heap/allocs:objects delta per item
	{Name: "go.allocs_per_item", Unit: "1/item", Better: "lower", Moves: "items_per_s,peak_heap_mb", On: "finegrain,dedup"},
	// /gc/heap/allocs:bytes delta per item
	{Name: "go.alloc_bytes_per_item", Unit: "B/item", Better: "lower", Moves: "items_per_s,peak_heap_mb", On: "finegrain,dedup"},
	// /gc/cycles/total:gc-cycles delta
	{Name: "go.gc_cycles", Unit: "count/rep", Better: "lower", Moves: "items_per_s,peak_heap_mb", On: "finegrain,dedup"},
	// /cpu/classes/gc/total over /cpu/classes/total deltas
	{Name: "go.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "items_per_s", On: "finegrain,dedup"},
	// p99 of the /sched/latencies:seconds histogram delta (goroutine
	// runnable-to-running)
	{Name: "go.sched_latency_p99_us", Unit: "us", Better: "lower", Moves: "latency_p99_ms", On: "stream"},
	// median over windows of the p99 of release time minus intended
	// arrival time (never negative)
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower", Moves: "none: validity of stream latencies", On: "stream"},
	// events released by the generator per second of open-loop time
	{Name: "loadgen.offered", Unit: "events/s", Better: "higher", Moves: "none: validity of stream latencies", On: "stream"},
	// 1 - traced / untraced items_per_s, alternating repetitions in one
	// run
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none: must stay small", On: "dedup,finegrain,stream"},
	// failed / attempted: output differing from the serial elision
	// (whole repetition), not completed, over the latency limit,
	// canceled or panicked
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Moves: "none: must stay 0", On: "dedup,finegrain,stream"},
}
