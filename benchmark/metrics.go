package main

// The benchmark's metric and workload tables. BENCHMARK.json at the root of
// the repository states the same names, units, directions and bounds for the
// driver; a test compares the two.

// metrics holds measured values by metric name.
type metrics map[string]float64

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const lower, higher = "lower", "higher"

// endToEnd are the metrics a user of the system sees. Bound is the share of
// the parent's median by which a change may worsen the metric. The driver
// accepts a bound only if ten runs on ten seeds spread by less than it, so
// the bounds are those of ISSUE.md where the reference box allows and wider
// where it does not: its speed drifts by 10–15 % from one minute to the next
// whatever a run does (README.md, "What the numbers are worth"), and
// simulated seconds, exact for one seed, vary by 0.3 % from seed to seed.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "ops/s", higher, 0.25},
	{"op_p50_us", "us", lower, 0.25},
	{"op_tail_us", "us", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.01},
	{"alloc_bytes_per_op", "B", lower, 0.02},
	{"live_heap_mb", "MiB", lower, 0.05},
	{"sim_s_per_kop", "s", lower, 0.01},
}

// perLayer are the metrics of single layers, prefixed with the layer's
// package. A workload that does not cross a layer reports 0 for it.
var perLayer = []metricDef{
	// Per-class medians of the traced pass, and read-hot's time shares.
	{"gomdb.fwd_p50_ns", "ns", lower, 0},
	{"gomdb.getattr_p50_ns", "ns", lower, 0},
	{"gomdb.backward_p50_us", "us", lower, 0},
	{"gomdb.query_p50_us", "us", lower, 0},
	{"gomdb.retrieve_p50_us", "us", lower, 0},
	{"gomdb.fwd_time_share", "share", lower, 0},
	{"gomdb.getattr_time_share", "share", lower, 0},
	{"gomdb.backward_time_share", "share", lower, 0},
	{"gomdb.query_time_share", "share", lower, 0},
	{"gomdb.retrieve_time_share", "share", lower, 0},
	{"gomdb.move_p50_us", "us", lower, 0},
	{"gomdb.scale_p50_us", "us", lower, 0},
	{"gomdb.lazy_fwd_p50_us", "us", lower, 0},
	{"gomdb.batch_op_ms", "ms", lower, 0},
	{"client.call_rtt_us", "us", lower, 0},
	{"client.getattr_rtt_us", "us", lower, 0},
	{"client.set_rtt_us", "us", lower, 0},
	// The embedded ladder.
	{"gomdb.call_self_ns", "ns", lower, 0},
	{"schema.invoke_self_ns", "ns", lower, 0},
	{"core.forward_ns", "ns", lower, 0},
	{"object.get_ns", "ns", lower, 0},
	{"storage.pin_unpin_ns", "ns", lower, 0},
	{"lang.eval_volume_us", "us", lower, 0},
	{"object.put_us", "us", lower, 0},
	{"core.backward_us", "us", lower, 0},
	{"core.retrieve_us", "us", lower, 0},
	{"query.parse_us", "us", lower, 0},
	{"query.exec_us", "us", lower, 0},
	{"core.update_overhead_us", "us", lower, 0},
	// Counters the layers already export, as deltas over the traced phase.
	{"core.forward_hit_ratio", "ratio", higher, 0},
	{"core.rrr_lookups_per_update", "count", lower, 0},
	{"core.invalidations_per_update", "count", lower, 0},
	{"core.remats_per_update", "count", lower, 0},
	{"core.coalesce_ratio", "ratio", higher, 0},
	{"core.flush_wall_ms_per_batch", "ms", lower, 0},
	{"core.flush_eval_ms_per_batch", "ms", lower, 0},
	{"core.deferred_forces_per_op", "count", lower, 0},
	{"storage.pool_hit_ratio", "ratio", higher, 0},
	{"storage.phys_reads_per_op", "count", lower, 0},
	{"storage.phys_writes_per_op", "count", lower, 0},
	{"storage.cpu_ops_per_op", "count", lower, 0},
	{"storage.heap_pages", "pages", lower, 0},
	{"storage.disk_write_bytes_per_op", "B", lower, 0},
	{"storage.write_syscalls_per_op", "count", lower, 0},
	// The durable path.
	{"gomdb.batch_tx_ms", "ms", lower, 0},
	{"gomdb.batch_self_ms", "ms", lower, 0},
	{"gomdb.readback_us", "us", lower, 0},
	{"gomdb.checkpoint_idle_ms", "ms", lower, 0},
	{"gomdb.reopen_ms", "ms", lower, 0},
	{"storage.checkpoint_1page_ms", "ms", lower, 0},
	{"storage.disk_file_mb", "MiB", lower, 0},
	// The served ladder.
	{"net.echo_rtt_us", "us", lower, 0},
	{"server.noop_rtt_us", "us", lower, 0},
	{"client.ping_rtt_us", "us", lower, 0},
	{"server.proto_self_us", "us", lower, 0},
	{"server.engine_self_us", "us", lower, 0},
	{"server.requests_per_op", "count", lower, 0},
	{"net.syscalls_per_op", "count", lower, 0},
	{"wire.req_encode_ns", "ns", lower, 0},
	{"wire.req_decode_ns", "ns", lower, 0},
	{"wire.resp_encode_ns", "ns", lower, 0},
	{"wire.resp_decode_ns", "ns", lower, 0},
	{"wire.frame_bytes_per_op", "B", lower, 0},
	{"wire.codec_allocs_per_op", "count", lower, 0},
	// The runtime and the host.
	{"runtime.gc_cycles_per_kop", "count", lower, 0},
	{"runtime.gc_pause_us_per_kop", "us", lower, 0},
	{"runtime.cpu_us_per_op", "us", lower, 0},
	{"runtime.mutex_wait_us_per_kop", "us", lower, 0},
	{"runtime.live_heap_growth_b_per_op", "B", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
	{"host.spin_ns", "ns", lower, 0},
	{"host.timer_ns", "ns", lower, 0},
	{"host.fsync_ms", "ms", lower, 0},
}

// workloadDef names a workload and sizes its stream. A phase is a fixed
// number of operations, never a duration: opsPerSecond operations for every
// second the caller asks for, where opsPerSecond is about what the reference
// box does, so that `-seconds 25` measures for about 25 s there. A faster
// program finishes the same operations sooner.
type workloadDef struct {
	Name         string `json:"name"`
	Why          string `json:"why"`
	opsPerSecond float64
	new          func() workload
}

var workloads = []workloadDef{
	{"read-hot", "embedded reads on a pool that holds the base: facade fast path, core lookup, btree and query do all the work; storage, wire and the WAL none",
		240000, func() workload { return &readHot{} }},
	{"update-cold", "the paper's regime, a 150-page pool under a larger base: RRR lookup, invalidation, immediate and lazy rematerialization down to buffer-pool misses",
		8000, func() workload { return &updateCold{} }},
	{"durable-batch", "durable batches with a flush, checkpoint and fsyncs each: the only workload where the page store, the directory export and the deferred drain carry the time",
		36, func() workload { return &durableBatch{} }},
	{"served-point", "one TCP client, single-round-trip ops: client, wire, server and loopback do most of the work here and none elsewhere; the served-versus-embedded gap is read from it",
		60000, func() workload { return &servedPoint{} }},
}

// runSeconds is the `run_seconds` of BENCHMARK.json and the default of
// -seconds. With set-up, warm-up and checks a run is about 33 s; the
// driver's 92 runs must fit in 57 minutes.
const runSeconds = 25
