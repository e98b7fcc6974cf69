package main

// metricDef names one metric the benchmark emits. The end-to-end catalog is
// what an untraced run prints; the per-layer catalog is what a traced run
// prints. BENCHMARK.json at the repository root lists the same names (the
// package test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric it should
	// move and on which workload: the layer map a regression is traced with.
	moves string
}

// endToEnd is what a user of the serving stack sees, gated by its bound.
// Every workload emits every name. TTFT is timed in the open loop from the
// due time to the first output: a stream's first token, otherwise the whole
// response. ITL is the time per token: the gap between a stream's
// consecutive tokens while every caller has a stream outstanding, otherwise
// a request's open-loop latency over the tokens it carried (sequence tokens,
// tree leaves, MLP rows); itlEvents says why. Runs also print, without
// gating them, the open-loop latency p50/p90/p99, TTFT and ITL p90/p99, and
// the ITL of the other phase: over ten seeds on a shared 2-vCPU host their
// spread reached 0.19-0.51 of the median on some workload, near or beyond
// the widest bound allowed (0.25).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ttft_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "itl_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "tokens_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "peak_mem_mb", unit: "MB", better: "lower", bound: 0.2},
}

// perLayer is what a traced run emits, by this repository's module names.
// Counts (unit "count") repeat exactly across runs with one seed; times do
// not.
var perLayer = []metricDef{
	// compiler: nimble.Compile and Program.Stats, summed over the
	// workload's models.
	{name: "compiler.compile_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "compiler.instructions", unit: "count", better: "lower", moves: "ttft_p50_ms on dynamic-mix"},
	{name: "compiler.kernels", unit: "count", better: "lower", moves: "ttft_p50_ms on dynamic-mix"},
	{name: "compiler.fused_ops", unit: "count", better: "higher", moves: "ttft_p50_ms on dynamic-mix"},
	{name: "compiler.storages_after", unit: "count", better: "lower", moves: "peak_mem_mb on dynamic-mix"},

	// vm: Session calls at idle with one caller over the seeded ladder
	// sample, and a profiled VM over the same sample.
	{name: "vm.invoke_us", unit: "us", better: "lower", moves: "ttft_p50_ms and throughput_rps on dynamic-mix"},
	{name: "vm.step_us", unit: "us", better: "lower", moves: "itl_p50_us and tokens_per_s on decode-stream"},
	{name: "vm.instructions_per_request", unit: "count", better: "lower", moves: "ttft_p50_ms on dynamic-mix, itl_p50_us on decode-stream"},
	{name: "vm.pool_reuse_ratio", unit: "ratio", better: "higher", moves: "ttft_p50_ms and peak_mem_mb on dynamic-mix"},
	{name: "vm.heap_allocs_per_request", unit: "count", better: "lower", moves: "ttft_p50_ms on every workload"},

	// kernels: from the profile; FLOPs are computed from tensor sizes.
	{name: "kernels.time_share", unit: "ratio", better: "higher", moves: "ttft_p50_ms on dynamic-mix, itl_p50_us on decode-stream"},
	{name: "kernels.calls_per_request", unit: "count", better: "lower", moves: "ttft_p50_ms on dynamic-mix"},
	{name: "kernels.top1_us", unit: "us", better: "lower", moves: "itl_p50_us on decode-stream, ttft_p50_ms on dynamic-mix"},
	{name: "kernels.top2_us", unit: "us", better: "lower", moves: "itl_p50_us on decode-stream, ttft_p50_ms on dynamic-mix"},
	{name: "kernels.top3_us", unit: "us", better: "lower", moves: "itl_p50_us on decode-stream, ttft_p50_ms on dynamic-mix"},
	{name: "kernels.mflop_per_request", unit: "MFLOP", better: "lower", moves: "throughput_rps on dynamic-mix"},
	{name: "kernels.gflops", unit: "GFLOP/s", better: "higher", moves: "throughput_rps on dynamic-mix"},

	// serve: Service calls at idle, and Service.Stats deltas over the
	// loaded run.
	{name: "serve.invoke_overhead_us", unit: "us", better: "lower", moves: "ttft_p50_ms on mlp-http, ttft_p50_ms on decode-stream"},
	{name: "serve.pool_wait_us", unit: "us", better: "lower", moves: "ttft_p50_ms on dynamic-mix"},
	{name: "serve.batch_size_mean", unit: "count", better: "higher", moves: "throughput_rps on mlp-http"},
	{name: "serve.shed", unit: "count", better: "lower", moves: "the failure share on every workload"},
	{name: "serve.sched_occupancy_mean", unit: "count", better: "higher", moves: "tokens_per_s on decode-stream"},
	{name: "serve.step_ewma_us", unit: "us", better: "lower", moves: "tokens_per_s and itl_p50_us on decode-stream"},

	// registry: Registry calls at idle against Service calls.
	{name: "registry.invoke_overhead_us", unit: "us", better: "lower", moves: "ttft_p50_ms on mlp-http"},
	{name: "registry.heap_allocs_per_request", unit: "count", better: "lower", moves: "ttft_p50_ms on mlp-http"},
	{name: "registry.shared_pool_hit_ratio", unit: "ratio", better: "higher", moves: "peak_mem_mb on dynamic-mix"},

	// nimble-serve: HTTP/JSON against in-process Registry calls on the MLP
	// probe, and idle hot-swap deploys.
	{name: "nimble-serve.invoke_overhead_us", unit: "us", better: "lower", moves: "ttft_p50_ms on mlp-http"},
	{name: "nimble-serve.invoke_overhead_256rows_us", unit: "us", better: "lower", moves: "ttft_p50_ms on mlp-http"},
	{name: "nimble-serve.bytes_per_request", unit: "count", better: "lower", moves: "ttft_p50_ms on mlp-http"},
	{name: "nimble-serve.deploy_ms", unit: "ms", better: "lower", moves: "ttft_p50_ms on mlp-http"},

	// trace: the loaded run with generator spans against the same run
	// without them.
	{name: "trace.latency_p50_ms", unit: "ms", better: "lower", moves: "tracing cost: compare with the latency p50 an untraced run prints"},
	{name: "trace.overhead_pct", unit: "%", better: "lower", moves: "tracing cost: traced over untraced latency p50, same run"},
}
