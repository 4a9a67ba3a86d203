//! Experiment `server` — sustained-load throughput, latency percentiles,
//! and queue depth of the `splitd` job-queue service, on the same
//! zero-round workload as experiment `api` plus mixed priority traffic.
//! `--quick` shrinks the load; `--json <path>` additionally emits the
//! machine-readable `BENCH_server.json` report.
fn main() {
    splitting_bench::bench_main("server", splitting_bench::run_server_perf);
}
