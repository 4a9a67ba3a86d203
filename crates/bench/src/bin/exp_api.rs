//! Experiment `api` — batch throughput of the unified request/solution
//! layer versus sequential single-call dispatch and the direct
//! entrypoint calls. `--quick` shrinks the batches; `--json <path>`
//! additionally emits the machine-readable `BENCH_api.json` report.
fn main() {
    splitting_bench::bench_main("api", splitting_bench::run_api_perf);
}
