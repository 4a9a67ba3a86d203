//! Experiment `churn` — incremental re-splitting of a held solution
//! under seeded edge-mutation streams versus re-solving the patched
//! instance from scratch, per churn style. `--quick` shrinks the
//! instance and stream; `--json <path>` additionally emits the
//! machine-readable `BENCH_churn.json` report.
fn main() {
    splitting_bench::bench_main("churn", splitting_bench::run_churn_perf);
}
