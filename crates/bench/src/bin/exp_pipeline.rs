//! Experiment `pipeline` — the theorem pipelines (solver dispatch,
//! multicolor, uniform splitting), the derandomization engine and single
//! pipeline layers over repeated samples. `--quick` shrinks the
//! instances; `--json <path>` additionally emits the machine-readable
//! `BENCH_pipeline.json` report.
fn main() {
    splitting_bench::bench_main("pipeline", splitting_bench::run_pipeline_perf);
}
