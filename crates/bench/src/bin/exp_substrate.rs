//! Experiment `substrate` — microbench of the flat-memory graph core, the
//! broadcast-once executor, the symmetry-breaking colorings and the multigraph
//! splitting engines. `--quick` shrinks the instances; `--json <path>`
//! additionally emits the machine-readable `BENCH_substrate.json` report.
fn main() {
    splitting_bench::bench_main("substrate", splitting_bench::run_substrate_perf);
}
