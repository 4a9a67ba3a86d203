//! Experiment `runtime` — see DESIGN.md §4 for the claim under test.
fn main() {
    let quick = splitting_bench::quick_flag();
    splitting_bench::run_experiment_main(splitting_bench::exp_runtime(quick));
}
