//! # splitting-bench — experiment harness
//!
//! One module per experiment family of the reproduction's per-experiment
//! index (DESIGN.md §4); every public `exp_*` function returns printable
//! [`Table`]s with measured quantities next to the paper's predicted
//! bounds. Binaries under `src/bin/` wrap these functions; `run_all`
//! regenerates the entire EXPERIMENTS.md corpus.
//!
//! Five more binaries (`exp_substrate`, `exp_pipeline`, `exp_api`,
//! `exp_server`, `exp_churn`) time the library over repeated samples and
//! write the `BENCH_*.json` reports through [`bench_main`], in the one
//! [`Record`] shape.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod api_perf;
mod churn_perf;
mod exp_ablations;
mod exp_conformance;
mod exp_fig1;
mod exp_section2;
mod exp_section3;
mod exp_section4;
mod exp_section5;
mod exp_substrate;
mod json;
mod pipeline_perf;
mod server_perf;
mod substrate_perf;
mod table;

pub use api_perf::run_api_perf;
pub use churn_perf::run_churn_perf;
pub use exp_ablations::{exp_abl_engine, exp_abl_eps, exp_abl_shatter};
pub use exp_conformance::exp_conformance;
pub use exp_fig1::{exp_fig1, exp_thm210};
pub use exp_section2::{
    exp_lem21, exp_lem22, exp_lem24, exp_lem26, exp_lem29, exp_thm12, exp_thm25, exp_thm27,
};
pub use exp_section3::{exp_thm32, exp_thm33};
pub use exp_section4::{exp_lem41, exp_lem42};
pub use exp_section5::{exp_lem51, exp_thm52};
pub use exp_substrate::{exp_edge_split, exp_runtime};
pub use json::{Param, Record};
pub use pipeline_perf::run_pipeline_perf;
pub use server_perf::run_server_perf;
pub use substrate_perf::run_substrate_perf;
pub use table::{fnum, Table};

/// An experiment runner: takes the `quick` flag, returns result tables.
pub type ExperimentFn = fn(bool) -> Vec<Table>;

/// All experiments in index order, as `(id, runner)` pairs.
pub fn all_experiments() -> Vec<(&'static str, ExperimentFn)> {
    vec![
        ("fig1", exp_fig1 as ExperimentFn),
        ("lem21", exp_lem21),
        ("lem22", exp_lem22),
        ("lem24", exp_lem24),
        ("thm25", exp_thm25),
        ("lem26", exp_lem26),
        ("thm27", exp_thm27),
        ("lem29", exp_lem29),
        ("thm12", exp_thm12),
        ("thm210", exp_thm210),
        ("thm32", exp_thm32),
        ("thm33", exp_thm33),
        ("lem41", exp_lem41),
        ("lem42", exp_lem42),
        ("lem51", exp_lem51),
        ("thm52", exp_thm52),
        ("edge_split", exp_edge_split),
        ("runtime", exp_runtime),
        ("abl_eps", exp_abl_eps),
        ("abl_shatter", exp_abl_shatter),
        ("abl_engine", exp_abl_engine),
        ("conformance", exp_conformance),
    ]
}

/// Standard binary entry point: honors a `--quick` flag.
pub fn run_experiment_main(tables: Vec<Table>) {
    for t in tables {
        t.print();
    }
}

/// Entry point of the `BENCH_*.json` binaries: runs `run` (`--quick`
/// shrinks it), prints its records, and with `--json <path>` writes them
/// as the `bench` report.
pub fn bench_main(bench: &str, run: fn(bool) -> Vec<Record>) {
    let quick = quick_flag();
    let mode = if quick { "quick" } else { "full" };
    let records = run(quick);
    table::records_table(format!("{bench} ({mode})"), &records).print();
    if let Some(path) = json::json_path_flag() {
        let host_parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
        std::fs::write(
            &path,
            json::write_report(bench, mode, host_parallelism, &records),
        )
        .expect("write --json output");
        eprintln!("wrote {path}");
    }
}

/// Whether `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}
