//! Conformance runner: drives the scenario corpus over every entrypoint
//! group, prints the family × group matrix, and writes the failure-replay
//! ledger. Exits non-zero when any check fails.
//!
//! Usage: `conformance [--quick | --full] [--group NAME ...] [--ledger PATH]`
//!
//! `--group` (repeatable) restricts the run to selected entrypoint
//! groups — e.g. `--group service` for the CI sweep of the stateful
//! service group, which additionally reseeds its operation sequence via
//! `CONFORMANCE_SERVICE_SEED`.

use conformance::{render_matrix, repro_line, run_corpus_groups, write_ledger, Group, Tier};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tier = if args.iter().any(|a| a == "--full") {
        Tier::Full
    } else {
        Tier::Quick
    };
    let ledger_path: PathBuf = args
        .iter()
        .position(|a| a == "--ledger")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("conformance-ledger.txt"));
    let mut groups: Vec<Group> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg != "--group" {
            continue;
        }
        match args.get(i + 1).map(|name| (name, Group::parse(name))) {
            Some((_, Some(g))) => {
                if !groups.contains(&g) {
                    groups.push(g);
                }
            }
            Some((name, None)) => {
                eprintln!(
                    "conformance: unknown group {name:?} (expected one of: {})",
                    Group::ALL.map(Group::name).join(", ")
                );
                return ExitCode::from(2);
            }
            None => {
                eprintln!("conformance: --group needs a name");
                return ExitCode::from(2);
            }
        }
    }
    if groups.is_empty() {
        groups.extend(Group::ALL);
    }

    let label = match tier {
        Tier::Quick => "quick",
        Tier::Full => "full",
    };
    eprintln!(
        "conformance: running the {label} tier ({} groups)…",
        groups.len()
    );
    let start = std::time::Instant::now();
    let report = run_corpus_groups(tier, &groups);
    let elapsed = start.elapsed();

    print!("{}", render_matrix(&report));
    println!(
        "\n{} scenarios × {} groups, {} checks in {elapsed:.1?}",
        report.scenarios.len(),
        groups.len(),
        report.total_checks(),
    );

    if let Err(err) = write_ledger(&ledger_path, &report) {
        eprintln!(
            "conformance: could not write ledger {}: {err}",
            ledger_path.display()
        );
        return ExitCode::from(2);
    }

    let failures = report.failures();
    if failures.is_empty() {
        println!("conformance: GREEN (ledger at {})", ledger_path.display());
        ExitCode::SUCCESS
    } else {
        println!("conformance: {} FAILURES", failures.len());
        for f in &failures {
            println!("{}", repro_line(f));
        }
        println!("ledger written to {}", ledger_path.display());
        ExitCode::FAILURE
    }
}
