//! Seeded failure replay: every failed check prints a one-line repro that
//! re-runs exactly its (scenario, group) cell through the `replay`
//! integration test, and the full failure set is written to a ledger file
//! CI uploads as an artifact.

use crate::harness::{run_cell, CellReport, ConformanceReport, Finding, Group};
use crate::scenario::{corpus, Tier};
use std::io::Write;
use std::path::Path;

/// Environment variable the replay test reads its selector from.
pub const REPLAY_ENV: &str = "CONFORMANCE_REPLAY";

/// A parsed `scenario:group` selector (group optional — all groups when
/// omitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selector {
    /// Scenario name, exactly as printed in the ledger.
    pub scenario: String,
    /// Optional group restriction.
    pub group: Option<Group>,
}

impl Selector {
    /// Parses `scenario[:group]`. Scenario names contain `/` and `#` but
    /// never `:`, so the split is unambiguous.
    pub fn parse(raw: &str) -> Option<Selector> {
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        match raw.rsplit_once(':') {
            Some((scenario, group)) => Group::parse(group).map(|g| Selector {
                scenario: scenario.to_string(),
                group: Some(g),
            }),
            None => Some(Selector {
                scenario: raw.to_string(),
                group: None,
            }),
        }
    }
}

/// The one-line repro for a failure: paste-able into a shell.
pub fn repro_line(f: &Finding) -> String {
    format!(
        "FAIL {}:{} check={} detail={} | repro: {}='{}:{}' cargo test -p conformance --test replay -- --nocapture",
        f.scenario,
        f.group.name(),
        f.check,
        f.detail,
        REPLAY_ENV,
        f.scenario,
        f.group.name()
    )
}

/// Replays one selector against a tier's corpus (the scenario is rebuilt
/// from its registry seed, which is what makes the repro line sufficient).
/// Returns the replayed cells, or `None` if the scenario is not in the
/// tier's corpus.
pub fn replay(tier: Tier, sel: &Selector) -> Option<Vec<CellReport>> {
    let scenarios = corpus(tier);
    let s = scenarios.iter().find(|s| s.name == sel.scenario)?;
    let groups: Vec<Group> = match sel.group {
        Some(g) => vec![g],
        None => Group::ALL.to_vec(),
    };
    Some(groups.into_iter().map(|g| run_cell(s, g)).collect())
}

/// Writes the failure ledger: one repro line per failure, or a green
/// summary line when the run passed.
///
/// # Errors
///
/// Propagates I/O errors from creating or writing the file.
pub fn write_ledger(path: &Path, report: &ConformanceReport) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let failures = report.failures();
    if failures.is_empty() {
        writeln!(
            f,
            "GREEN {} scenarios, {} checks, 0 failures",
            report.scenarios.len(),
            report.total_checks()
        )?;
    } else {
        for finding in failures {
            writeln!(f, "{}", repro_line(finding))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_roundtrip() {
        let sel = Selector::parse("biregular/100x100d20#1:theorems").unwrap();
        assert_eq!(sel.scenario, "biregular/100x100d20#1");
        assert_eq!(sel.group, Some(Group::Theorems));
        let bare = Selector::parse("biregular/100x100d20#1").unwrap();
        assert_eq!(bare.group, None);
        assert!(Selector::parse("").is_none());
        assert!(Selector::parse("x:nonsense-group").is_none());
    }

    #[test]
    fn service_selector_parses_and_the_merged_groups_do_not() {
        let sel = Selector::parse("biregular/100x100d20#1:service").unwrap();
        assert_eq!(sel.group, Some(Group::Service));
        // chaos, recovery, churn and store were merged into service;
        // their names select nothing, so a stale selector fails loudly
        for merged in ["chaos", "recovery", "churn", "store"] {
            assert_eq!(Group::parse(merged), None);
            assert!(Selector::parse(&format!("biregular/100x100d20#1:{merged}")).is_none());
        }
    }

    #[test]
    fn replay_finds_registered_scenarios() {
        let sel = Selector::parse("torus-incidence/6x6#1:solver").unwrap();
        let cells = replay(Tier::Quick, &sel).expect("scenario registered");
        assert_eq!(cells.len(), 1);
        assert!(cells[0].checks > 0);
        assert!(replay(Tier::Quick, &Selector::parse("no/such#9").unwrap()).is_none());
    }

    #[test]
    fn repro_line_mentions_env_and_selector() {
        let f = Finding {
            scenario: "fam/x#1".into(),
            family: "fam",
            seed: 1,
            group: Group::Solver,
            check: "solver.output-valid",
            detail: "boom".into(),
        };
        let line = repro_line(&f);
        assert!(line.contains("CONFORMANCE_REPLAY='fam/x#1:solver'"));
        assert!(line.contains("solver.output-valid"));
    }
}
