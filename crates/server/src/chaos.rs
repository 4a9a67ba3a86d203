//! Deterministic seeded fault injection for the service path.
//!
//! A [`ChaosConfig`] hung on [`ServerConfig::chaos`](crate::ServerConfig)
//! arms injection seams in the worker loop (`server.rs`) and the stream
//! writer (`transport.rs`). Every decision is a **stateless** draw keyed
//! by `(seed, site, coordinates)` through [`local_runtime::splitmix64`]
//! — never a shared RNG — so whether a given job panics or a given
//! frame is torn depends only on the seed and the job's identity, not
//! on thread interleaving. Replaying the same seed over the same
//! request stream reproduces the same fault schedule exactly, which is
//! what lets the conformance `service` group predict every surviving
//! reply byte for byte.
//!
//! The hook is a test/bench-only affordance: the default configuration
//! (`chaos: None`) compiles the seams down to a branch on `None`, and
//! `splitd` never exposes a flag for it.

use local_runtime::splitmix64;

/// Injection site: the worker panics before touching the job.
pub const SITE_WORKER_PANIC: u64 = 1;
/// Injection site: the worker stalls before solving (queue pressure).
pub const SITE_WORKER_STALL: u64 = 2;
/// Injection site: the stream writer truncates a reply frame mid-write
/// and fails the connection.
pub const SITE_TORN_FRAME: u64 = 3;
/// Injection site: the stream writer drops the connection before a
/// reply frame.
pub const SITE_DROP_CONNECTION: u64 = 4;
/// Injection site: the whole process "dies" (`kill -9` simulation) —
/// the worker halts the server after solving a job but **before** its
/// reply is delivered or its journal completion is recorded, the exact
/// window the recovery machinery must cover.
pub const SITE_PROCESS_KILL: u64 = 5;

/// A seeded fault-injection schedule. All probabilities are per-event
/// (per job for the worker sites, per reply frame for the stream
/// sites) and default to 0 — an all-zero config injects nothing.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; every injection decision is a pure function of this
    /// seed and the event's coordinates.
    pub seed: u64,
    /// Probability that a worker panics instead of solving a job
    /// (caught and reported as an `internal-panic` error frame).
    pub worker_panic: f64,
    /// Probability that a worker stalls for [`stall_ms`](Self::stall_ms)
    /// before solving a job (builds queue pressure and latency).
    pub worker_stall: f64,
    /// Stall duration, milliseconds.
    pub stall_ms: u64,
    /// Probability that the stream writer tears a reply frame — writes
    /// a prefix of its bytes, then fails the connection.
    pub torn_frame: f64,
    /// Probability that the stream writer drops the connection cleanly
    /// before writing a reply frame.
    pub drop_connection: f64,
    /// Probability (per job) that the process is "killed" after the
    /// solve but before reply delivery and the journal completion mark
    /// — the server [halts](crate::Server::halt) abruptly, simulating
    /// `kill -9` at the worst possible instant. Used by the conformance
    /// `service` group together with a journal.
    pub process_kill: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            worker_panic: 0.0,
            worker_stall: 0.0,
            stall_ms: 2,
            torn_frame: 0.0,
            drop_connection: 0.0,
            process_kill: 0.0,
        }
    }
}

impl ChaosConfig {
    /// A uniform draw in `[0, 1)` keyed by `(seed, site, a, b)` —
    /// deterministic and interleaving-independent.
    pub fn roll(&self, site: u64, a: u64, b: u64) -> f64 {
        let mixed = splitmix64(self.seed ^ splitmix64(site ^ splitmix64(a ^ splitmix64(b))));
        // top 53 bits → an exactly-representable dyadic in [0, 1)
        (mixed >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether the fault with probability `p` fires at `(site, a, b)`:
    /// the draw [`roll`](Self::roll) falls under `p`.
    pub fn fires(&self, p: f64, site: u64, a: u64, b: u64) -> bool {
        p > 0.0 && self.roll(site, a, b) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_site_separated() {
        let c = ChaosConfig {
            seed: 42,
            ..ChaosConfig::default()
        };
        let a = c.roll(SITE_WORKER_PANIC, 0, 7);
        assert_eq!(a, c.roll(SITE_WORKER_PANIC, 0, 7), "pure function");
        assert_ne!(
            a,
            c.roll(SITE_TORN_FRAME, 0, 7),
            "sites draw independent streams"
        );
        assert_ne!(
            a,
            ChaosConfig {
                seed: 43,
                ..ChaosConfig::default()
            }
            .roll(SITE_WORKER_PANIC, 0, 7),
            "seed changes the schedule"
        );
        for site in [SITE_WORKER_STALL, SITE_DROP_CONNECTION] {
            for b in 0..64 {
                let r = c.roll(site, 1, b);
                assert!((0.0..1.0).contains(&r));
            }
        }
    }

    #[test]
    fn probabilities_gate_the_fire_decision() {
        let c = ChaosConfig {
            seed: 9,
            worker_panic: 0.25,
            ..ChaosConfig::default()
        };
        assert!(!c.fires(0.0, SITE_WORKER_PANIC, 0, 0), "p = 0 never fires");
        assert!(c.fires(1.0, SITE_WORKER_PANIC, 0, 0), "p = 1 always fires");
        let hits = (0..1000)
            .filter(|&b| c.fires(c.worker_panic, SITE_WORKER_PANIC, 0, b))
            .count();
        assert!((150..350).contains(&hits), "~25% of 1000, got {hits}");
    }
}
