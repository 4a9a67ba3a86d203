//! The one record shape every `BENCH_*.json` report uses, and its one
//! writer (the container has no serde; the shape is small and flat
//! enough that manual formatting is clearer than a vendored dependency).
//!
//! A [`Record`] is one timed row: `{layer, name, params, samples_ns,
//! median_ns, p10_ns, p90_ns}`. `params` is a flat object of the row's
//! shape and counters; a ratio is never stored, it is two records'
//! medians.

use splitting_api::render::escape_into;
use std::time::Instant;

/// One flat `params` value.
#[derive(Debug, Clone, PartialEq)]
pub enum Param {
    /// A non-negative integer (sizes, counts).
    Int(u128),
    /// A finite float (ε, λ, fractions), written to four decimals.
    Float(f64),
    /// A label (dispatch, transport).
    Text(String),
}

macro_rules! int_param {
    ($($t:ty),*) => {$(
        impl From<$t> for Param {
            fn from(x: $t) -> Param {
                Param::Int(x as u128)
            }
        }
    )*};
}
int_param!(u32, u64, usize);

impl From<f64> for Param {
    fn from(x: f64) -> Param {
        Param::Float(x)
    }
}

impl From<&str> for Param {
    fn from(s: &str) -> Param {
        Param::Text(s.to_string())
    }
}

impl From<String> for Param {
    fn from(s: String) -> Param {
        Param::Text(s)
    }
}

impl std::fmt::Display for Param {
    /// The value as JSON text.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Param::Int(x) => write!(f, "{x}"),
            Param::Float(x) => {
                assert!(x.is_finite(), "params hold finite floats only");
                let fixed = format!("{x:.4}");
                write!(f, "{}", fixed.trim_end_matches('0').trim_end_matches('.'))
            }
            Param::Text(s) => f.write_str(&quote(s)),
        }
    }
}

/// Builds a record's `params` list: `params!["n" => n, "m" => m]`.
macro_rules! params {
    ($($k:literal => $v:expr),* $(,)?) => {
        vec![$(($k, $crate::json::Param::from($v))),*]
    };
}
pub(crate) use params;

/// One timed row of a bench report.
#[derive(Debug, Clone)]
pub struct Record {
    /// The timed layer, e.g. `core.drr1` or `server.wire`.
    pub layer: &'static str,
    /// Row name, unique per layer within a report.
    pub name: String,
    /// The row's shape and counters, in output order.
    pub params: Vec<(&'static str, Param)>,
    /// Wall time of every timed run, nanoseconds, in run order.
    pub samples_ns: Vec<u128>,
}

impl Record {
    /// A record over `samples_ns`, which must be non-empty.
    pub fn new(
        layer: &'static str,
        name: impl Into<String>,
        params: Vec<(&'static str, Param)>,
        samples_ns: Vec<u128>,
    ) -> Record {
        assert!(!samples_ns.is_empty(), "a record needs a sample");
        Record {
            layer,
            name: name.into(),
            params,
            samples_ns,
        }
    }

    /// The nearest-rank `q`-quantile of the samples.
    pub fn quantile_ns(&self, q: f64) -> u128 {
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        quantile(&sorted, q)
    }
}

/// The nearest-rank `q`-quantile of an ascending, non-empty sample.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Runs `f` `count` times, timing each run; returns the last run's
/// output and every wall time, nanoseconds, in run order. The previous
/// output is dropped before each run, so at most one is alive.
pub fn sample<T>(count: usize, mut f: impl FnMut() -> T) -> (T, Vec<u128>) {
    let mut samples_ns = Vec::with_capacity(count);
    let mut out = None;
    for _ in 0..count.max(1) {
        drop(out.take());
        let start = Instant::now();
        let value = f();
        samples_ns.push(start.elapsed().as_nanos());
        out = Some(value);
    }
    (out.expect("at least one run"), samples_ns)
}

/// `s` as a JSON string literal, quotes included.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Serializes a report as `{"bench", "mode", "host_parallelism",
/// "records"}`, one record per line.
pub fn write_report(
    bench: &str,
    mode: &str,
    host_parallelism: usize,
    records: &[Record],
) -> String {
    let mut out = format!(
        "{{\n  \"bench\": {},\n  \"mode\": {},\n  \"host_parallelism\": {host_parallelism},\n  \"records\": [",
        quote(bench),
        quote(mode)
    );
    for (i, r) in records.iter().enumerate() {
        let join = |items: Vec<String>| items.join(", ");
        out.push_str(&format!(
            "{}\n    {{\"layer\": {}, \"name\": {}, \"params\": {{{}}}, \"samples_ns\": [{}], \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}}}",
            if i > 0 { "," } else { "" },
            quote(r.layer),
            quote(&r.name),
            join(r.params.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect()),
            join(r.samples_ns.iter().map(u128::to_string).collect()),
            r.quantile_ns(0.5),
            r.quantile_ns(0.1),
            r.quantile_ns(0.9)
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Returns the path following a `--json` command-line flag, if present.
pub fn json_path_flag() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitting_server::json::{Cursor, Fields};

    #[test]
    fn quantiles_are_nearest_rank() {
        let r = Record::new("l", "r", Vec::new(), vec![50, 10, 40, 20, 30]);
        assert_eq!(r.quantile_ns(0.1), 10);
        assert_eq!(r.quantile_ns(0.5), 30);
        assert_eq!(r.quantile_ns(0.9), 50);
        assert_eq!(quantile(&[7u64], 0.99), 7);
    }

    #[test]
    fn floats_print_to_four_decimals() {
        assert_eq!(Param::from(1.0 / 3.0).to_string(), "0.3333");
        assert_eq!(Param::from(2977.0).to_string(), "2977");
        assert_eq!(Param::from(0.25).to_string(), "0.25");
    }

    #[test]
    fn report_reads_back_through_the_strict_codec() {
        let records = [
            Record::new(
                "core.drr1",
                "x\"y",
                params!["n" => 3usize, "eps" => 0.25, "dispatch" => "Theorem25"],
                vec![30, 10, 20],
            ),
            Record::new("api.solve", "empty", Vec::new(), vec![5]),
        ];
        let text = write_report("demo", "tiny", 2, &records);
        Cursor::new(&text).check().expect("strict JSON");

        let spans = Cursor::new(&text).object(|_, _| Ok(false)).unwrap();
        let envelope = Fields::new(&text, &spans);
        envelope
            .only(&["bench", "mode", "host_parallelism", "records"])
            .unwrap();
        assert_eq!(envelope.str("bench").unwrap().as_deref(), Some("demo"));
        assert_eq!(envelope.str("mode").unwrap().as_deref(), Some("tiny"));
        assert_eq!(envelope.usize("host_parallelism").unwrap(), Some(2));

        // one record per line of the records array
        let lines: Vec<&str> = envelope
            .raw("records")
            .unwrap()
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with('{'))
            .collect();
        assert_eq!(lines.len(), records.len());
        let first = lines[0];
        let spans = Cursor::new(first).object(|_, _| Ok(false)).unwrap();
        let record = Fields::new(first, &spans);
        record
            .only(&[
                "layer",
                "name",
                "params",
                "samples_ns",
                "median_ns",
                "p10_ns",
                "p90_ns",
            ])
            .unwrap();
        assert_eq!(record.str("layer").unwrap().as_deref(), Some("core.drr1"));
        assert_eq!(record.str("name").unwrap().as_deref(), Some("x\"y"));
        assert_eq!(record.raw("samples_ns"), Some("[30, 10, 20]"));
        assert_eq!(record.usize("median_ns").unwrap(), Some(20));
        assert_eq!(record.usize("p10_ns").unwrap(), Some(10));
        assert_eq!(record.usize("p90_ns").unwrap(), Some(30));
        let params_text = record.raw("params").unwrap();
        let spans = Cursor::new(params_text).object(|_, _| Ok(false)).unwrap();
        let params = Fields::new(params_text, &spans);
        assert_eq!(params.usize("n").unwrap(), Some(3));
        assert_eq!(params.number("eps").unwrap().unwrap().as_f64(), 0.25);
        assert_eq!(
            params.str("dispatch").unwrap().as_deref(),
            Some("Theorem25")
        );
    }
}
