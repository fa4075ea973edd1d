//! Run outcome: the correctness verdict, the metrics, the human-readable
//! report lines, and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{per_layer, Layers, Opts, Workload, END_TO_END};

/// FNV-1a over a stream of `u64` words and byte strings: the digest the
/// correctness checks pin for the default seed.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mix in one word.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of a list of words.
pub fn fnv1a(words: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &w in words {
        h.word(w);
    }
    h.finish()
}

/// Peak resident set of this process in MiB (`VmHWM`), with its full
/// kilobyte resolution; 0 where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Outcome {
    workload: Workload,
    trace: bool,
    expect: Option<u64>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Every check that failed, in words.
    pub problems: Vec<String>,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: Layers,
}

impl Outcome {
    /// An empty outcome for `opts`; the digest expected is the recorded
    /// one for the default seed unless `opts.expect` overrides it.
    pub fn new(opts: &Opts) -> Outcome {
        Outcome {
            workload: opts.workload,
            trace: opts.trace,
            expect: opts
                .expect
                .or_else(|| crate::recorded_digest(opts.workload, opts.size, opts.seed)),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            lines: Vec::new(),
            e2e: BTreeMap::new(),
            layers: Layers::new(),
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Count one checked operation; `problem` is `Some` when it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.fail(p);
        }
    }

    /// Record a failed run-level check (it fails the run without being
    /// one of the attempted operations).
    pub fn fail(&mut self, problem: String) {
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Compare a unit's output digest with the recorded one (if this
    /// seed and size have one). A mismatch counts as a failed operation.
    pub fn check_digest(&mut self, digest: u64) {
        let line = match self.expect {
            Some(want) if want != digest => {
                self.failed += 1;
                self.fail(format!(
                    "output digest {digest:016x} differs from the recorded {want:016x}"
                ));
                format!("digest {digest:016x}: MISMATCH (recorded {want:016x})")
            }
            Some(_) => format!("digest {digest:016x}: matches the recorded value"),
            None => format!("digest {digest:016x}: no recorded value for this seed and size"),
        };
        self.say(line);
    }

    /// Add a human-readable report line.
    pub fn say(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Print a named metric with its unit in the report, and sample
    /// count where it is a statistic over samples.
    pub fn show(&mut self, name: &str, value: f64, unit: &str, samples: Option<usize>) {
        let n = samples.map_or(String::new(), |n| format!(" (n={n})"));
        self.say(format!("  {name:<34} {value:>16.6} {unit}{n}"));
    }

    /// Set an end-to-end metric.
    pub fn put_e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    /// Set the per-layer metrics a workload measured.
    pub fn put_layers(&mut self, layers: Layers) {
        self.layers.extend(layers);
    }

    /// The metrics this run reports, `(name, value, unit)` in report
    /// order: every end-to-end metric, or every per-layer metric for a
    /// traced run.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        if self.trace {
            per_layer()
                .into_iter()
                .map(|(name, unit)| {
                    let v = self.layers.get(&name).copied().unwrap_or(0.0);
                    (name, v, unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let v = self.e2e.get(name).copied().unwrap_or(0.0);
                    (name.to_string(), v, unit)
                })
                .collect()
        }
    }

    /// The human-readable report: manifest-independent lines, the
    /// metrics table and the verdict.
    pub fn render_report(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {} ({}) ==",
            self.workload.name(),
            if self.trace { "traced" } else { "untraced" }
        );
        for l in &self.lines {
            let _ = writeln!(s, "{l}");
        }
        let _ = writeln!(
            s,
            "{} metrics:",
            if self.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
        for (name, v, unit) in self.metrics() {
            let _ = writeln!(s, "  {name:<34} {v:>16.6} {unit}");
        }
        let _ = writeln!(
            s,
            "verdict: {} ({} attempted, {} failed)",
            if self.correct() {
                "CORRECT"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed
        );
        for p in &self.problems {
            let _ = writeln!(s, "  problem: {p}");
        }
        s
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// every reported metric with its unit. Values keep every digit;
    /// a non-finite value is written as 0 and fails the run.
    pub fn render_result(&mut self) -> String {
        let metrics = self.metrics();
        for (name, v, _) in &metrics {
            if !v.is_finite() {
                self.fail(format!("metric {name} is not finite"));
            }
        }
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, v, unit)) in metrics.iter().enumerate() {
            let v = if v.is_finite() { *v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite float as a JSON number with every digit Rust's shortest
/// round-trip form gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_numbers_keep_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        assert_eq!(json_number(3e-9), "0.000000003");
    }

    #[test]
    fn fnv_words_match_bytes() {
        let mut a = Fnv::default();
        a.word(7);
        let mut b = Fnv::default();
        b.bytes(&7u64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
        assert_ne!(fnv1a(&[1, 2]), fnv1a(&[2, 1]));
    }
}
