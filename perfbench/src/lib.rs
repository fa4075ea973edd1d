//! The repository benchmark: three workloads that drive the S-NIC
//! reproduction's layers from outside, through their public functions.
//!
//! - `fig5-replay` ([`fig5`]): the quick-scale Figure 5a colocation
//!   sweep replayed from recorded traces across the `snic-sim` pool.
//! - `stream-colo` ([`colo`]): a 16-tenant streamed colocation whose
//!   events are regenerated on pull, commodity leg serial and S-NIC leg
//!   sharded.
//! - `serve-mixed` ([`serve`]): a seeded closed-loop request mix fed
//!   line by line to an in-process `snicd` daemon.
//!
//! A run repeats its workload's unit of work until `--seconds` of
//! measured time have passed, checks every unit's outputs, and reports
//! the end-to-end metrics ([`END_TO_END`]) or, in a traced run, the
//! per-layer metrics ([`per_layer`]). Every metric is printed for every
//! workload; a layer a workload never reaches reports 0.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod colo;
pub mod fig5;
pub mod manifest;
pub mod report;
pub mod serve;
pub mod timed;

use std::collections::BTreeMap;
use std::time::Instant;

use snic_bench::Scale;
use snic_nf::NfKind;

pub use report::{fnv1a, Outcome};

/// The seed whose outputs are pinned by recorded digests.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 5a colocation sweep over recorded traces.
    Fig5Replay,
    /// A 16-tenant streamed colocation, events regenerated on pull.
    StreamColo,
    /// A closed-loop request mix against an in-process daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Replay,
        Workload::StreamColo,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Replay => "fig5-replay",
            Workload::StreamColo => "stream-colo",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size of a run: `quick` is the benchmark, `tiny` is for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's input size.
    Quick,
    /// A seconds-long pass for tests.
    Tiny,
}

impl Size {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Quick => "quick",
            Size::Tiny => "tiny",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Size> {
        [Size::Quick, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }

    /// The NF workload scale this size records and streams at.
    pub fn scale(self) -> Scale {
        match self {
            Size::Quick => Scale::quick(),
            Size::Tiny => Scale {
                flows: 600,
                packets: 500,
                patterns: 100,
                fw_rules: 50,
                lpm_prefixes: 200,
                monitor_ms: 20,
            },
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time to accumulate before stopping (at least one unit
    /// always runs).
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Expected output digest, overriding the recorded one (tests use
    /// this to prove a wrong digest fails the run).
    pub expect: Option<u64>,
}

/// The end-to-end metrics every run reports with `--trace 0`:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Short lowercase metric suffix of an NF kind.
pub fn kind_key(kind: NfKind) -> &'static str {
    match kind {
        NfKind::Firewall => "fw",
        NfKind::Dpi => "dpi",
        NfKind::Nat => "nat",
        NfKind::LoadBalancer => "lb",
        NfKind::Lpm => "lpm",
        NfKind::Monitor => "mon",
    }
}

/// The per-layer metrics every run reports with `--trace 1`:
/// `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("gen.record_s".into(), "s")];
    for k in NfKind::ALL {
        v.push((format!("gen.fill_s.{}", kind_key(k)), "s"));
    }
    for k in NfKind::ALL {
        v.push((format!("gen.events_per_s.{}", kind_key(k)), "1/s"));
    }
    let fixed: [(&str, &'static str); 31] = [
        ("gen.share", "ratio"),
        ("engine.busy_s", "s"),
        ("engine.self_s", "s"),
        ("engine.events_per_s.commodity", "1/s"),
        ("engine.events_per_s.snic", "1/s"),
        ("uarch.events", "count"),
        ("uarch.l1_miss_ratio", "ratio"),
        ("uarch.l2_miss_ratio", "ratio"),
        ("sim.workers", "count"),
        ("sim.pool_util", "ratio"),
        ("sim.commodity_leg_s", "s"),
        ("sim.snic_leg_s", "s"),
        ("serve.parse_us", "us"),
        ("serve.ingest_us.register", "us"),
        ("serve.ingest_us.advance", "us"),
        ("serve.ingest_us.health", "us"),
        ("serve.ingest_us.drain", "us"),
        ("serve.send_p50_us", "us"),
        ("serve.send_p99_us", "us"),
        ("serve.poll_p50_us", "us"),
        ("serve.attest_p50_us", "us"),
        ("serve.attest_p99_us", "us"),
        ("serve.launch_p50_us", "us"),
        ("serve.teardown_p50_us", "us"),
        ("serve.failed_frac", "ratio"),
        ("serve.shed.overloaded", "count"),
        ("serve.shed.rate_limited", "count"),
        ("serve.expired", "count"),
        ("serve.queue_depth_max", "count"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_share", "ratio"),
    ];
    v.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

/// Host threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by nearest rank (0 for an empty
/// slice). `q = 0.99` over n samples leaves `n / 100` samples above.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if q == 0.5 && v.len().is_multiple_of(2) {
        let n = v.len();
        return (v[n / 2 - 1] + v[n / 2]) / 2.0;
    }
    let idx = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// Values in run order, four significant digits each.
pub fn render_list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x:.4e}")).collect();
    v.join(" ")
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Distinct input draws a run of stream-colo or serve-mixed cycles
/// through: unit `k` takes its inputs from [`input_seed`]`(seed, k)`, so
/// one run's median covers several draws instead of resting on one.
/// fig5-replay's sweep is long enough to replay the seed's own traces in
/// every unit.
pub const INPUT_SETS: usize = 8;

/// Seed of the inputs of input set `set` (taken modulo
/// [`INPUT_SETS`]); set 0 uses `seed` itself.
pub fn input_seed(seed: u64, set: usize) -> u64 {
    match set % INPUT_SETS {
        0 => seed,
        k => fnv1a(&[seed, k as u64]),
    }
}

/// Output digests per input set: the first unit of each set records
/// one, and every later unit of the set must reproduce it.
#[derive(Debug, Default)]
pub struct Digests(Vec<u64>);

impl Digests {
    /// Record or check the digest of a unit on input set `set`.
    pub fn unit(&mut self, set: usize, digest: u64, out: &mut Outcome) {
        match self.0.get(set % INPUT_SETS) {
            None => self.0.push(digest),
            Some(&d0) if d0 != digest => out.fail(format!(
                "a repeat of input set {} produced digest {digest:016x}, the first {d0:016x}",
                set % INPUT_SETS
            )),
            Some(_) => {}
        }
    }

    /// The digest of input set 0, the one recorded for the default
    /// seed.
    pub fn first(&self) -> u64 {
        *self.0.first().expect("repeat runs at least one unit")
    }
}

/// Run `unit(set, traced)` until the measured seconds it returns add up
/// to `seconds`, at least once; `set` counts input sets from 0. A traced
/// run alternates an untraced and a traced unit on the same input set,
/// so the tracing overhead is measured in the same run on like inputs.
///
/// Returns the process's peak RSS (MiB) after the first unit: what a
/// fresh process running the workload once reaches, before the
/// allocator's retention across repeated units adds to it.
pub(crate) fn repeat(seconds: f64, trace: bool, mut unit: impl FnMut(usize, bool) -> f64) -> f64 {
    let mut spent = 0.0;
    let mut done = 0usize;
    let mut first_rss = 0.0;
    loop {
        let (set, traced) = if trace {
            (done / 2, !done.is_multiple_of(2))
        } else {
            (done, false)
        };
        spent += unit(set, traced);
        done += 1;
        if done == 1 {
            first_rss = report::peak_rss_mb();
        }
        let pairs_done = !trace || done.is_multiple_of(2);
        if spent >= seconds && pairs_done {
            return first_rss;
        }
    }
}

/// Run one workload and collect its outcome.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts);
    match opts.workload {
        Workload::Fig5Replay => fig5::run(opts, &mut out),
        Workload::StreamColo => colo::run(opts, &mut out),
        Workload::ServeMixed => serve::run(opts, &mut out),
    }
    out.show("peak_rss_mb.whole_run", report::peak_rss_mb(), "MB", None);
    out
}

/// Per-layer values a workload measured, keyed by metric name; names
/// it leaves out report 0.
pub type Layers = BTreeMap<String, f64>;

/// Output digests recorded for [`DEFAULT_SEED`]: `(workload, size,
/// digest)`. The simulator digests cover every `NfRunStats` field of
/// every job of input set 0; the serve digest covers every response
/// line of input set 0.
const RECORDED: [(Workload, Size, u64); 6] = [
    (Workload::Fig5Replay, Size::Quick, 0xd697_2195_669b_397b),
    (Workload::StreamColo, Size::Quick, 0xa9d4_d42f_f76a_abf8),
    (Workload::ServeMixed, Size::Quick, 0x05ca_0192_4b8c_ccd5),
    (Workload::Fig5Replay, Size::Tiny, 0xff1b_3d1b_86c9_63b1),
    (Workload::StreamColo, Size::Tiny, 0xfc9c_eb3c_6380_9a29),
    (Workload::ServeMixed, Size::Tiny, 0x85a6_d2af_268c_8774),
];

/// The recorded output digest of `workload` at `size` and `seed`, if
/// one was recorded.
pub fn recorded_digest(workload: Workload, size: Size, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == size)
        .map(|&(_, _, d)| d)
}
