//! Wall-clock performance harness for the microarchitectural engine.
//!
//! Every figure in the reproduction bottoms out in
//! [`snic_uarch::engine::run_colocated_ids_sink`], so this module measures
//! exactly that: events per second over the recorded fig5 NF traces
//! (seed `0xf15a`, the fig5a seed, so the workload is the real sweep
//! workload, not a synthetic stand-in) at several colocation scales,
//! warm-started the way the sweeps are (first trace pass warms the
//! caches), median-of-k. With `shards > 1` the S-NIC cells go through
//! [`snic_sim::run_sharded`] — the model-level independence of
//! partitioned tenants turned into worker threads — while commodity
//! cells (shared L2, not shardable) stay serial, exactly as `run()`
//! would dispatch them in production.
//!
//! The numbers land in `BENCH_uarch.json` at the repo root (schema 3):
//!
//! - `events_per_sec_before` — the serial baseline this PR started
//!   from, kept so the recorded speedup survives re-blessing (a
//!   schema-1 file's `after` becomes the schema-2 `before`);
//! - `events_per_sec_after` — the committed baseline every future PR is
//!   gated against (`scripts/lint.sh` runs `uarch_perf --smoke` and
//!   fails on a >10 % regression; re-bless with `SNIC_BLESS_BENCH=1`);
//! - `shards` / `host_threads` — how the `after` number was obtained,
//!   so a one-core box's honest measurement is never mistaken for the
//!   multi-core headline (see EXPERIMENTS.md for the scaling analysis);
//! - `streaming` / `multicore` — the schema-3 companion entries: the
//!   regenerate-on-pull streamed pipeline rate and the replay harness
//!   through sharded dispatch (`--shards >= 3`), each labelled with the
//!   shard count and host threads it was measured under.
//!
//! Timing uses the wall clock, so this module is for the perf binary
//! and `snicctl bench` only — simulation results never depend on it.

use std::time::Instant;

use snic_nf::NfKind;
use snic_sim::run_sharded;
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::run_colocated_warm;
use snic_uarch::stream::{EventSource, SharedReplayStream};

use crate::streams::{all_traces, streamed_nf_source, SharedTrace, TraceSet};
use crate::{median, Scale};

/// Trace seed: fig5a's, so the harness replays the same recordings as a
/// real fig5a run at the same scale.
pub const PERF_SEED: u64 = 0xf15a;

/// L2 size of every measured point (one mid-curve fig5a setting).
pub const PERF_L2_BYTES: u64 = 256 << 10;

/// Colocation scales on the x-axis: solo, the fig5a pair, and the two
/// fig5b multi-tenant points that fit six recorded kinds.
pub const PERF_TENANTS: [usize; 4] = [1, 2, 4, 6];

/// One measured cell: a colocation scale under one personality.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// `"{n}nf-{commodity|snic}"`.
    pub label: String,
    /// Colocated stream count.
    pub tenants: usize,
    /// S-NIC (partitioned) or commodity personality.
    pub snic: bool,
    /// Engine events processed per run (both trace passes).
    pub events: u64,
    /// Median wall-clock seconds over the harness repetitions.
    pub secs: f64,
    /// `events / secs`.
    pub eps: f64,
}

/// The full harness result.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Every measured cell, scale-major, commodity before S-NIC.
    pub points: Vec<PerfPoint>,
    /// Events per run summed over all cells.
    pub total_events: u64,
    /// Median seconds summed over all cells.
    pub total_secs: f64,
    /// The headline metric: `total_events / total_secs`.
    pub events_per_sec: f64,
    /// Repetitions per cell (median taken).
    pub median_of: usize,
    /// Shard count the S-NIC cells were measured with (1 = serial).
    pub shards: usize,
    /// Hardware threads the host reports (how much parallelism the
    /// sharded cells could actually use).
    pub host_threads: usize,
}

/// Hardware threads available on this host (1 when unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The streams of one cell: `tenants` recorded traces (kinds taken
/// round-robin from the trace set), each replayed twice with the first
/// pass as warmup — the fig5 sweep shape.
fn cell_streams(traces: &TraceSet, tenants: usize) -> (Vec<EventSource>, Vec<u64>, u64) {
    let mut streams = Vec::with_capacity(tenants);
    let mut warmups = Vec::with_capacity(tenants);
    let mut events = 0u64;
    for slot in 0..tenants {
        let (_, trace) = &traces[slot % traces.len()];
        streams.push(EventSource::from(SharedReplayStream::repeated(
            SharedTrace::clone(trace),
            2,
        )));
        warmups.push(trace.len() as u64);
        events += 2 * trace.len() as u64;
    }
    (streams, warmups, events)
}

/// Run the harness: every `(scale, personality)` cell `reps` times,
/// median wall clock per cell. `shards > 1` routes each cell through
/// [`snic_sim::run_sharded`]: S-NIC cells fan their tenants out across
/// up to `shards` worker threads, commodity cells (shared L2 — not
/// shardable) fall back to the serial engine inside `run_sharded`, so
/// both personalities are timed through the same production dispatch.
pub fn run(scale: &Scale, reps: usize, shards: usize) -> PerfReport {
    assert!(reps >= 1, "need at least one repetition");
    let shards = shards.max(1);
    let traces = all_traces(scale, PERF_SEED);
    let mut points = Vec::new();
    for &tenants in &PERF_TENANTS {
        for snic in [false, true] {
            let cfg = if snic {
                MachineConfig::snic(tenants as u32, PERF_L2_BYTES)
            } else {
                MachineConfig::commodity(tenants as u32, PERF_L2_BYTES)
            };
            let mut secs = Vec::with_capacity(reps);
            let mut events = 0;
            for _ in 0..reps {
                let (streams, warmups, ev) = cell_streams(&traces, tenants);
                events = ev;
                let start = Instant::now();
                let out = if shards > 1 {
                    run_sharded(&cfg, streams, &warmups, shards)
                } else {
                    run_colocated_warm(&cfg, streams, &warmups)
                };
                secs.push(start.elapsed().as_secs_f64());
                assert_eq!(out.nfs.len(), tenants);
            }
            let med = median(&mut secs);
            points.push(PerfPoint {
                label: format!("{tenants}nf-{}", if snic { "snic" } else { "commodity" }),
                tenants,
                snic,
                events,
                secs: med,
                eps: events as f64 / med.max(1e-12),
            });
        }
    }
    let total_events: u64 = points.iter().map(|p| p.events).sum();
    let total_secs: f64 = points.iter().map(|p| p.secs).sum();
    PerfReport {
        total_events,
        total_secs,
        events_per_sec: total_events as f64 / total_secs.max(1e-12),
        median_of: reps,
        shards,
        host_threads: host_threads(),
        points,
    }
}

/// The streamed-pipeline measurement: S-NIC colocations whose events
/// are regenerated on the fly through the O(chunk) streaming pipeline
/// (NF + workload rebuilt from seeds) instead of replayed from a
/// materialized recording, so the rate includes generation cost and the
/// resident set stays bounded.
#[derive(Debug, Clone)]
pub struct StreamedPerf {
    /// Engine events processed across all cells (from the outcomes:
    /// every event probes L1 exactly once).
    pub total_events: u64,
    /// Median seconds summed over all cells.
    pub total_secs: f64,
    /// `total_events / total_secs`.
    pub events_per_sec: f64,
    /// Shard count the cells ran with.
    pub shards: usize,
}

/// Measure the streamed pipeline: the [`PERF_TENANTS`] S-NIC cells with
/// single-pass [`streamed_nf_source`] streams (kinds round-robin, fig5a
/// seed), dispatched through [`run_sharded`] like the colocation
/// sweeps. No warmup window — the streamed production path counts every
/// event, and the engine events come from the outcome itself.
pub fn run_streamed(scale: &Scale, reps: usize, shards: usize) -> StreamedPerf {
    assert!(reps >= 1, "need at least one repetition");
    let shards = shards.max(1);
    let mut total_events = 0u64;
    let mut total_secs = 0.0;
    for &tenants in &PERF_TENANTS {
        let cfg = MachineConfig::snic(tenants as u32, PERF_L2_BYTES);
        let mut secs = Vec::with_capacity(reps);
        let mut events = 0u64;
        for _ in 0..reps {
            let streams: Vec<EventSource> = (0..tenants)
                .map(|slot| {
                    streamed_nf_source(NfKind::ALL[slot % NfKind::ALL.len()], scale, PERF_SEED, 1)
                })
                .collect();
            let start = Instant::now();
            let out = run_sharded(&cfg, streams, &[], shards);
            secs.push(start.elapsed().as_secs_f64());
            events = out.nfs.iter().map(|n| n.l1_hits + n.l1_misses).sum();
        }
        total_events += events;
        total_secs += median(&mut secs);
    }
    StreamedPerf {
        total_events,
        total_secs,
        events_per_sec: total_events as f64 / total_secs.max(1e-12),
        shards,
    }
}

/// The schema-3 companion measurements embedded next to the gated
/// serial baseline: the streamed pipeline and a multicore-sharded
/// re-measurement of the replay cells.
#[derive(Debug, Clone)]
pub struct PerfExtras {
    /// Streamed-pipeline rate (see [`run_streamed`]).
    pub streaming: StreamedPerf,
    /// The replay harness re-run with `shards >= 3` (see [`run`]); on a
    /// one-core host this records the honest sharded-dispatch number
    /// next to `host_threads: 1` rather than pretending to scale.
    pub multicore: PerfReport,
}

/// Measure both schema-3 extras: the streamed pipeline (serial, so the
/// number is host-independent) and the replay harness through the
/// sharded dispatch path.
pub fn run_extras(scale: &Scale, reps: usize, shards: usize) -> PerfExtras {
    PerfExtras {
        streaming: run_streamed(scale, reps, 1),
        multicore: run(scale, reps, shards.max(3)),
    }
}

/// Render the report as the `BENCH_uarch.json` document (schema 3).
///
/// `before_eps` is the baseline measurement carried forward from the
/// existing file on re-bless (see [`baseline_before`]); when absent the
/// current number doubles as its own baseline (speedup 1.0). `extras`
/// adds the schema-3 `streaming` and `multicore` objects; every
/// schema-2 field keeps its name and meaning (the lint gate still
/// compares `events_per_sec_after` alone), so schema-2 consumers read a
/// schema-3 document unchanged.
pub fn to_json(
    report: &PerfReport,
    scale_name: &str,
    before_eps: Option<f64>,
    extras: Option<&PerfExtras>,
) -> String {
    let before = before_eps.unwrap_or(report.events_per_sec);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": 3,\n");
    s.push_str("  \"workload\": \"fig5-traces colocation sweep, warm-started, sharded engine\",\n");
    s.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    s.push_str(&format!("  \"median_of\": {},\n", report.median_of));
    s.push_str(&format!("  \"shards\": {},\n", report.shards));
    s.push_str(&format!("  \"host_threads\": {},\n", report.host_threads));
    s.push_str(&format!("  \"total_events\": {},\n", report.total_events));
    s.push_str(&format!("  \"events_per_sec_before\": {:.1},\n", before));
    s.push_str(&format!(
        "  \"events_per_sec_after\": {:.1},\n",
        report.events_per_sec
    ));
    s.push_str(&format!(
        "  \"speedup\": {:.2},\n",
        report.events_per_sec / before.max(1e-12)
    ));
    if let Some(extras) = extras {
        let st = &extras.streaming;
        s.push_str(&format!(
            "  \"streaming\": {{\"pipeline\": \"regenerate-on-pull, O(chunk) resident\", \
             \"stream_shards\": {}, \"stream_events\": {}, \"stream_events_per_sec\": {:.1}}},\n",
            st.shards, st.total_events, st.events_per_sec
        ));
        let mc = &extras.multicore;
        s.push_str(&format!(
            "  \"multicore\": {{\"mc_shards\": {}, \"mc_host_threads\": {}, \
             \"mc_events_per_sec\": {:.1}}},\n",
            mc.shards, mc.host_threads, mc.events_per_sec
        ));
    }
    s.push_str("  \"points\": [\n");
    for (i, p) in report.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"label\": \"{}\", \"tenants\": {}, \"events\": {}, \"secs\": {:.4}, \
             \"eps\": {:.1}}}{}\n",
            p.label,
            p.tenants,
            p.events,
            p.secs,
            p.eps,
            if i + 1 == report.points.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The `events_per_sec_before` to carry into a re-blessed document,
/// migrating across schema versions:
///
/// - schema 2 — keep the file's own `before` (the frozen reference);
/// - schema 1 — that era's `after` **becomes** the new `before`: the
///   schema-1 serial baseline is exactly the number the sharded engine
///   is being compared against;
/// - unreadable / absent — `None` (the new measurement self-baselines).
pub fn baseline_before(json: &str) -> Option<f64> {
    match extract_f64(json, "schema") {
        Some(s) if s >= 2.0 => extract_f64(json, "events_per_sec_before"),
        Some(_) => extract_f64(json, "events_per_sec_after"),
        None => extract_f64(json, "events_per_sec_before"),
    }
}

/// Extract a top-level numeric field from a `BENCH_uarch.json` document
/// (good enough for the documents [`to_json`] writes; no external JSON
/// dependency in the offline workspace).
pub fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)?;
    let rest = json[at + needle.len()..].trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            flows: 300,
            packets: 300,
            patterns: 60,
            fw_rules: 40,
            lpm_prefixes: 100,
            monitor_ms: 10,
        }
    }

    #[test]
    fn harness_covers_all_cells_and_json_round_trips() {
        let report = run(&tiny(), 1, 1);
        assert_eq!(report.points.len(), PERF_TENANTS.len() * 2);
        assert!(report.total_events > 0);
        assert!(report.events_per_sec > 0.0);
        assert_eq!(report.shards, 1);
        assert!(report.host_threads >= 1);
        let json = to_json(&report, "tiny", Some(report.events_per_sec / 3.0), None);
        let after = extract_f64(&json, "events_per_sec_after").expect("after present");
        assert!((after - report.events_per_sec).abs() / report.events_per_sec < 1e-3);
        let speedup = extract_f64(&json, "speedup").expect("speedup present");
        assert!((speedup - 3.0).abs() < 0.05, "speedup {speedup}");
        assert_eq!(extract_f64(&json, "schema"), Some(3.0));
        assert_eq!(extract_f64(&json, "shards"), Some(1.0));
        assert!(extract_f64(&json, "host_threads").is_some_and(|t| t >= 1.0));
        assert!(extract_f64(&json, "no_such_key").is_none());
        assert!(!json.contains("\"streaming\""), "no extras unless given");
    }

    #[test]
    fn sharded_harness_counts_the_same_events() {
        // Same cells, same event totals — only the wall clock may move.
        let serial = run(&tiny(), 1, 1);
        let sharded = run(&tiny(), 1, 4);
        assert_eq!(sharded.shards, 4);
        assert_eq!(serial.total_events, sharded.total_events);
        for (a, b) in serial.points.iter().zip(&sharded.points) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn streamed_harness_and_extras_embed_in_schema_3() {
        let extras = run_extras(&tiny(), 1, 3);
        assert!(extras.streaming.total_events > 0);
        assert!(extras.streaming.events_per_sec > 0.0);
        assert_eq!(extras.streaming.shards, 1);
        assert_eq!(extras.multicore.shards, 3);
        // Streamed cells process one pass of the S-NIC half of the grid;
        // the replay harness counts both machines at two passes each.
        let replay = run(&tiny(), 1, 1);
        assert_eq!(extras.streaming.total_events * 4, replay.total_events);
        let json = to_json(&replay, "tiny", None, Some(&extras));
        assert_eq!(
            extract_f64(&json, "stream_events"),
            Some(extras.streaming.total_events as f64)
        );
        assert_eq!(extract_f64(&json, "mc_shards"), Some(3.0));
        assert!(extract_f64(&json, "stream_events_per_sec").is_some_and(|e| e > 0.0));
        assert!(extract_f64(&json, "mc_events_per_sec").is_some_and(|e| e > 0.0));
    }

    #[test]
    fn baseline_before_migrates_schema_1_after() {
        let v1 = "{\n  \"schema\": 1,\n  \"events_per_sec_before\": 100.0,\n  \
                  \"events_per_sec_after\": 250.0\n}\n";
        assert_eq!(baseline_before(v1), Some(250.0));
        let v2 = "{\n  \"schema\": 2,\n  \"events_per_sec_before\": 250.0,\n  \
                  \"events_per_sec_after\": 900.0\n}\n";
        assert_eq!(baseline_before(v2), Some(250.0));
        // Pre-schema documents fall back to their own before field.
        let v0 = "{\n  \"events_per_sec_before\": 42.0\n}\n";
        assert_eq!(baseline_before(v0), Some(42.0));
        assert_eq!(baseline_before("{}"), None);
    }

    #[test]
    fn events_count_both_passes() {
        let traces = all_traces(&tiny(), PERF_SEED);
        let (streams, warmups, events) = cell_streams(&traces, 2);
        assert_eq!(streams.len(), 2);
        assert_eq!(warmups.len(), 2);
        let expect: u64 = (0..2).map(|i| 2 * traces[i].1.len() as u64).sum();
        assert_eq!(events, expect);
    }
}
