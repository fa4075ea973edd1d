//! `fig5-replay`: the quick-scale Figure 5a sweep — every ordered pair
//! of the six NF kinds × {commodity, S-NIC} × the fig5a L2 sizes — with
//! each pair replaying its recorded traces twice (warm, then measured)
//! and the jobs fanned across the `snic-sim` pool.
//!
//! Set-up records the six traces at `(scale, seed)`: once through
//! `all_traces`, then again through `nf_trace_source` under the timing
//! wrapper, which must regenerate them bit for bit. The unit of work is
//! one whole sweep; nearly all of its host time is engine work.

use std::sync::Arc;
use std::time::Instant;

use snic_bench::fig5::{headline_stats, DegradationPoint};
use snic_bench::streams::{all_traces, nf_trace_source, TraceSet};
use snic_nf::NfKind;
use snic_sim::{default_threads, execute, par_map, Exec, SimJob};
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::RunOutcome;
use snic_uarch::stream::SharedReplayStream;

use crate::report::Fnv;
use crate::timed::{replays, slot, GenCounters, Timed};
use crate::{kind_key, median, repeat, secs, Layers, Opts, Outcome};

/// The L2 sizes of the quick fig5a sweep (those of the `fig5a` binary).
pub const L2_SIZES: [u64; 4] = [64 << 10, 512 << 10, 4 << 20, 16 << 20];

/// Trace recordings per run (the first through `all_traces`); set-up
/// time is their median.
const SETUP_REPS: usize = 3;

/// One colocation run of the sweep: `focus` (tenant 0) beside
/// `partner` on a commodity or S-NIC machine.
#[derive(Debug, Clone, Copy)]
struct Job {
    focus: NfKind,
    partner: NfKind,
    l2: u64,
    snic: bool,
}

/// The sweep in fig5a's order: size-major, then focus, then partner,
/// commodity before S-NIC.
fn plan() -> Vec<Job> {
    let mut jobs = Vec::new();
    for l2 in L2_SIZES {
        for focus in NfKind::ALL {
            for partner in NfKind::ALL {
                for snic in [false, true] {
                    jobs.push(Job {
                        focus,
                        partner,
                        l2,
                        snic,
                    });
                }
            }
        }
    }
    jobs
}

fn trace(traces: &TraceSet, kind: NfKind) -> &Arc<[snic_uarch::Access]> {
    &traces
        .iter()
        .find(|(k, _)| *k == kind)
        .expect("all_traces records every kind")
        .1
}

fn build(traces: &TraceSet, j: &Job) -> SimJob {
    let (a, b) = (trace(traces, j.focus), trace(traces, j.partner));
    let cfg = if j.snic {
        MachineConfig::snic(2, j.l2)
    } else {
        MachineConfig::commodity(2, j.l2)
    };
    let streams = vec![
        SharedReplayStream::repeated(Arc::clone(a), 2).into(),
        SharedReplayStream::repeated(Arc::clone(b), 2).into(),
    ];
    SimJob::new(cfg, streams).with_warmups(vec![a.len() as u64, b.len() as u64])
}

/// `(events, instructions)` of one pass over each kind's trace, in
/// [`NfKind::ALL`] order.
fn pass_totals(traces: &TraceSet) -> Vec<(u64, u64)> {
    NfKind::ALL
        .iter()
        .map(|&k| {
            let t = trace(traces, k);
            (t.len() as u64, t.iter().map(|a| u64::from(a.insns)).sum())
        })
        .collect()
}

/// Check one job's outcome: two tenants, and each measured pass probed
/// L1 exactly once per event and retired exactly its trace's
/// instructions.
fn check_job(totals: &[(u64, u64)], j: &Job, out: &RunOutcome) -> Option<String> {
    if out.nfs.len() != 2 {
        return Some(format!("{j:?}: {} tenants reported", out.nfs.len()));
    }
    for (kind, nf) in [j.focus, j.partner].into_iter().zip(&out.nfs) {
        let (events, insns) = totals[slot(kind)];
        if nf.l1_hits + nf.l1_misses != events || nf.insns != insns {
            return Some(format!(
                "{j:?}: {kind:?} probed L1 {} times for {events} events, retired {} of {insns} \
                 insns",
                nf.l1_hits + nf.l1_misses,
                nf.insns
            ));
        }
    }
    None
}

/// The paper's headline from one sweep: mean-of-medians and worst p99
/// IPC degradation at 4 MB L2 with 2 NFs.
fn headline(plan: &[Job], outs: &[RunOutcome]) -> (f64, f64) {
    let points: Vec<DegradationPoint> = NfKind::ALL
        .iter()
        .map(|&kind| {
            let degs: Vec<f64> = plan
                .chunks_exact(2)
                .zip(outs.chunks_exact(2))
                .filter(|(jobs, _)| jobs[0].l2 == 4 << 20 && jobs[0].focus == kind)
                .map(|(_, pair)| pair[1].ipc_degradation_vs(&pair[0], 0))
                .collect();
            DegradationPoint {
                kind,
                median_pct: snic_bench::median(&mut degs.clone()),
                p1_pct: snic_bench::percentile(&mut degs.clone(), 1.0),
                p99_pct: snic_bench::percentile(&mut degs.clone(), 99.0),
            }
        })
        .collect();
    headline_stats(&points)
}

/// Per-sweep figures of a traced unit.
#[derive(Debug, Default)]
struct TracedSweep {
    wall: f64,
    pool: f64,
    busy: f64,
    commodity_s: f64,
    snic_s: f64,
    commodity_events: f64,
    snic_events: f64,
}

/// Run the workload into `out`.
pub fn run(opts: &Opts, out: &mut Outcome) {
    let scale = opts.size.scale();
    let seed = opts.seed;

    // Set-up: record the six traces, then regenerate them streamed.
    let mut setup = Vec::new();
    let t = Instant::now();
    let traces = all_traces(&scale, seed);
    let record_s = secs(t);
    setup.push(record_s);
    let gen = Arc::new(GenCounters::default());
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let regen = par_map(NfKind::ALL.to_vec(), |kind| {
            let mut src = Timed::new(nf_trace_source(kind, &scale, seed), kind, Arc::clone(&gen));
            (kind, replays(&mut src, trace(&traces, kind)))
        });
        setup.push(secs(t));
        for (kind, same) in regen {
            out.check((!same).then(|| format!("{kind:?}: streamed regeneration differs")));
        }
    }

    let plan = plan();
    let totals = pass_totals(&traces);
    // Engine events per sweep, warm passes included (each stream plays
    // its trace twice).
    let events: u64 = plan
        .iter()
        .map(|j| 2 * (trace(&traces, j.focus).len() + trace(&traces, j.partner).len()) as u64)
        .sum();
    let (mut rates, mut untraced_walls) = (Vec::new(), Vec::new());
    let mut traced: Vec<TracedSweep> = Vec::new();
    let mut first: Option<(u64, Vec<RunOutcome>)> = None;
    let (mut l1_probes, mut l1_misses, mut l2_misses) = (0u64, 0u64, 0u64);
    let workers = default_threads();

    let rss = repeat(opts.seconds, opts.trace, |_, tracing| {
        let t0 = Instant::now();
        let jobs: Vec<SimJob> = plan.iter().map(|j| build(&traces, j)).collect();
        let tp = Instant::now();
        let (outs, job_s): (Vec<RunOutcome>, Vec<f64>) = if tracing {
            par_map(jobs, |job| {
                let t = Instant::now();
                let o = job.run();
                (o, secs(t))
            })
            .into_iter()
            .unzip()
        } else {
            (execute(Exec::Parallel, jobs), Vec::new())
        };
        let pool = secs(tp);
        let wall = secs(t0);

        let mut h = Fnv::default();
        for (j, o) in plan.iter().zip(&outs) {
            out.check(check_job(&totals, j, o));
            for nf in &o.nfs {
                for v in [
                    nf.insns,
                    nf.cycles,
                    nf.l1_hits,
                    nf.l1_misses,
                    nf.l2_hits,
                    nf.l2_misses,
                ] {
                    h.word(v);
                }
            }
        }
        let digest = h.finish();
        if tracing {
            let mut s = TracedSweep {
                wall,
                pool,
                busy: job_s.iter().sum(),
                ..TracedSweep::default()
            };
            for ((j, dt), o) in plan.iter().zip(&job_s).zip(&outs) {
                let ev = o
                    .nfs
                    .iter()
                    .map(|n| 2.0 * (n.l1_hits + n.l1_misses) as f64)
                    .sum::<f64>();
                if j.snic {
                    s.snic_s += dt;
                    s.snic_events += ev;
                } else {
                    s.commodity_s += dt;
                    s.commodity_events += ev;
                }
            }
            traced.push(s);
        } else {
            rates.push(events as f64 / wall);
            untraced_walls.push(wall);
        }
        match &first {
            None => {
                for o in &outs {
                    for nf in &o.nfs {
                        l1_probes += nf.l1_hits + nf.l1_misses;
                        l1_misses += nf.l1_misses;
                        l2_misses += nf.l2_misses;
                    }
                }
                first = Some((digest, outs));
            }
            Some((d0, _)) if *d0 != digest => out.fail(format!(
                "a repeated sweep produced digest {digest:016x}, the first {d0:016x}"
            )),
            Some(_) => {}
        }
        wall
    });

    let (digest, outs) = first.expect("repeat runs at least one unit");
    out.check_digest(digest);
    let (mean, worst) = headline(&plan, &outs);
    out.say(format!(
        "accuracy: simulated IPC degradation at 4 MB L2, 2 NFs: mean-of-medians {mean:.4}% \
         (paper 0.24%), worst p99 {worst:.4}%; beyond this headline the timing model is \
         unvalidated against hardware"
    ));
    out.say(format!(
        "sweep: {} jobs, {events} engine events per sweep (warm passes included), {} untraced \
         + {} traced sweeps on {workers} pool workers",
        plan.len(),
        rates.len(),
        traced.len()
    ));

    out.say(format!("unit rates: {}", crate::render_list(&rates)));
    out.say(format!(
        "unit set-up seconds: {}",
        crate::render_list(&setup)
    ));
    let setup_s = median(&setup);
    out.put_e2e("setup_s", setup_s);
    out.put_e2e("work_per_s", median(&rates));
    out.put_e2e("peak_rss_mb", rss);
    out.show("setup_s", setup_s, "s", Some(setup.len()));
    out.show("peak_rss_mb", rss, "MB", None);
    out.show("events_per_s", median(&rates), "1/s", Some(rates.len()));
    out.show(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        Some(out.attempted as usize),
    );

    if opts.trace {
        let m = |f: &dyn Fn(&TracedSweep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let mut l = Layers::new();
        l.insert("gen.record_s".into(), record_s);
        let regen_reps = (SETUP_REPS - 1) as f64;
        for kind in NfKind::ALL {
            let k = kind_key(kind);
            l.insert(format!("gen.fill_s.{k}"), gen.seconds(kind) / regen_reps);
            l.insert(
                format!("gen.events_per_s.{k}"),
                gen.events(kind) as f64 / gen.seconds(kind).max(1e-12),
            );
        }
        // Replay generates nothing inside the timed region.
        l.insert("gen.share".into(), 0.0);
        let busy = m(&|s| s.busy);
        l.insert("engine.busy_s".into(), busy);
        l.insert("engine.self_s".into(), busy);
        l.insert(
            "engine.events_per_s.commodity".into(),
            m(&|s| s.commodity_events / s.commodity_s),
        );
        l.insert(
            "engine.events_per_s.snic".into(),
            m(&|s| s.snic_events / s.snic_s),
        );
        l.insert("uarch.events".into(), events as f64);
        l.insert(
            "uarch.l1_miss_ratio".into(),
            l1_misses as f64 / l1_probes as f64,
        );
        l.insert(
            "uarch.l2_miss_ratio".into(),
            l2_misses as f64 / l1_misses as f64,
        );
        l.insert("sim.workers".into(), workers as f64);
        l.insert(
            "sim.pool_util".into(),
            m(&|s| s.busy / (s.pool * workers as f64)),
        );
        l.insert("sim.commodity_leg_s".into(), m(&|s| s.commodity_s));
        l.insert("sim.snic_leg_s".into(), m(&|s| s.snic_s));
        l.insert(
            "trace.overhead_s".into(),
            m(&|s| s.wall) - median(&untraced_walls),
        );
        l.insert(
            "trace.unattributed_share".into(),
            m(&|s| 1.0 - s.pool / s.wall),
        );
        out.put_layers(l);
    }
}
