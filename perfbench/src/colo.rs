//! `stream-colo`: a 16-tenant streamed colocation built with
//! `tenant_mix(…, weighted = false)` — mixed NF personalities and phase
//! schedules, equal event budgets, events regenerated on pull. The
//! commodity leg runs serially through `run_colocated_warm`; the S-NIC
//! leg runs through `run_sharded` on at most `nproc` shards.
//!
//! Set-up is NF and source construction, done before each leg. The unit
//! of work is one commodity + S-NIC pair; generation carries most of its
//! host time.

use std::sync::Arc;
use std::time::Instant;

use snic_bench::colo::{
    many_tenant_commodity, many_tenant_snic, outcome_digest, outcome_events, tenant_mix,
    tenant_source, TenantSpec,
};
use snic_bench::Scale;
use snic_nf::NfKind;
use snic_sim::{default_threads, run_sharded};
use snic_uarch::engine::{run_colocated_warm, RunOutcome};
use snic_uarch::{EventSource, StreamedSource, TraceSource};

use crate::report::Fnv;
use crate::timed::{GenCounters, Timed};
use crate::{
    input_seed, kind_key, median, nproc, repeat, secs, Digests, Layers, Opts, Outcome, Size,
    INPUT_SETS,
};

/// Colocated tenants.
pub const TENANTS: usize = 16;

/// The machines' L2 size.
const L2_BYTES: u64 = 4 << 20;

/// Event budget of each tenant per leg.
pub fn per_tenant(size: Size) -> u64 {
    match size {
        Size::Quick => 250_000,
        Size::Tiny => 4_000,
    }
}

/// The leg's engine-ready sources, each under the timing wrapper when
/// `counters` is given.
fn sources(
    specs: &[TenantSpec],
    scale: &Scale,
    counters: Option<&Arc<GenCounters>>,
) -> Vec<EventSource> {
    specs
        .iter()
        .map(|s| {
            let src = tenant_source(s, scale);
            let src: Box<dyn TraceSource> = match counters {
                Some(c) => Box::new(Timed::new(src, s.kind, Arc::clone(c))),
                None => src,
            };
            StreamedSource::new(src).into()
        })
        .collect()
}

/// Check one leg: every tenant probed L1 exactly once per budgeted
/// event, and the leg's total equals the budget exactly.
pub fn check_leg(leg: &str, specs: &[TenantSpec], out: &RunOutcome) -> Option<String> {
    if out.nfs.len() != specs.len() {
        return Some(format!(
            "{leg}: {} of {} tenants reported",
            out.nfs.len(),
            specs.len()
        ));
    }
    for (i, (s, nf)) in specs.iter().zip(&out.nfs).enumerate() {
        if nf.l1_hits + nf.l1_misses != s.events {
            return Some(format!(
                "{leg}: tenant {i} probed L1 {} times for a budget of {}",
                nf.l1_hits + nf.l1_misses,
                s.events
            ));
        }
    }
    let budget: u64 = specs.iter().map(|s| s.events).sum();
    (outcome_events(out) != budget).then(|| {
        format!(
            "{leg}: {} events for a budget of {budget}",
            outcome_events(out)
        )
    })
}

/// Figures of one traced unit.
#[derive(Debug)]
struct TracedPair {
    wall: f64,
    spans: f64,
    commodity_s: f64,
    snic_s: f64,
    commodity_events: f64,
    snic_events: f64,
    gen_commodity: Arc<GenCounters>,
    gen_snic: Arc<GenCounters>,
}

/// Run the workload into `out`.
pub fn run(opts: &Opts, out: &mut Outcome) {
    let scale = opts.size.scale();
    let shards = nproc().min(TENANTS);
    let commodity_cfg = many_tenant_commodity(TENANTS, L2_BYTES);
    let snic_cfg = many_tenant_snic(TENANTS, L2_BYTES);

    let (mut setup, mut rates, mut untraced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced: Vec<TracedPair> = Vec::new();
    let mut digests = Digests::default();
    let (mut probes, mut l1_misses, mut l2_misses) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    let mut ipc = [0.0f64; 2];

    let rss = repeat(opts.seconds, opts.trace, |set, tracing| {
        let specs = tenant_mix(
            TENANTS,
            input_seed(opts.seed, set),
            TENANTS as u64 * per_tenant(opts.size),
            false,
        );
        let gen_commodity = Arc::new(GenCounters::default());
        let gen_snic = Arc::new(GenCounters::default());
        let t0 = Instant::now();
        let t = Instant::now();
        let streams = sources(&specs, &scale, tracing.then_some(&gen_commodity));
        let build_a = secs(t);
        let t = Instant::now();
        let commodity = run_colocated_warm(&commodity_cfg, streams, &[]);
        let commodity_s = secs(t);
        let t = Instant::now();
        let streams = sources(&specs, &scale, tracing.then_some(&gen_snic));
        let build_b = secs(t);
        let t = Instant::now();
        let snic = run_sharded(&snic_cfg, streams, &[], shards);
        let snic_s = secs(t);
        let wall = secs(t0);

        setup.push(build_a + build_b);
        out.check(check_leg("commodity", &specs, &commodity));
        out.check(check_leg("snic", &specs, &snic));
        let (ce, se) = (
            outcome_events(&commodity) as f64,
            outcome_events(&snic) as f64,
        );
        let mut h = Fnv::default();
        h.word(outcome_digest(&commodity));
        h.word(outcome_digest(&snic));
        if set == 0 && !tracing {
            for (i, o) in [&commodity, &snic].into_iter().enumerate() {
                for nf in &o.nfs {
                    probes[i] += nf.l1_hits + nf.l1_misses;
                    l1_misses[i] += nf.l1_misses;
                    l2_misses[i] += nf.l2_misses;
                    ipc[i] += nf.ipc() / o.nfs.len() as f64;
                }
            }
        }
        digests.unit(set, h.finish(), out);
        if tracing {
            traced.push(TracedPair {
                wall,
                spans: build_a + commodity_s + build_b + snic_s,
                commodity_s,
                snic_s,
                commodity_events: ce,
                snic_events: se,
                gen_commodity,
                gen_snic,
            });
        } else {
            rates.push((ce + se) / (commodity_s + snic_s));
            untraced_walls.push(wall);
        }
        commodity_s + snic_s
    });

    out.check_digest(digests.first());
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.say(format!(
        "pair: {TENANTS} tenants x {} events per leg, S-NIC leg on {shards} shards; \
         {} untraced + {} traced pairs over up to {INPUT_SETS} input sets; model figures are \
         of input set 0",
        per_tenant(opts.size),
        rates.len(),
        traced.len()
    ));
    out.say(format!(
        "model: mean IPC commodity {:.5} vs S-NIC {:.5}; L1 miss ratio {:.4}; L2 miss ratio \
         commodity {:.4} vs S-NIC {:.4}",
        ipc[0],
        ipc[1],
        ratio(l1_misses[0] + l1_misses[1], probes[0] + probes[1]),
        ratio(l2_misses[0], l1_misses[0]),
        ratio(l2_misses[1], l1_misses[1]),
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
        let m = |f: &dyn Fn(&TracedPair) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let gen_s = |p: &TracedPair| p.gen_commodity.total_seconds() + p.gen_snic.total_seconds();
        // Thread-seconds the legs had: the serial leg one thread, the
        // sharded leg one per shard (shard imbalance counts as engine).
        let capacity = |p: &TracedPair| p.commodity_s + p.snic_s * shards as f64;
        let mut l = Layers::new();
        for kind in NfKind::ALL {
            let k = kind_key(kind);
            let secs_of = |p: &TracedPair| p.gen_commodity.seconds(kind) + p.gen_snic.seconds(kind);
            let events_of =
                |p: &TracedPair| (p.gen_commodity.events(kind) + p.gen_snic.events(kind)) as f64;
            l.insert(format!("gen.fill_s.{k}"), m(&secs_of));
            l.insert(
                format!("gen.events_per_s.{k}"),
                m(&|p| events_of(p) / secs_of(p).max(1e-12)),
            );
        }
        l.insert("gen.share".into(), m(&|p| gen_s(p) / capacity(p)));
        l.insert("engine.busy_s".into(), m(&|p| p.commodity_s + p.snic_s));
        l.insert("engine.self_s".into(), m(&|p| capacity(p) - gen_s(p)));
        l.insert(
            "engine.events_per_s.commodity".into(),
            m(&|p| p.commodity_events / p.commodity_s),
        );
        l.insert(
            "engine.events_per_s.snic".into(),
            m(&|p| p.snic_events / p.snic_s),
        );
        l.insert("uarch.events".into(), (probes[0] + probes[1]) as f64);
        l.insert(
            "uarch.l1_miss_ratio".into(),
            ratio(l1_misses[0] + l1_misses[1], probes[0] + probes[1]),
        );
        l.insert(
            "uarch.l2_miss_ratio".into(),
            ratio(l2_misses[0] + l2_misses[1], l1_misses[0] + l1_misses[1]),
        );
        l.insert("sim.workers".into(), default_threads() as f64);
        l.insert("sim.commodity_leg_s".into(), m(&|p| p.commodity_s));
        l.insert("sim.snic_leg_s".into(), m(&|p| p.snic_s));
        l.insert(
            "trace.overhead_s".into(),
            m(&|p| p.wall) - median(&untraced_walls),
        );
        l.insert(
            "trace.unattributed_share".into(),
            m(&|p| 1.0 - p.spans / p.wall),
        );
        out.put_layers(l);
    }
}
