//! `serve-mixed`: a seeded closed-loop request mix fed line by line to
//! an in-process `snicd` daemon (`Daemon::ingest`) by one client.
//!
//! The daemon runs with `auto_steps: 0`, so queued work is served only
//! by `step` lines. The client is closed-loop: after each request it
//! sends `step` lines until that request's response arrives, and an
//! op's latency is the host time of every `ingest` call from its
//! submission to its response. The mix has
//!
//! - three resident tenants with steady `send`/`poll`/`stats` traffic
//!   against their own NF;
//! - a churn tenant cycling `launch`→`attest`→`teardown`, which with the
//!   three residents fills but never exceeds the NIC's four cores;
//! - a flood tenant with a tight quota that sends open-loop bursts past
//!   its queue depth and rate (shed `SERVE-OVERLOADED` and
//!   `SERVE-RATE-LIMITED`) and now and then a deadline too tight to
//!   survive its queue (`SERVE-EXPIRED`);
//! - periodic `advance` and `health` management ops, and a final
//!   `drain`.
//!
//! Set-up is `Daemon::new`, registration and the resident launches; the
//! unit of work is one fresh daemon serving the whole mix.

use std::collections::BTreeMap;
use std::time::Instant;

use snic_serve::protocol::parse_request;
use snic_serve::{codes, Daemon, DaemonConfig, TenantStats};

use crate::report::Fnv;
use crate::{
    input_seed, median, quantile, repeat, secs, Digests, Layers, Opts, Outcome, Size, INPUT_SETS,
};

/// Rounds of the mix per unit (one steady request each, plus the
/// periodic churn, flood and management lines).
pub fn rounds(size: Size) -> u32 {
    match size {
        Size::Quick => 30_000,
        Size::Tiny => 400,
    }
}

const RESIDENTS: [&str; 3] = ["t1", "t2", "t3"];
const CHURN: &str = "churn";
const FLOOD: &str = "flood";
/// Ids of the client's `step` lines start here, above every request id.
const STEP_BASE: u64 = 1 << 40;

/// How the client treats a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Closed loop: step until its response arrives; it must succeed.
    Wait,
    /// Open loop (the flood tenant): fire and move on; it may be shed
    /// or expire.
    Flood,
}

/// One request of the mix.
#[derive(Debug, Clone)]
struct Item {
    id: u64,
    op: &'static str,
    tenant: &'static str,
    class: Class,
    line: String,
}

/// splitmix64, the workspace's cheap deterministic mixer.
struct Mix(u64);

impl Mix {
    fn pick(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// Builds request lines with consecutive ids.
#[derive(Default)]
struct Script {
    items: Vec<Item>,
    last_id: u64,
}

impl Script {
    fn push(&mut self, op: &'static str, tenant: &'static str, class: Class, extra: &str) {
        self.last_id += 1;
        let id = self.last_id;
        let who = if tenant.is_empty() {
            String::new()
        } else {
            format!(",\"tenant\":\"{tenant}\"")
        };
        self.items.push(Item {
            id,
            op,
            tenant,
            class,
            line: format!("{{\"op\":\"{op}\"{who},\"id\":{id}{extra}}}"),
        });
    }
}

/// The set-up lines and the measured mix for `seed`.
fn script(seed: u64, rounds: u32) -> (Vec<Item>, Vec<Item>) {
    let mut s = Script::default();
    for t in RESIDENTS {
        s.push("register", t, Class::Wait, "");
    }
    s.push("register", CHURN, Class::Wait, "");
    s.push(
        "register",
        FLOOD,
        Class::Wait,
        ",\"queue_depth\":2,\"burst\":4,\"refill_ps\":4000000",
    );
    for (i, t) in RESIDENTS.into_iter().enumerate() {
        let port = 81 + i;
        s.push(
            "launch",
            t,
            Class::Wait,
            &format!(",\"name\":\"nf\",\"mem\":8,\"port\":{port}"),
        );
    }
    let setup = std::mem::take(&mut s.items);
    let mut mix = Mix(seed);
    let mut bursts = 0u32;
    for r in 0..rounds {
        let i = mix.pick(RESIDENTS.len() as u64) as usize;
        let (t, port) = (RESIDENTS[i], 81 + i);
        match mix.pick(100) {
            0..=49 => s.push(
                "send",
                t,
                Class::Wait,
                &format!(",\"count\":{},\"port\":{port}", 1 + mix.pick(4)),
            ),
            50..=84 => s.push("poll", t, Class::Wait, ",\"name\":\"nf\""),
            _ => s.push("stats", t, Class::Wait, ",\"name\":\"nf\""),
        }
        // Churn every 150 rounds puts attest near half the host time,
        // launch near a seventh and send/poll/stats near a quarter.
        if r % 150 == 20 {
            let nf = ",\"name\":\"tmp\"";
            s.push(
                "launch",
                CHURN,
                Class::Wait,
                &format!("{nf},\"mem\":8,\"port\":90"),
            );
            s.push("attest", CHURN, Class::Wait, nf);
            s.push("teardown", CHURN, Class::Wait, nf);
        }
        if r % 25 == 7 {
            if bursts.is_multiple_of(4) {
                s.push(
                    "send",
                    FLOOD,
                    Class::Flood,
                    ",\"count\":1,\"port\":99,\"deadline_us\":1",
                );
            }
            for _ in 0..5 {
                s.push("send", FLOOD, Class::Flood, ",\"count\":1,\"port\":99");
            }
            bursts += 1;
        }
        if r % 50 == 49 {
            s.push("advance", "", Class::Wait, ",\"us\":200");
        }
        if r % 200 == 199 {
            s.push("health", "", Class::Wait, "");
        }
    }
    s.push("drain", "", Class::Wait, "");
    (setup, s.items)
}

/// The daemon configuration: service only through `step` lines.
fn config(seed: u64) -> DaemonConfig {
    DaemonConfig {
        seed,
        auto_steps: 0,
        ..DaemonConfig::default()
    }
}

/// `"key":<digits>` of a response line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// `"key":"<text>"` of a response line.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    line[at..].split('"').next()
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
struct Response {
    ok: bool,
    /// The rejection code of a refused request.
    code: Option<String>,
    /// The response reports a verified attestation.
    verified: bool,
}

/// Everything one unit observed.
#[derive(Debug, Default)]
struct Client {
    responses: BTreeMap<u64, Response>,
    /// Per-op latencies of closed-loop requests, seconds.
    latency: BTreeMap<&'static str, Vec<f64>>,
    digest: Fnv,
    steps: u64,
    bad_steps: u64,
    ingest_s: f64,
    queue_depth_max: usize,
}

impl Client {
    fn ingest(&mut self, d: &mut Daemon, line: &str, tracing: bool) -> f64 {
        let t = Instant::now();
        let out = d.ingest(line);
        let dt = secs(t);
        self.ingest_s += dt;
        if tracing {
            self.queue_depth_max = self.queue_depth_max.max(d.queue_depth(FLOOD));
        }
        for r in out {
            self.digest.bytes(r.as_bytes());
            self.digest.bytes(b"\n");
            let id = num_field(&r, "id").unwrap_or(0);
            let ok = r.contains("\"ok\":true");
            if id >= STEP_BASE {
                self.bad_steps += u64::from(!ok);
                continue;
            }
            let code = str_field(&r, "code").map(str::to_string);
            let verified = r.contains("\"verified\":true");
            self.responses.insert(id, Response { ok, code, verified });
        }
        dt
    }

    /// Submit every item, stepping closed-loop items to their response.
    fn drive(&mut self, d: &mut Daemon, items: &[Item], tracing: bool) -> Result<(), String> {
        for it in items {
            let mut dt = self.ingest(d, &it.line, tracing);
            if it.class == Class::Flood {
                continue;
            }
            let mut waited = 0;
            while !self.responses.contains_key(&it.id) {
                // Each step serves one queued request round-robin; the
                // flood's queue is at most 2 deep, so a handful suffice.
                if waited == 16 {
                    return Err(format!("request {} ({}) never answered", it.id, it.op));
                }
                self.steps += 1;
                let step = format!(
                    "{{\"op\":\"step\",\"id\":{},\"n\":1}}",
                    STEP_BASE + self.steps
                );
                dt += self.ingest(d, &step, tracing);
                waited += 1;
            }
            self.latency.entry(it.op).or_default().push(dt);
        }
        Ok(())
    }
}

/// The serve conservation laws for one tenant, from the daemon's
/// `tenant_stats`, its queue depth, and what the client itself sent and
/// saw shed.
pub fn conservation(
    tenant: &str,
    s: &TenantStats,
    queued: usize,
    sent: u64,
    shed_seen: u64,
) -> Option<String> {
    let mut broken = Vec::new();
    if s.submitted != s.admitted + s.shed {
        broken.push("submitted != admitted + shed");
    }
    if s.admitted != s.served + s.expired + s.reclaimed + queued as u64 {
        broken.push("admitted != served + expired + reclaimed + queued");
    }
    if s.submitted != sent {
        broken.push("submitted != requests the client sent");
    }
    if s.shed != shed_seen {
        broken.push("shed != shed responses the client saw");
    }
    (!broken.is_empty()).then(|| format!("tenant {tenant}: {} ({s:?})", broken.join("; ")))
}

/// Check every response of a unit against what the mix expects.
fn check_response(it: &Item, r: Option<&Response>) -> Option<String> {
    let Some(r) = r else {
        return Some(format!(
            "request {} ({} {}) got no response",
            it.id, it.tenant, it.op
        ));
    };
    let fine = match it.class {
        Class::Wait => r.ok && (it.op != "attest" || r.verified),
        Class::Flood => {
            r.ok || matches!(
                r.code.as_deref(),
                Some(codes::OVERLOADED | codes::RATE_LIMITED | codes::EXPIRED)
            )
        }
    };
    (!fine).then(|| {
        format!(
            "request {} ({} {}): ok={} code={:?} verified={}",
            it.id, it.tenant, it.op, r.ok, r.code, r.verified
        )
    })
}

/// Figures of one traced unit.
#[derive(Debug)]
struct TracedUnit {
    wall: f64,
    ingest_s: f64,
    parse_us: f64,
    latency: BTreeMap<&'static str, Vec<f64>>,
    queue_depth_max: usize,
}

/// Counts of one unit.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    requests: u64,
    not_ok: u64,
    overloaded: u64,
    rate_limited: u64,
    expired: u64,
}

/// Run one unit: a fresh daemon seeded `seed` through set-up and the
/// whole mix. Returns `(setup_s, wall_s, client)` with every check
/// counted in `out`, plus the unit's counts and the daemon (for traced
/// parsing).
fn unit(
    seed: u64,
    (setup_items, items): (&[Item], &[Item]),
    tracing: bool,
    out: &mut Outcome,
) -> (f64, f64, Client, Counts, Daemon) {
    let mut c = Client::default();
    let t = Instant::now();
    let mut d = Daemon::new(config(seed));
    if let Err(e) = c.drive(&mut d, setup_items, tracing) {
        out.fail(e);
    }
    let setup_s = secs(t);
    // Only registration is reported from set-up; resident launches stay
    // out of the churn tenant's launch latencies.
    let register = std::mem::take(&mut c.latency).remove("register");
    c.ingest_s = 0.0;
    let t = Instant::now();
    if let Err(e) = c.drive(&mut d, items, tracing) {
        out.fail(e);
    }
    let wall = secs(t);
    if let Some(r) = register {
        c.latency.insert("register", r);
    }

    let mut n = Counts::default();
    let mut sent: BTreeMap<&str, u64> = BTreeMap::new();
    let mut shed: BTreeMap<&str, u64> = BTreeMap::new();
    for it in setup_items.iter().chain(items) {
        let r = c.responses.get(&it.id);
        out.check(check_response(it, r));
        n.requests += 1;
        let tenant_op = !matches!(it.op, "register" | "advance" | "health" | "drain");
        if tenant_op {
            *sent.entry(it.tenant).or_default() += 1;
        }
        if let Some(r) = r {
            n.not_ok += u64::from(!r.ok);
            match r.code.as_deref() {
                Some(codes::OVERLOADED) => n.overloaded += 1,
                Some(codes::RATE_LIMITED) => n.rate_limited += 1,
                Some(codes::EXPIRED) => n.expired += 1,
                _ => {}
            }
            if matches!(
                r.code.as_deref(),
                Some(codes::OVERLOADED | codes::RATE_LIMITED)
            ) {
                *shed.entry(it.tenant).or_default() += 1;
            }
        }
    }
    if c.bad_steps > 0 {
        out.fail(format!("{} step lines were refused", c.bad_steps));
    }
    for tenant in RESIDENTS.iter().chain(&[CHURN, FLOOD]) {
        match d.tenant_stats(tenant) {
            None => out.fail(format!("tenant {tenant} unknown to the daemon")),
            Some(s) => out.check(conservation(
                tenant,
                &s,
                d.queue_depth(tenant),
                sent.get(tenant).copied().unwrap_or(0),
                shed.get(tenant).copied().unwrap_or(0),
            )),
        }
    }
    let findings = d.lint();
    out.check((!findings.is_empty()).then(|| {
        format!(
            "Pass 4 findings: {:?}",
            findings.iter().map(|f| f.kind.code()).collect::<Vec<_>>()
        )
    }));
    (setup_s, wall, c, n, d)
}

/// Run the workload into `out`.
pub fn run(opts: &Opts, out: &mut Outcome) {
    let (mut setup, mut rates, mut untraced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut latency: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut traced: Vec<TracedUnit> = Vec::new();
    let mut digests = Digests::default();
    let mut first: Option<(usize, usize, Counts)> = None;

    let rss = repeat(opts.seconds, opts.trace, |set, tracing| {
        let seed = input_seed(opts.seed, set);
        let (setup_items, items) = script(seed, rounds(opts.size));
        let (setup_s, wall, c, counts, d) = unit(seed, (&setup_items, &items), tracing, out);
        setup.push(setup_s);
        digests.unit(set, c.digest.finish(), out);
        if first.is_none() {
            first = Some((setup_items.len(), items.len(), counts));
        }
        if tracing {
            let lines = d.history();
            let t = Instant::now();
            let parsed = lines
                .iter()
                .filter(|l| std::hint::black_box(parse_request(l)).is_ok())
                .count();
            let parse_us = secs(t) * 1e6 / lines.len().max(1) as f64;
            if parsed != lines.len() {
                out.fail(format!(
                    "{} of {} lines failed to parse",
                    lines.len() - parsed,
                    lines.len()
                ));
            }
            traced.push(TracedUnit {
                wall,
                ingest_s: c.ingest_s,
                parse_us,
                latency: c.latency,
                queue_depth_max: c.queue_depth_max,
            });
        } else {
            rates.push(items.len() as f64 / wall);
            untraced_walls.push(wall);
            for (op, v) in c.latency {
                latency.entry(op).or_default().extend(v);
            }
        }
        wall
    });

    let (setup_requests, requests, counts) = first.expect("repeat runs at least one unit");
    out.check_digest(digests.first());
    out.say(format!(
        "mix: {requests} requests per unit after {setup_requests} set-up requests; {} untraced \
         + {} traced units over up to {INPUT_SETS} input sets; input set 0 shed {} overloaded, \
         {} rate-limited, {} expired",
        rates.len(),
        traced.len(),
        counts.overloaded,
        counts.rate_limited,
        counts.expired
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
    out.show("req_per_s", median(&rates), "1/s", Some(rates.len()));
    for (name, op, q) in LATENCIES {
        let v = latency.get(op).map_or(&[][..], Vec::as_slice);
        out.show(name, quantile(v, q) * 1e6, "us", Some(v.len()));
    }
    out.show(
        "failed_frac",
        counts.not_ok as f64 / counts.requests as f64,
        "ratio",
        Some(counts.requests as usize),
    );

    if opts.trace {
        let m = |f: &dyn Fn(&TracedUnit) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let pooled = |op: &str| -> Vec<f64> {
            traced
                .iter()
                .flat_map(|u| u.latency.get(op).into_iter().flatten().copied())
                .collect()
        };
        let mut l = Layers::new();
        l.insert("serve.parse_us".into(), m(&|u| u.parse_us));
        for op in ["register", "advance", "health", "drain"] {
            l.insert(format!("serve.ingest_us.{op}"), median(&pooled(op)) * 1e6);
        }
        for (name, op, q) in LATENCIES {
            l.insert(format!("serve.{name}"), quantile(&pooled(op), q) * 1e6);
        }
        l.insert(
            "serve.failed_frac".into(),
            counts.not_ok as f64 / counts.requests as f64,
        );
        l.insert("serve.shed.overloaded".into(), counts.overloaded as f64);
        l.insert("serve.shed.rate_limited".into(), counts.rate_limited as f64);
        l.insert("serve.expired".into(), counts.expired as f64);
        l.insert(
            "serve.queue_depth_max".into(),
            traced.iter().map(|u| u.queue_depth_max).max().unwrap_or(0) as f64,
        );
        l.insert(
            "trace.overhead_s".into(),
            m(&|u| u.wall) - median(&untraced_walls),
        );
        l.insert(
            "trace.unattributed_share".into(),
            m(&|u| 1.0 - u.ingest_s / u.wall),
        );
        out.put_layers(l);
    }
}

/// The per-op latency statistics reported: `(metric, op, quantile)`.
const LATENCIES: [(&str, &str, f64); 7] = [
    ("send_p50_us", "send", 0.5),
    ("send_p99_us", "send", 0.99),
    ("poll_p50_us", "poll", 0.5),
    ("attest_p50_us", "attest", 0.5),
    ("attest_p99_us", "attest", 0.99),
    ("launch_p50_us", "launch", 0.5),
    ("teardown_p50_us", "teardown", 0.5),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_from_canonical_responses() {
        let ok = r#"{"id":12,"tenant":"t1","op":"send","ok":true,"delivered":3}"#;
        let bad = r#"{"id":7,"tenant":"flood","op":"send","ok":false,"code":"SERVE-OVERLOADED","error":"queue full at depth 2"}"#;
        assert_eq!(num_field(ok, "id"), Some(12));
        assert_eq!(str_field(ok, "code"), None);
        assert_eq!(str_field(bad, "code"), Some("SERVE-OVERLOADED"));
    }

    #[test]
    fn script_ids_are_unique_and_match_lines() {
        let (setup, items) = script(3, 200);
        let mut ids: Vec<u64> = setup.iter().chain(&items).map(|i| i.id).collect();
        for it in setup.iter().chain(&items) {
            assert_eq!(num_field(&it.line, "id"), Some(it.id), "{}", it.line);
            assert!(parse_request(&it.line).is_ok(), "{}", it.line);
        }
        ids.dedup();
        assert_eq!(ids.len(), setup.len() + items.len());
    }
}
