//! Payload blindness: the streamed pipelines build payload bytes only
//! for NF kinds that read them (`NfKind::reads_payload`), and give the
//! others zeroed payloads of the same length. That is sound only while
//! those kinds' access streams ignore payload bytes.
//!
//! For every kind, `tenant_source` and `nf_trace_source` must equal the
//! same NF recorded over full-payload `next_packet()` packets. For DPI,
//! recording over zeroed payloads must change the stream, so the
//! comparison can tell the two packet streams apart. A future NF that
//! starts reading payload bytes without claiming `reads_payload` fails
//! here.

use snic_bench::colo::{tenant_source, TenantSpec};
use snic_bench::streams::{build_scaled, nf_trace_source, workload_config};
use snic_bench::Scale;
use snic_nf::{NetworkFunction, NfKind, RecordingSink};
use snic_trace::{PhaseSchedule, PhasedConfig, PhasedTrace};
use snic_uarch::{Access, AccessKind, TraceSource};

const SEEDS: [u64; 3] = [1, 7, 0xc010];

/// Events each tenant streams.
const EVENTS: u64 = 20_000;

fn tiny() -> Scale {
    Scale {
        flows: 300,
        packets: 300,
        patterns: 80,
        fw_rules: 50,
        lpm_prefixes: 150,
        monitor_ms: 20,
    }
}

/// Everything `src` emits, up to `cap` events.
fn drain(src: &mut dyn TraceSource, cap: u64) -> Vec<Access> {
    let mut buf = vec![
        Access {
            insns: 1,
            addr: 0,
            kind: AccessKind::Load,
        };
        512
    ];
    let mut out = Vec::new();
    while (out.len() as u64) < cap {
        let n = src.fill(&mut buf);
        if n == 0 {
            break;
        }
        out.extend_from_slice(&buf[..n]);
    }
    out.truncate(cap.min(out.len() as u64) as usize);
    out
}

/// Record `nf` over at most `packets` packets of `trace`, stopping once
/// `events` accesses are recorded, with full or zeroed payloads.
fn record(
    mut nf: Box<dyn NetworkFunction>,
    mut trace: PhasedTrace,
    packets: usize,
    events: u64,
    payload: bool,
) -> Vec<Access> {
    let mut sink = RecordingSink::new();
    for _ in 0..packets {
        if sink.accesses().len() as u64 >= events {
            break;
        }
        let pkt = if payload {
            trace.next_packet()
        } else {
            trace.next_header_only_packet()
        };
        let _ = nf.process(&pkt, &mut sink);
    }
    let mut out = sink.into_accesses();
    out.truncate(events.min(out.len() as u64) as usize);
    out
}

fn spec(kind: NfKind, seed: u64) -> TenantSpec {
    TenantSpec {
        kind,
        schedule: PhaseSchedule::realistic(1_000),
        seed,
        events: EVENTS,
    }
}

/// `spec`'s tenant recorded directly over its phased packet stream.
fn record_tenant(spec: &TenantSpec, payload: bool) -> Vec<Access> {
    let trace = PhasedTrace::new(PhasedConfig {
        base: workload_config(&tiny(), spec.seed),
        schedule: spec.schedule.clone(),
    });
    let nf = build_scaled(spec.kind, &tiny(), spec.seed);
    record(nf, trace, usize::MAX, spec.events, payload)
}

/// `kind`'s fig5 recording made directly over its stationary workload
/// (the per-kind workload seed `nf_trace_source` uses).
fn record_fig5(kind: NfKind, seed: u64, payload: bool) -> Vec<Access> {
    let trace = PhasedTrace::stationary(workload_config(&tiny(), seed ^ kind as u64 ^ 0x5eed));
    let nf = build_scaled(kind, &tiny(), seed);
    record(nf, trace, tiny().packets, u64::MAX, payload)
}

#[test]
fn only_dpi_reads_payload() {
    let readers: Vec<NfKind> = NfKind::ALL
        .into_iter()
        .filter(|k| k.reads_payload())
        .collect();
    assert_eq!(readers, [NfKind::Dpi]);
}

#[test]
fn tenant_source_matches_full_payload_recording() {
    for seed in SEEDS {
        for kind in NfKind::ALL {
            let spec = spec(kind, seed);
            let streamed = drain(tenant_source(&spec, &tiny()).as_mut(), u64::MAX);
            assert_eq!(streamed.len() as u64, EVENTS, "{kind:?} seed {seed}");
            assert!(
                streamed == record_tenant(&spec, true),
                "{kind:?} seed {seed}: streamed tenant differs from a full-payload recording"
            );
        }
    }
}

#[test]
fn nf_trace_source_matches_full_payload_recording() {
    for seed in SEEDS {
        for kind in NfKind::ALL {
            let streamed = drain(nf_trace_source(kind, &tiny(), seed).as_mut(), u64::MAX);
            assert!(!streamed.is_empty(), "{kind:?} seed {seed}");
            assert!(
                streamed == record_fig5(kind, seed, true),
                "{kind:?} seed {seed}: streamed recording differs from a full-payload recording"
            );
        }
    }
}

#[test]
fn zeroed_payloads_change_the_dpi_stream() {
    for seed in SEEDS {
        assert!(
            record_tenant(&spec(NfKind::Dpi, seed), true)
                != record_tenant(&spec(NfKind::Dpi, seed), false),
            "seed {seed}: DPI tenant stream ignores payload bytes"
        );
        assert!(
            record_fig5(NfKind::Dpi, seed, true) != record_fig5(NfKind::Dpi, seed, false),
            "seed {seed}: DPI fig5 stream ignores payload bytes"
        );
    }
}
