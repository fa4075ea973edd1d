//! The central security property of §4 as a property-based test:
//! under the S-NIC discipline (static cache partition + temporal bus),
//! a victim's microarchitectural timing is a pure function of its own
//! stream — for *any* victim workload and *any* attacker workload.

use proptest::prelude::*;
use snic_uarch::config::MachineConfig;
use snic_uarch::engine::run_colocated_warm;
use snic_uarch::stream::{EventSource, SyntheticStream};

fn streams(
    victim: (u64, u32, u32, u64, u64),
    attacker: (u64, u32, u32, u64, u64),
) -> Vec<EventSource> {
    let v = SyntheticStream::new(victim.0, victim.1, victim.2, victim.3, victim.4);
    let a = SyntheticStream::new(attacker.0, attacker.1, attacker.2, attacker.3, attacker.4);
    vec![v.into(), a.into()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn snic_victim_timing_independent_of_any_attacker(
        v_ws in 1u64..(8 << 20),
        v_insns in 1u32..20,
        v_seed in any::<u64>(),
        a1_ws in 1u64..(64 << 20),
        a1_events in 0u64..60_000,
        a1_seed in any::<u64>(),
        a2_ws in 1u64..(64 << 20),
        a2_events in 0u64..60_000,
        a2_seed in any::<u64>(),
    ) {
        let cfg = MachineConfig::snic(2, 2 << 20);
        let victim = (v_ws.max(64), v_insns, 4u32, 8_000u64, v_seed);
        let run1 = run_colocated_warm(&cfg, streams(victim, (a1_ws.max(64), 1, 1, a1_events.max(1), a1_seed)), &[]);
        let run2 = run_colocated_warm(&cfg, streams(victim, (a2_ws.max(64), 1, 1, a2_events.max(1), a2_seed)), &[]);
        prop_assert_eq!(run1.nfs[0].cycles, run2.nfs[0].cycles,
            "victim cycles must not depend on attacker behaviour");
        prop_assert_eq!(run1.nfs[0].l2_misses, run2.nfs[0].l2_misses);
        prop_assert_eq!(run1.nfs[0].l1_misses, run2.nfs[0].l1_misses);
    }

    #[test]
    fn commodity_ipc_never_negative_and_bounded(
        ws in 64u64..(32 << 20),
        insns in 1u32..30,
        events in 100u64..20_000,
        seed in any::<u64>(),
    ) {
        let cfg = MachineConfig::commodity(2, 1 << 20);
        let out = run_colocated_warm(&cfg, streams((ws, insns, 3, events, seed), (ws, insns, 3, events, seed ^ 1)), &[]);
        for nf in &out.nfs {
            let ipc = nf.ipc();
            prop_assert!(ipc > 0.0 && ipc <= 1.0, "ipc {ipc}");
            prop_assert!(nf.cycles >= nf.insns);
        }
    }

    #[test]
    fn snic_is_never_faster_than_its_own_baseline_much(
        ws in 64u64..(8 << 20),
        seed in any::<u64>(),
    ) {
        // Degradation can be slightly negative (partitioning shields a
        // tenant from a thrashing neighbor) but must stay in a sane band.
        let mk = |seed2: u64| streams((ws, 8, 4, 10_000, seed), (8 << 20, 1, 1, 40_000, seed2));
        let base = run_colocated_warm(&MachineConfig::commodity(2, 4 << 20), mk(3), &[]);
        let snic = run_colocated_warm(&MachineConfig::snic(2, 4 << 20), mk(3), &[]);
        let deg = snic.ipc_degradation_vs(&base, 0);
        prop_assert!(deg > -50.0 && deg < 90.0, "degradation {deg}%");
    }
}
