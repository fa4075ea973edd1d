//! Property tests for the workload-phase layer: any schedule, any
//! seed — the stream must stay deterministic, in-pool, and conservative
//! (N draws produce exactly N events), and header-only packets must
//! differ from full ones in payload bytes alone.

use proptest::prelude::*;
use snic_trace::{IctfConfig, PhaseSchedule, PhasedConfig, PhasedTrace};

fn schedules() -> impl Strategy<Value = PhaseSchedule> {
    (
        0u64..2_000,
        1u32..=100,
        (0u64..2_000, 0u64..1_000, 0usize..32, 0u32..=100),
        0u64..2_000,
        (0u64..2_000, 0u32..=100),
    )
        .prop_map(
            |(
                diurnal_period,
                trough_active_pct,
                (flash_every, flash_len, flash_hot_flows, flash_share_pct),
                migrate_every,
                (churn_every, churn_pct),
            )| PhaseSchedule {
                diurnal_period,
                trough_active_pct,
                flash_every,
                flash_len,
                flash_hot_flows,
                flash_share_pct,
                migrate_every,
                churn_every,
                churn_pct,
            },
        )
}

fn config(flows: usize, seed: u64, schedule: PhaseSchedule) -> PhasedConfig {
    PhasedConfig {
        base: IctfConfig {
            flows,
            mean_payload: 32,
            seed,
            ..IctfConfig::default()
        },
        schedule,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same (schedule, seed) ⇒ the identical packet sequence — the
    /// invariant streamed replays and the sim pool's rewinds rest on.
    #[test]
    fn seed_deterministic_under_any_schedule(
        sched in schedules(),
        seed in any::<u64>(),
        n in 1usize..400,
    ) {
        let mut a = PhasedTrace::new(config(200, seed, sched.clone()));
        let mut b = PhasedTrace::new(config(200, seed, sched));
        for _ in 0..n {
            prop_assert_eq!(a.next_packet(), b.next_packet());
        }
    }

    /// Event conservation: n draws tick the phase clock exactly n
    /// times, and every drawn flow is a member of the generated pool —
    /// no phase transform invents or loses traffic.
    #[test]
    fn draws_conserve_events_and_stay_in_pool(
        sched in schedules(),
        seed in any::<u64>(),
        n in 1u64..400,
    ) {
        let mut t = PhasedTrace::new(config(100, seed, sched));
        for _ in 0..n {
            let f = t.next_flow();
            prop_assert!(t.flow_table().iter().any(|g| *g == f));
        }
        prop_assert_eq!(t.generated(), n);
    }

    /// A header-only stream draws the same flows and lengths as the
    /// full stream under any schedule: the packets differ only in their
    /// payload bytes, which are all zero.
    #[test]
    fn header_only_packets_differ_only_in_payload(
        sched in schedules(),
        seed in any::<u64>(),
    ) {
        let mut full = PhasedTrace::new(config(150, seed, sched.clone()));
        let mut bare = PhasedTrace::new(config(150, seed, sched));
        for _ in 0..200 {
            let f = full.next_packet();
            let b = bare.next_header_only_packet();
            let hdr = f.len() - f.payload().len();
            prop_assert_eq!(b.len(), f.len());
            prop_assert_eq!(&b.data[..hdr], &f.data[..hdr]);
            prop_assert!(b.payload().iter().all(|&x| x == 0));
        }
    }
}
