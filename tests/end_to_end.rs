//! End-to-end integration: multiple tenants' NFs on one S-NIC, real
//! traffic through the switching rules and VPPs, real NF processing,
//! attestation, and teardown/relaunch.

use rand::SeedableRng;
use snic::core::config::{NicConfig, NicMode};
use snic::core::device::SmartNic;
use snic::core::instr::{LaunchRequest, NfImage};
use snic::crypto::keys::VendorCa;
use snic::nf::{build, NetworkFunction, NfKind, NullSink, Verdict};
use snic::pktio::rules::{RuleMatch, SwitchRule};
use snic::trace::{IctfConfig, PhasedTrace};
use snic::types::{ByteSize, CoreId, FiveTuple, NfId};

fn vendor() -> VendorCa {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xe2e);
    VendorCa::new(&mut rng)
}

fn launch(nic: &mut SmartNic, core: u16, port: u16, name: &str) -> NfId {
    let request = LaunchRequest {
        rules: vec![SwitchRule {
            dst_port: RuleMatch::Exact(port),
            priority: 10,
            ..SwitchRule::any(NfId(0))
        }],
        ..LaunchRequest::minimal(
            CoreId(core),
            ByteSize::mib(8),
            NfImage {
                code: name.as_bytes().to_vec(),
                config: vec![],
            },
        )
    };
    nic.nf_launch(request).expect("launch").nf_id
}

#[test]
fn four_tenants_process_disjoint_traffic() {
    let v = vendor();
    let mut nic = SmartNic::new(NicConfig::small(NicMode::Snic), &v);
    let kinds = [
        NfKind::Firewall,
        NfKind::Nat,
        NfKind::LoadBalancer,
        NfKind::Monitor,
    ];
    let ports = [80u16, 8080, 443, 53];
    let ids: Vec<NfId> = kinds
        .iter()
        .zip(ports)
        .enumerate()
        .map(|(i, (k, port))| launch(&mut nic, i as u16, port, k.name()))
        .collect();

    // Generate realistic traffic and force the dst ports to rotate over
    // the four tenants.
    let mut trace = PhasedTrace::stationary(IctfConfig {
        flows: 500,
        ..IctfConfig::default()
    });
    let mut sent = [0u32; 4];
    for i in 0..600 {
        let mut pkt = trace.next_packet();
        // Rewrite the destination port to steer deterministically.
        let slot = i % 4;
        let mut raw = pkt.data.to_vec();
        let l4 = pkt.l4_offset();
        raw[l4 + 2..l4 + 4].copy_from_slice(&ports[slot].to_be_bytes());
        pkt = snic::types::Packet::from_bytes(bytes::Bytes::from(raw));
        if nic.rx_packet(&pkt).expect("rx") == Some(ids[slot]) {
            sent[slot] += 1;
        }
    }
    assert_eq!(sent, [150, 150, 150, 150]);

    // Each tenant's NF processes its own queue with real semantics.
    // (The firewall may legitimately drop packets that match deny rules;
    // the others should never drop well-formed traffic.)
    for (i, (&id, kind)) in ids.iter().zip(kinds).enumerate() {
        let mut nf = build(kind, 42);
        let mut processed = 0;
        while let Some(pkt) = nic.poll_packet(id).expect("poll") {
            let verdict = nf.process(&pkt, &mut NullSink);
            if kind != NfKind::Firewall {
                assert_ne!(verdict, Verdict::Drop, "tenant {i} dropped: {verdict:?}");
            }
            processed += 1;
        }
        assert_eq!(processed, 150, "tenant {i}");
    }
}

#[test]
fn teardown_then_relaunch_reuses_resources() {
    let v = vendor();
    let mut nic = SmartNic::new(NicConfig::small(NicMode::Snic), &v);
    for round in 0..5 {
        let ids: Vec<NfId> = (0..4)
            .map(|i| launch(&mut nic, i, 1000 + i, &format!("round{round}-{i}")))
            .collect();
        assert_eq!(nic.live_nfs(), 4);
        for id in ids {
            nic.nf_teardown(id).expect("teardown");
        }
        assert_eq!(nic.live_nfs(), 0);
    }
}

#[test]
fn measurement_changes_with_rules() {
    // The cumulative hash covers switching rules (§4.6), so two launches
    // differing only in rules must measure differently.
    let v = vendor();
    let mut nic = SmartNic::new(NicConfig::small(NicMode::Snic), &v);
    let a = launch(&mut nic, 0, 80, "same-code");
    let b = launch(&mut nic, 1, 81, "same-code");
    let ma = nic.measurement_of(a).unwrap();
    let mb = nic.measurement_of(b).unwrap();
    assert_ne!(ma, mb);
}

#[test]
fn nat_rewrites_survive_the_tx_path() {
    let v = vendor();
    let mut nic = SmartNic::new(NicConfig::small(NicMode::Snic), &v);
    let id = launch(&mut nic, 0, 80, "nat");
    let mut nat = snic::nf::NatNf::with_defaults(0);

    let pkt = snic::types::packet::PacketBuilder::new(
        0x0a00_0001,
        0xc633_0001,
        snic::types::Protocol::Tcp,
        5555,
        80,
    )
    .payload(b"data".to_vec())
    .build();
    nic.rx_packet(&pkt).expect("rx");
    let delivered = nic.poll_packet(id).expect("poll").expect("queued");
    let Verdict::Rewritten(out) = nat.process(&delivered, &mut NullSink) else {
        panic!("expected rewrite");
    };
    nic.tx_packet(id, out).expect("tx");
    let on_wire = nic.wire_pop().expect("wire");
    let ft = FiveTuple::from_packet(&on_wire).unwrap();
    assert_eq!(ft.src_ip, 0xc0a8_0001, "NAT external address on the wire");
    assert!(on_wire.ipv4().unwrap().checksum_ok());
}
