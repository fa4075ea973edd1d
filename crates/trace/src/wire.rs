//! Trace serialization: a compact binary format for packet traces.
//!
//! Experiments that want byte-identical workloads across machines (or
//! want to skip regeneration cost) can export a generated trace and
//! reload it later. The format is deliberately simple:
//!
//! ```text
//! magic "SNICTRC1" | count: u32 LE | count x ( arrival_ps: u64 LE |
//!                                              len: u32 LE | bytes )
//! ```

use bytes::Bytes;
use snic_types::{Packet, Picos, SnicError};

/// Format magic.
pub const MAGIC: &[u8; 8] = b"SNICTRC1";

/// Serialize packets to the wire format.
pub fn serialize_trace(packets: &[Packet]) -> Vec<u8> {
    let body: usize = packets.iter().map(|p| 12 + p.len()).sum();
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + body);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(packets.len() as u32).to_le_bytes());
    for p in packets {
        out.extend_from_slice(&p.arrival.0.to_le_bytes());
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(&p.data);
    }
    out
}

/// Deserialize a trace; strict (rejects truncation, bad magic, and
/// trailing garbage).
pub fn deserialize_trace(data: &[u8]) -> Result<Vec<Packet>, SnicError> {
    let take = |data: &[u8], at: &mut usize, n: usize| -> Result<Vec<u8>, SnicError> {
        let end = at
            .checked_add(n)
            .filter(|&e| e <= data.len())
            .ok_or(SnicError::Malformed("trace truncated"))?;
        let out = data[*at..end].to_vec();
        *at = end;
        Ok(out)
    };
    let mut at = 0usize;
    if take(data, &mut at, 8)? != MAGIC {
        return Err(SnicError::Malformed("bad trace magic"));
    }
    let count = u32::from_le_bytes(take(data, &mut at, 4)?.try_into().expect("4 bytes")) as usize;
    let mut out = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let arrival = u64::from_le_bytes(take(data, &mut at, 8)?.try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(take(data, &mut at, 4)?.try_into().expect("4 bytes")) as usize;
        let bytes = take(data, &mut at, len)?;
        let mut p = Packet::from_bytes(Bytes::from(bytes));
        p.arrival = Picos(arrival);
        out.push(p);
    }
    if at != data.len() {
        return Err(SnicError::Malformed("trailing bytes after trace"));
    }
    Ok(out)
}

/// Write a trace to a file.
pub fn save_trace(path: &std::path::Path, packets: &[Packet]) -> std::io::Result<()> {
    std::fs::write(path, serialize_trace(packets))
}

/// Read a trace from a file.
pub fn load_trace(path: &std::path::Path) -> Result<Vec<Packet>, SnicError> {
    let data =
        std::fs::read(path).map_err(|e| SnicError::InvalidConfig(format!("read {path:?}: {e}")))?;
    deserialize_trace(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IctfConfig, PhasedTrace};

    fn sample(n: usize) -> Vec<Packet> {
        let mut t = PhasedTrace::stationary(IctfConfig {
            flows: 100,
            mean_payload: 64,
            ..IctfConfig::default()
        });
        (0..n)
            .map(|i| {
                let mut p = t.next_packet();
                p.arrival = Picos(i as u64 * 1000);
                p
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let packets = sample(50);
        let got = deserialize_trace(&serialize_trace(&packets)).unwrap();
        assert_eq!(got, packets);
    }

    #[test]
    fn empty_trace_round_trips() {
        assert_eq!(deserialize_trace(&serialize_trace(&[])).unwrap(), vec![]);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut data = serialize_trace(&sample(3));
        data[0] ^= 0xff;
        assert!(deserialize_trace(&data).is_err());
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let data = serialize_trace(&sample(5));
        for cut in [7usize, 11, 20, data.len() - 1] {
            assert!(deserialize_trace(&data[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut data = serialize_trace(&sample(2));
        data.push(0);
        assert!(deserialize_trace(&data).is_err());
    }

    #[test]
    fn file_round_trip() {
        let packets = sample(10);
        let path = std::env::temp_dir().join("snic_trace_roundtrip.bin");
        save_trace(&path, &packets).unwrap();
        let got = load_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(got, packets);
    }

    #[test]
    fn count_mismatch_rejected() {
        // Claiming more packets than present must fail, not loop.
        let mut data = serialize_trace(&sample(1));
        data[8..12].copy_from_slice(&100u32.to_le_bytes());
        assert!(deserialize_trace(&data).is_err());
    }
}
