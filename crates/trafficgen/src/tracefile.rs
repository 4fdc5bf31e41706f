//! A compact on-disk format for packet traces.
//!
//! The paper replays one fixed campus trace across every NFV experiment;
//! capture/replay makes that workflow explicit here: generate a trace
//! once (or convert a real one), save it, and replay the identical
//! packet stream across configurations and machines. The format is a
//! simple little-endian record stream:
//!
//! ```text
//! magic "SATR" | version=2 u16 | count u64 |
//! count x { src_ip u32, dst_ip u32, src_port u16, dst_port u16,
//!           proto u8, size u16, seq u64, arrival_ns u64 }      (31 B)
//! ```
//!
//! Each record carries its arrival timestamp in simulated nanoseconds,
//! so recorded or synthesized traces reproduce their inter-arrival
//! structure on replay (see [`crate::replay::TraceReplay`]). Version 1,
//! the untimed 23 B record, is no longer read: it is rejected as an
//! unsupported version like any other.
//!
//! # Corrupt-input hardening
//!
//! The header `count` is untrusted. The reader ([`read_trace_timed_bytes`])
//! knows the input length and fails fast when `count × record_len`
//! exceeds the bytes actually present — before allocating or looping.

use crate::flow::FlowTuple;
use crate::trace::PacketSpec;
use std::io::{self, Write};

/// File magic.
pub const MAGIC: [u8; 4] = *b"SATR";
/// Version written by [`write_trace_v2`], the only version read.
pub const VERSION_V2: u16 = 2;
/// Bytes per packet record.
pub const RECORD_LEN_V2: usize = 31;
/// Bytes in the header (`magic | version | count`).
pub const HEADER_LEN: usize = 14;
/// Bytes of a record's [`PacketSpec`]; `arrival_ns` follows.
const SPEC_LEN: usize = 23;

/// A packet plus the simulated-ns timestamp at which it arrived: one
/// trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedPacket {
    pub spec: PacketSpec,
    pub arrival_ns: u64,
}

fn encode_spec(rec: &mut [u8], p: &PacketSpec) {
    rec[0..4].copy_from_slice(&p.flow.src_ip.to_le_bytes());
    rec[4..8].copy_from_slice(&p.flow.dst_ip.to_le_bytes());
    rec[8..10].copy_from_slice(&p.flow.src_port.to_le_bytes());
    rec[10..12].copy_from_slice(&p.flow.dst_port.to_le_bytes());
    rec[12] = p.flow.proto;
    rec[13..15].copy_from_slice(&p.size.to_le_bytes());
    rec[15..23].copy_from_slice(&p.seq.to_le_bytes());
}

fn decode_spec(rec: &[u8]) -> PacketSpec {
    PacketSpec {
        flow: FlowTuple {
            src_ip: u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")),
            dst_ip: u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes")),
            src_port: u16::from_le_bytes([rec[8], rec[9]]),
            dst_port: u16::from_le_bytes([rec[10], rec[11]]),
            proto: rec[12],
        },
        size: u16::from_le_bytes([rec[13], rec[14]]),
        seq: u64::from_le_bytes(rec[15..23].try_into().expect("8 bytes")),
    }
}

/// Writes a trace to `w`.
pub fn write_trace_v2<W: Write>(mut w: W, packets: &[TimedPacket]) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION_V2.to_le_bytes())?;
    w.write_all(&(packets.len() as u64).to_le_bytes())?;
    let mut rec = [0u8; RECORD_LEN_V2];
    for p in packets {
        encode_spec(&mut rec[..SPEC_LEN], &p.spec);
        rec[SPEC_LEN..].copy_from_slice(&p.arrival_ns.to_le_bytes());
        w.write_all(&rec)?;
    }
    Ok(())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads a trace from the in-memory buffer `buf`. The length is known,
/// so a header `count` that can't fit in the buffer fails fast —
/// before any allocation or per-record loop.
///
/// # Errors
///
/// `InvalidData` on a truncated header, a bad magic, an unsupported
/// version (v1 included), or a `count` the payload cannot hold.
pub fn read_trace_timed_bytes(buf: &[u8]) -> io::Result<Vec<TimedPacket>> {
    let Some((header, body)) = buf.split_first_chunk::<HEADER_LEN>() else {
        return Err(invalid("truncated header".into()));
    };
    if header[0..4] != MAGIC {
        return Err(invalid("bad magic".into()));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != VERSION_V2 {
        return Err(invalid(format!("unsupported version {version}")));
    }
    let count = u64::from_le_bytes(header[6..14].try_into().expect("8 bytes"));
    let fits = count
        .checked_mul(RECORD_LEN_V2 as u64)
        .is_some_and(|need| need <= body.len() as u64);
    if !fits {
        return Err(invalid(format!(
            "header claims {count} records ({RECORD_LEN_V2} B each) but only {} payload bytes remain",
            body.len()
        )));
    }
    Ok(body
        .chunks_exact(RECORD_LEN_V2)
        .take(count as usize) // fits: at most body.len() / RECORD_LEN_V2
        .map(|rec| TimedPacket {
            spec: decode_spec(rec),
            arrival_ns: u64::from_le_bytes(rec[SPEC_LEN..].try_into().expect("8 bytes")),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::trace::{CampusTrace, SizeMix};

    #[test]
    fn roundtrip_preserves_every_field() {
        let mut t = CampusTrace::new(SizeMix::campus(), 500, 42);
        let packets: Vec<TimedPacket> = t
            .take(2_000)
            .into_iter()
            .zip(0u64..)
            .map(|(spec, i)| TimedPacket {
                spec,
                arrival_ns: i * 67,
            })
            .collect();
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &packets).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 2_000 * RECORD_LEN_V2);
        assert_eq!(read_trace_timed_bytes(&buf).unwrap(), packets);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &[]).unwrap();
        assert_eq!(read_trace_timed_bytes(&buf).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec();
        let err = read_trace_timed_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &[]).unwrap();
        // 1 is the retired untimed format; 99 was never written.
        for version in [1u8, 99] {
            buf[4] = version;
            let err = read_trace_timed_bytes(&buf).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains(&format!("unsupported version {version}")),
                "{err}"
            );
        }
    }

    fn timed_packets(n: usize) -> Vec<TimedPacket> {
        let mut t = CampusTrace::new(SizeMix::campus(), 64, 7);
        let mut arrival = 0u64;
        t.take(n)
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                arrival += 100 + (i as u64 % 13) * 37;
                TimedPacket {
                    spec,
                    arrival_ns: arrival,
                }
            })
            .collect()
    }

    /// Round-trip preserves every field including `arrival_ns`, and
    /// the record length is the documented 31 B.
    #[test]
    fn v2_roundtrip_preserves_arrival_ns() {
        let packets = timed_packets(300);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &packets).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + 300 * RECORD_LEN_V2);
        assert_eq!(u16::from_le_bytes([buf[4], buf[5]]), VERSION_V2);
        assert_eq!(read_trace_timed_bytes(&buf).unwrap(), packets);
    }

    /// A truncated body is caught at the header: the known length
    /// exposes the `count` the payload can no longer hold.
    #[test]
    fn v2_truncation_reported_with_position() {
        let packets = timed_packets(10);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &packets).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_trace_timed_bytes(&buf).unwrap_err();
        assert!(err.to_string().contains("but only"), "{err}");
    }

    /// A corrupt huge header `count` must fail fast — at the header,
    /// before any allocation or record loop.
    #[test]
    fn corrupt_count_fails_fast_on_slice_reader() {
        let packets = timed_packets(4);
        let mut buf = Vec::new();
        write_trace_v2(&mut buf, &packets).unwrap();
        buf[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_trace_timed_bytes(&buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("payload bytes remain"), "{err}");
    }

    /// Fuzz-style: random single-byte corruptions of the header (and a
    /// few random tail truncations) must produce a clean `InvalidData`
    /// error or a successful parse — never a panic and never a
    /// countably-absurd allocation.
    #[test]
    fn fuzzed_headers_never_panic() {
        let packets = timed_packets(16);
        let mut pristine = Vec::new();
        write_trace_v2(&mut pristine, &packets).unwrap();
        let mut rng = Rng64::seed_from_u64(0xC0FFEE);
        for _ in 0..500 {
            let mut buf = pristine.clone();
            // Corrupt 1-3 header bytes.
            for _ in 0..=rng.gen_range(0..3u64) {
                let pos = rng.gen_range(0..HEADER_LEN as u64) as usize;
                buf[pos] ^= rng.gen_range(1..256u64) as u8;
            }
            // Sometimes also truncate the tail.
            if rng.gen_range(0..4u64) == 0 {
                let keep = rng.gen_range(0..buf.len() as u64) as usize;
                buf.truncate(keep);
            }
            // A surviving parse can never claim more records than the
            // bytes present could encode.
            let most = buf.len() / RECORD_LEN_V2;
            match read_trace_timed_bytes(&buf) {
                Ok(t) => assert!(t.len() <= most),
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            }
        }
    }
}
