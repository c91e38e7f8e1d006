//! Property tests for the TCP endpoint: reassembly equivalence against
//! a naive model, receiver-ACK invariants under arbitrary segment
//! arrival orders, and state-machine robustness (no panics, no
//! acknowledgment of never-received data).

use proptest::prelude::*;
use reorder_tcpstack::{Conn, ConnCfg, DelayedAck, HostPersonality, ReasmQueue, SecondSynBehavior};
use reorder_wire::{SeqNum, TcpFlags, TcpHeader, TcpOption};
use std::collections::BTreeSet;

// --- Reassembly queue vs naive byte-set model ------------------------------

/// Naive model: the set of byte offsets received out-of-order.
#[derive(Default)]
struct NaiveReasm {
    bytes: BTreeSet<u64>,
}

impl NaiveReasm {
    fn insert(&mut self, start: u64, len: u32) {
        for b in start..start + u64::from(len) {
            self.bytes.insert(b);
        }
    }

    fn advance(&mut self, mut edge: u64) -> u64 {
        while self.bytes.remove(&edge) {
            edge += 1;
        }
        // Drop stale bytes below the edge.
        self.bytes = self.bytes.split_off(&edge);
        edge
    }

    /// Maximal runs of held bytes, ascending: the SACK blocks.
    fn runs(&self) -> Vec<(u64, u32)> {
        let mut runs: Vec<(u64, u32)> = Vec::new();
        for &b in &self.bytes {
            match runs.last_mut() {
                Some((start, len)) if *start + u64::from(*len) == b => *len += 1,
                _ => runs.push((b, 1)),
            }
        }
        runs
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The range-based queue must agree with the naive per-byte model
    /// on every interleaving of inserts and advances (within a window
    /// that avoids sequence wraparound, which the naive model cannot
    /// express).
    #[test]
    fn reasm_matches_naive_model(
        ops in proptest::collection::vec(
            prop_oneof![
                // insert(offset, len)
                (0u64..2000, 1u32..50).prop_map(|(o, l)| (0u8, o, l)),
                // advance(edge)
                (0u64..2050).prop_map(|e| (1u8, e, 0u32)),
            ],
            1..40,
        )
    ) {
        let base = 1_000_000u64;
        let mut real = ReasmQueue::new();
        let mut naive = NaiveReasm::default();
        let mut real_edge;
        let mut naive_edge = base;
        for (kind, a, b) in ops {
            match kind {
                0 => {
                    real.insert(SeqNum((base + a) as u32), b);
                    naive.insert(base + a, b);
                }
                _ => {
                    // Only advance forward (TCP edges are monotone).
                    let target = base + a;
                    if target >= naive_edge {
                        real_edge = real.advance(SeqNum(target as u32));
                        naive_edge = naive.advance(target);
                        prop_assert_eq!(
                            u64::from(real_edge.raw()),
                            naive_edge & 0xffff_ffff,
                            "edges diverged"
                        );
                    }
                }
            }
            prop_assert_eq!(real.is_empty(), naive.bytes.is_empty());
            let blocks: Vec<(u64, u32)> = real
                .blocks()
                .iter()
                .map(|&(s, l)| (u64::from(s.raw()), l))
                .collect();
            prop_assert_eq!(blocks, naive.runs(), "blocks diverged");
        }
    }
}

// --- Connection invariants ---------------------------------------------------

fn cfg() -> ConnCfg {
    let p = HostPersonality::freebsd4();
    ConnCfg {
        delayed_ack: DelayedAck::disabled(), // every segment ACKed: easy to audit
        second_syn: SecondSynBehavior::RstAlways,
        mss: p.mss,
        window: p.window,
        object_size: 0,
        sack: true,
    }
}

fn seg(seq: u32, flags: TcpFlags) -> TcpHeader {
    TcpHeader {
        src_port: 4000,
        dst_port: 80,
        seq: SeqNum(seq),
        ack: SeqNum(1001),
        flags,
        window: 65535,
        urgent: 0,
        options: vec![],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Feed an established connection arbitrary small data segments in
    /// arbitrary order. Invariants:
    /// 1. never panics;
    /// 2. every cumulative ACK acknowledges only bytes actually
    ///    received (the ACK edge never passes unreceived data);
    /// 3. the ACK edge is monotone;
    /// 4. SACK blocks only ever describe received bytes.
    #[test]
    fn receiver_acks_only_received_data(
        segments in proptest::collection::vec((0u32..60, 1usize..4), 1..50)
    ) {
        // Establish: irs = 1000, so data bytes start at 1001.
        let syn = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: SeqNum(1000),
            ack: SeqNum(0),
            flags: TcpFlags::SYN,
            window: 65535,
            urgent: 0,
            options: vec![TcpOption::Mss(1460)],
        };
        let mut out = Vec::new();
        let mut c = Conn::accept(&syn, SeqNum(5000), cfg(), &mut out);
        out.clear();
        c.on_segment(&seg(1001, TcpFlags::ACK), &[], &mut out);
        out.clear();

        let mut received = BTreeSet::new(); // byte offsets (0-based from 1001)
        let mut last_ack = 1001u32;
        for (off, len) in segments {
            let data = vec![0xAA; len];
            for b in off..off + len as u32 {
                received.insert(b);
            }
            c.on_segment(&seg(1001 + off, TcpFlags::ACK), &data, &mut out);
            for s in out.drain(..) {
                if !s.flags.contains(TcpFlags::ACK) {
                    continue;
                }
                let ack = s.ack.raw();
                // Monotone.
                prop_assert!(ack >= last_ack, "ACK regressed {last_ack} -> {ack}");
                last_ack = ack;
                // Covers only received bytes.
                for b in 0..ack.saturating_sub(1001) {
                    prop_assert!(
                        received.contains(&b),
                        "ACK {ack} covers unreceived byte {b}"
                    );
                }
                // SACK blocks describe received data only.
                for opt in &s.options {
                    if let TcpOption::Sack(blocks) = opt {
                        for &(l, r) in blocks {
                            prop_assert!(l < r, "empty/inverted SACK block");
                            for b in l.raw()..r.raw() {
                                prop_assert!(
                                    received.contains(&(b - 1001)),
                                    "SACK covers unreceived byte {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Arbitrary flag/sequence soup must never panic and never elicit
    /// data the server was not asked for.
    #[test]
    fn connection_survives_arbitrary_segments(
        soup in proptest::collection::vec((any::<u32>(), 0u8..64, 0usize..5), 1..60)
    ) {
        let syn = TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: SeqNum(1000),
            ack: SeqNum(0),
            flags: TcpFlags::SYN,
            window: 65535,
            urgent: 0,
            options: vec![],
        };
        let mut out = Vec::new();
        let mut c = Conn::accept(&syn, SeqNum(5000), cfg(), &mut out);
        out.clear();
        for (sq, flags, dlen) in soup {
            let h = TcpHeader {
                src_port: 4000,
                dst_port: 80,
                seq: SeqNum(sq),
                ack: SeqNum(5001),
                flags: TcpFlags(flags),
                window: 1024,
                urgent: 0,
                options: vec![],
            };
            let data = vec![0u8; dlen];
            c.on_segment(&h, &data, &mut out);
            for s in out.drain(..) {
                prop_assert!(
                    s.data.is_empty(),
                    "server with no object must never send data"
                );
            }
        }
    }
}
