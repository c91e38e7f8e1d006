//! The Single Connection Test (§III-B, Fig. 1).
//!
//! One TCP connection; each sample has a **preparation phase** — park a
//! byte one past `rcv_nxt` so the receiver holds a sequence "hole" — and
//! a **measurement phase** — send two 1-byte segments straddling the
//! hole. The receiver's ACK stream then encodes the arrival order:
//!
//! * in-order (`data 1`, `data 3` in the paper's labels): `ack 3`
//!   (hole fill) then `ack 4`;
//! * exchanged: `ack 1` (immediate duplicate) then `ack 4`;
//! * reverse-path exchange: the cumulative `ack 4` arrives *first*.
//!
//! The **reversed variant** sends `data 3` before `data 1` so that the
//! first packet is always out-of-order and acknowledged immediately —
//! sidestepping delayed ACKs at the cost of the lone-`ack 4` ambiguity
//! (forward reordering and reverse loss become indistinguishable; such
//! samples are discarded).

use crate::measurer::{Requirements, Session, Technique};
use crate::probe::{ClientConn, ProbeError, Prober};
use crate::sample::{
    MeasurementRun, Order, PacketMatcher, SampleForensics, SampleOutcome, SampleRecord, TestConfig,
};
use crate::techniques::TestKind;
use reorder_wire::{Bytes, SeqNum, TcpFlags};
use std::time::Duration;

thread_local! {
    /// The hole, resync and sample payloads, built once per thread and
    /// shared, so a probe bumps a refcount instead of allocating.
    static HOLE_DATA: Bytes = Bytes::from(&b"H"[..]);
    static RESYNC_DATA: Bytes = Bytes::from(&b"RSY"[..]);
    static LOW_DATA: Bytes = Bytes::from(&b"A"[..]);
    static HIGH_DATA: Bytes = Bytes::from(&b"B"[..]);
}

/// The Single Connection Test.
#[derive(Debug, Clone)]
pub struct SingleConnectionTest {
    /// Shared knobs.
    pub cfg: TestConfig,
    /// Send the higher-sequence sample packet first (defeats delayed
    /// ACKs; see module docs).
    pub reversed: bool,
}

impl SingleConnectionTest {
    /// In-order variant.
    pub fn new(cfg: TestConfig) -> Self {
        SingleConnectionTest {
            cfg,
            reversed: false,
        }
    }

    /// Reversed variant.
    pub fn reversed(cfg: TestConfig) -> Self {
        SingleConnectionTest {
            cfg,
            reversed: true,
        }
    }

    /// Await an ACK on `conn`'s reverse flow with the given ack value.
    fn await_ack(&self, p: &mut Prober, conn: &ClientConn, ack: SeqNum) -> bool {
        let flow = conn.flow;
        p.recv_where(
            |pkt| {
                pkt.flow() == Some(flow.reversed())
                    && pkt
                        .tcp()
                        .is_some_and(|t| t.flags.contains(TcpFlags::ACK) && t.ack == ack)
            },
            self.cfg.reply_timeout,
        )
        .is_some()
    }

    /// Preparation phase: park one byte at `base + 1` and confirm the
    /// hole via the duplicate ACK ("sending a slightly out-of-order
    /// packet repeatedly until the sender receives an acknowledgment
    /// indicating that an earlier packet is expected").
    fn prepare_hole(&self, p: &mut Prober, conn: &ClientConn, base: SeqNum) -> bool {
        for _attempt in 0..5 {
            let pkt = p
                .tcp_pkt(conn)
                .seq(base + 1)
                .ack(conn.rcv_nxt)
                .flags(TcpFlags::ACK)
                .data(HOLE_DATA.with(Bytes::clone))
                .build();
            p.send(pkt);
            if self.await_ack(p, conn, base) {
                return true;
            }
        }
        false
    }

    /// Recover a sample that lost packets: send one 3-byte segment
    /// covering `[base, base+3)` until the cumulative ACK confirms the
    /// remote caught up, so the next sample starts from known state.
    fn resync(&self, p: &mut Prober, conn: &ClientConn, base: SeqNum) -> Result<(), ProbeError> {
        for _attempt in 0..5 {
            let pkt = p
                .tcp_pkt(conn)
                .seq(base)
                .ack(conn.rcv_nxt)
                .flags(TcpFlags::ACK)
                .data(RESYNC_DATA.with(Bytes::clone))
                .build();
            p.send(pkt);
            if self.await_ack(p, conn, base + 3) {
                return Ok(());
            }
        }
        Err(ProbeError::Timeout {
            waiting_for: "resync ACK",
        })
    }

    /// One sample: prepare, fire the straddling pair, classify.
    fn sample(&self, p: &mut Prober, conn: &mut ClientConn) -> Result<SampleRecord, ProbeError> {
        let base = conn.snd_nxt;
        let flow = conn.flow;
        let prepared = self.prepare_hole(p, conn, base);
        // Consume any straggler duplicate ACKs from retried preparations.
        p.run_for(Duration::from_millis(1));
        p.flush();
        if !prepared {
            // Can't even park the hole byte: resync and discard.
            self.resync(p, conn, base)?;
            conn.snd_nxt = base + 3;
            return Ok(discard_record(p, flow));
        }

        let started = p.now();
        let low_ipid = p.alloc_ipid();
        let high_ipid = p.alloc_ipid();
        let mk_low = |p: &mut Prober, conn: &ClientConn| {
            p.tcp_pkt(conn)
                .ipid(low_ipid)
                .seq(base)
                .ack(conn.rcv_nxt)
                .flags(TcpFlags::ACK)
                .data(LOW_DATA.with(Bytes::clone))
                .build()
        };
        let mk_high = |p: &mut Prober, conn: &ClientConn| {
            p.tcp_pkt(conn)
                .ipid(high_ipid)
                .seq(base + 2)
                .ack(conn.rcv_nxt)
                .flags(TcpFlags::ACK)
                .data(HIGH_DATA.with(Bytes::clone))
                .build()
        };
        // Send order: (low, high) normally; (high, low) reversed. The
        // IPID labels track send order for the trace validator.
        let (first_ipid, second_ipid);
        if self.reversed {
            let pkt = mk_high(p, conn);
            p.send(pkt);
            p.run_for(self.cfg.gap);
            let pkt = mk_low(p, conn);
            p.send(pkt);
            first_ipid = high_ipid;
            second_ipid = low_ipid;
        } else {
            let pkt = mk_low(p, conn);
            p.send(pkt);
            p.run_for(self.cfg.gap);
            let pkt = mk_high(p, conn);
            p.send(pkt);
            first_ipid = low_ipid;
            second_ipid = high_ipid;
        }

        // Collect the sample's ACKs: values of interest are base
        // ("ack 1"), base+2 ("ack 3"), base+3 ("ack 4").
        let interesting = [base, base + 2, base + 3];
        let mut acks: Vec<SeqNum> = Vec::new();
        let deadline_each = self.cfg.reply_timeout;
        while acks.len() < 2 {
            let got = p.recv_where(
                |pkt| {
                    pkt.flow() == Some(flow.reversed())
                        && pkt.tcp().is_some_and(|t| {
                            t.flags.contains(TcpFlags::ACK)
                                && !t.flags.intersects(TcpFlags::SYN | TcpFlags::RST)
                                && interesting.contains(&t.ack)
                        })
                },
                deadline_each,
            );
            match got {
                Some(r) => acks.push(r.pkt.tcp().expect("tcp").ack),
                None => break,
            }
            // Stop early once the cumulative ACK has been seen along
            // with another — nothing further is coming for this sample.
            if acks.len() == 2 {
                break;
            }
        }

        let full = base + 3;
        let saw_full = acks.contains(&full);
        if !saw_full {
            // Loss somewhere: bring the remote to a known state, then
            // discard the sample (§III-B: "simply ... discarding such
            // samples").
            self.resync(p, conn, base)?;
            conn.snd_nxt = base + 3;
            return Ok(SampleRecord {
                outcome: SampleOutcome::DISCARD,
                forensics: SampleForensics {
                    started,
                    fwd: [
                        PacketMatcher::flow(flow).ipid(first_ipid),
                        PacketMatcher::flow(flow).ipid(second_ipid),
                    ],
                    rev: None,
                },
            });
        }
        conn.snd_nxt = base + 3;

        // Forward classification from the non-cumulative ACK value.
        let partial = acks.iter().copied().find(|&a| a != full);
        let fwd = match partial {
            Some(a) if a == base => {
                // "ack 1": the receiver saw out-of-sequence data first.
                if self.reversed {
                    Order::Ordered // high was sent first and arrived first
                } else {
                    Order::Reordered
                }
            }
            Some(a) if a == base + 2 => {
                // "ack 3": the hole filled first.
                if self.reversed {
                    Order::Reordered
                } else {
                    Order::Ordered
                }
            }
            _ => Order::Indeterminate, // lone cumulative ACK
        };

        // Reverse classification: the cumulative ACK is always generated
        // last by the remote, so receiving it first means the ACK pair
        // was exchanged in flight.
        let rev = if acks.len() >= 2 {
            if acks[0] == full {
                Order::Reordered
            } else {
                Order::Ordered
            }
        } else {
            Order::Indeterminate
        };

        let rev_forensics = partial.map(|a| {
            [
                PacketMatcher::flow(flow.reversed())
                    .ack(a)
                    .flags(TcpFlags::ACK)
                    .without(TcpFlags::SYN | TcpFlags::RST),
                PacketMatcher::flow(flow.reversed())
                    .ack(full)
                    .flags(TcpFlags::ACK)
                    .without(TcpFlags::SYN | TcpFlags::RST),
            ]
        });
        Ok(SampleRecord {
            outcome: SampleOutcome { fwd, rev },
            forensics: SampleForensics {
                started,
                fwd: [
                    PacketMatcher::flow(flow).ipid(first_ipid),
                    PacketMatcher::flow(flow).ipid(second_ipid),
                ],
                rev: rev_forensics,
            },
        })
    }
}

impl Technique for SingleConnectionTest {
    fn kind(&self) -> TestKind {
        if self.reversed {
            TestKind::SingleConnectionReversed
        } else {
            TestKind::SingleConnection
        }
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            measures_fwd: true,
            measures_rev: true,
            connections: 1,
            needs_global_ipid: false,
            needs_object: false,
        }
    }

    fn execute(&self, session: &mut Session<'_>) -> Result<MeasurementRun, ProbeError> {
        let mut conn = session.checkout("single", 1460, 65535, self.cfg.reply_timeout)?;
        let mut run = MeasurementRun::default();
        for _ in 0..self.cfg.samples {
            session.prober().run_for(self.cfg.pace);
            match self.sample(session.prober(), &mut conn) {
                Ok(rec) => run.samples.push(rec),
                Err(e) => {
                    // A failed resync leaves the connection in unknown
                    // state: close it instead of caching it.
                    session.discard(conn, self.cfg.reply_timeout);
                    return Err(e);
                }
            }
        }
        session.checkin("single", 1460, 65535, conn, self.cfg.reply_timeout);
        Ok(run)
    }
}

fn discard_record(p: &Prober, flow: reorder_wire::FlowKey) -> SampleRecord {
    SampleRecord {
        outcome: SampleOutcome::DISCARD,
        forensics: SampleForensics {
            started: p.now(),
            fwd: [PacketMatcher::flow(flow), PacketMatcher::flow(flow)],
            rev: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn clean_path_reports_all_ordered() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 42);
        let test = SingleConnectionTest::new(TestConfig::samples(30));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert_eq!(run.samples.len(), 30);
        assert_eq!(run.fwd_reordered(), 0);
        assert_eq!(run.rev_reordered(), 0);
        assert!(run.fwd_determinate() >= 28, "few discards on clean path");
    }

    #[test]
    fn full_forward_swap_detected() {
        let mut sc = scenario::validation_rig(1.0, 0.0, 43);
        let test = SingleConnectionTest::new(TestConfig::samples(20));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        // Every adjacent pair swaps; samples are back-to-back pairs, so
        // every determinate sample must be Reordered.
        assert!(run.fwd_determinate() >= 10);
        assert_eq!(run.fwd_reordered(), run.fwd_determinate());
    }

    #[test]
    fn reverse_swaps_seen_on_reverse_path() {
        // The reversed variant makes both sample ACKs immediate (dup-ACK
        // then hole-fill ACK), so the pair travels back-to-back on the
        // reverse path where the dummynet can exchange it. (In the
        // in-order variant the second ACK is delayed by the remote's
        // delayed-ACK timer, which spreads the pair hundreds of
        // milliseconds apart — reordering processes act on packets close
        // in time, which is the whole point of §IV-C.)
        let mut sc = scenario::validation_rig(0.0, 1.0, 44);
        let test = SingleConnectionTest::reversed(TestConfig::samples(20));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert!(run.rev_determinate() >= 10);
        assert_eq!(run.rev_reordered(), run.rev_determinate());
        // Forward path was clean.
        assert_eq!(run.fwd_reordered(), 0);
    }

    #[test]
    fn in_order_variant_rev_pair_is_spread_by_delayed_ack() {
        // Companion to the test above: with a hole-fill-ACKing stack,
        // the in-order variant's two ACKs are separated by the delayed
        // ACK timer, so an adjacent-swap process with a short hold
        // cannot exchange them — the measured reverse rate is ~0 even
        // at rev_swap = 1. This is a real (and documented) sensitivity
        // of the in-order variant, not a bug.
        let mut sc = scenario::validation_rig(0.0, 1.0, 49);
        let test = SingleConnectionTest::new(TestConfig::samples(15));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert_eq!(run.rev_reordered(), 0);
    }

    #[test]
    fn reversed_variant_matches_forward_rate() {
        let mut sc = scenario::validation_rig(0.3, 0.0, 45);
        let test = SingleConnectionTest::reversed(TestConfig::samples(60));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        let rate = run.fwd_estimate().rate();
        assert!(
            (0.1..=0.5).contains(&rate),
            "expected ≈0.3 swap rate, got {rate}"
        );
    }

    #[test]
    fn delayed_ack_stack_yields_indeterminates_in_order_variant() {
        // windows2000 delays hole-fill ACKs: in-order samples collapse
        // to a single cumulative ACK (§III-B ambiguity).
        let mut sc = scenario::validation_rig_with(
            0.0,
            0.0,
            reorder_tcpstack::HostPersonality::windows2000(),
            46,
        );
        let test = SingleConnectionTest::new(TestConfig::samples(10));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert_eq!(
            run.fwd_determinate(),
            0,
            "in-order variant must be blind against ACK-collapsing stacks"
        );
        // The reversed variant restores visibility.
        let mut sc = scenario::validation_rig_with(
            0.0,
            0.0,
            reorder_tcpstack::HostPersonality::windows2000(),
            47,
        );
        let test = SingleConnectionTest::reversed(TestConfig::samples(10));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert!(run.fwd_determinate() >= 8);
        assert_eq!(run.fwd_reordered(), 0);
    }

    #[test]
    fn lossy_path_discards_but_survives() {
        let mut sc = scenario::lossy_rig(0.2, 0.2, 48);
        let test = SingleConnectionTest::new(TestConfig::samples(25));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert_eq!(run.samples.len(), 25);
        // Some samples discarded, but the connection stays consistent.
        assert!(run.fwd_determinate() < 25);
    }
}
