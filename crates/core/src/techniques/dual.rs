//! The Dual Connection Test (§III-C, Fig. 2).
//!
//! Two TCP connections to the target. Each sample sends one 1-byte
//! out-of-order segment per connection (so both are acknowledged
//! *immediately*, defeating delayed ACKs). Under the traditional
//! global-IPID hypothesis, the IPIDs of the two ACKs reveal the order
//! the remote host *generated* them — and since ACK generation order
//! equals data receive order ("transport-layer processing is handled in
//! the kernel, frequently driven directly by an interrupt"), the sender
//! learns the forward-path order. Comparing the ACKs' generation order
//! with their arrival order yields the reverse-path order.
//!
//! The whole scheme collapses if IPIDs are random (OpenBSD), constant
//! zero (Linux 2.4), or drawn from different counters (transparent load
//! balancer assigning the two connections to different backends,
//! Fig. 3). [`IpidValidator`] detects all three *before* measurement by
//! checking that within-connection IPID gaps dominate the
//! between-connection gaps.

use crate::measurer::{Requirements, Session, Technique};
use crate::probe::{ClientConn, ProbeError, Prober};
use crate::sample::{
    MeasurementRun, Order, PacketMatcher, SampleForensics, SampleOutcome, SampleRecord, TestConfig,
};
use crate::techniques::TestKind;
use reorder_wire::{Bytes, IpId, TcpFlags};
use std::time::Duration;

thread_local! {
    /// The one-byte payloads of the validation and sample probes, built
    /// once per thread and shared, so a probe bumps a refcount instead
    /// of allocating.
    static VALIDATE_DATA: Bytes = Bytes::from(&b"V"[..]);
    static SAMPLE_DATA: Bytes = Bytes::from(&b"D"[..]);
}

/// Verdict of the pre-measurement IPID validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpidVerdict {
    /// Shared, monotonically increasing IPID space: the test is sound.
    Amenable,
    /// Every reply carried IPID 0 (Linux ≥ 2.4 PMTUD).
    ConstantZero,
    /// IPIDs not monotone across connections: random generation or a
    /// load balancer splitting the connections (indistinguishable from
    /// outside, per Fig. 3).
    NonMonotonic,
}

impl IpidVerdict {
    /// Short label for tables and reports.
    pub fn label(self) -> &'static str {
        match self {
            IpidVerdict::Amenable => "amenable",
            IpidVerdict::ConstantZero => "constant-zero",
            IpidVerdict::NonMonotonic => "non-monotonic",
        }
    }

    /// Inverse of [`IpidVerdict::label`], for report deserialization.
    pub fn from_label(s: &str) -> Option<IpidVerdict> {
        [
            IpidVerdict::Amenable,
            IpidVerdict::ConstantZero,
            IpidVerdict::NonMonotonic,
        ]
        .into_iter()
        .find(|v| v.label() == s)
    }

    /// Human-readable explanation.
    pub fn describe(self) -> &'static str {
        match self {
            IpidVerdict::Amenable => "shared monotone IPID space",
            IpidVerdict::ConstantZero => "constant IPID 0 (likely Linux 2.4)",
            IpidVerdict::NonMonotonic => "non-monotonic IPIDs (random generation or load balancer)",
        }
    }
}

/// Runs the interleaved-probe IPID validation of §III-C.
#[derive(Debug, Clone, Copy)]
pub struct IpidValidator {
    /// Alternating rounds to sample (8 is ample: two independent
    /// counters pass by luck with probability ≪ 2⁻⁸).
    pub rounds: usize,
    /// Per-reply deadline.
    pub reply_timeout: Duration,
}

impl Default for IpidValidator {
    fn default() -> Self {
        IpidValidator {
            rounds: 8,
            reply_timeout: Duration::from_millis(900),
        }
    }
}

impl IpidValidator {
    /// Probe alternately on two established connections and classify
    /// the IPID space. Consumes one out-of-order byte offset per round
    /// per connection (tracked via `next_probe_offset`).
    pub fn validate(
        &self,
        p: &mut Prober,
        a: &ClientConn,
        b: &ClientConn,
        offset: &mut u32,
    ) -> Result<IpidVerdict, ProbeError> {
        let mut ids: Vec<IpId> = Vec::with_capacity(self.rounds * 2);
        for _ in 0..self.rounds {
            for conn in [a, b] {
                let id = probe_once(p, conn, *offset, self.reply_timeout)?;
                ids.push(id);
            }
            *offset += 1;
        }
        Ok(classify_ipids(&ids))
    }
}

/// Send one out-of-order byte on `conn` at `rcv`-relative offset and
/// return the IPID of the immediate duplicate ACK. Retries on loss —
/// duplicate ACK elicitation is idempotent, and a retried reply is
/// still a valid IPID observation for validation purposes.
fn probe_once(
    p: &mut Prober,
    conn: &ClientConn,
    offset: u32,
    timeout: Duration,
) -> Result<IpId, ProbeError> {
    let flow = conn.flow;
    let hole = conn.snd_nxt;
    for _attempt in 0..3 {
        let pkt = p
            .tcp_pkt(conn)
            .seq(conn.snd_nxt + 1 + offset)
            .ack(conn.rcv_nxt)
            .flags(TcpFlags::ACK)
            .data(VALIDATE_DATA.with(Bytes::clone))
            .build();
        p.send(pkt);
        let reply = p.recv_where(
            |pkt| {
                pkt.flow() == Some(flow.reversed())
                    && pkt.tcp().is_some_and(|t| {
                        t.flags.contains(TcpFlags::ACK)
                            && !t.flags.intersects(TcpFlags::SYN | TcpFlags::RST)
                            && t.ack == hole
                    })
            },
            timeout,
        );
        if let Some(r) = reply {
            return Ok(r.pkt.ip.ident);
        }
    }
    Err(ProbeError::Timeout {
        waiting_for: "validation dup-ACK",
    })
}

/// Classify an interleaved IPID sequence a₀,b₀,a₁,b₁,… per §III-C: in a
/// shared increasing space, within-connection differences dominate the
/// between-connection differences.
pub fn classify_ipids(ids: &[IpId]) -> IpidVerdict {
    assert!(
        ids.len() >= 4 && ids.len().is_multiple_of(2),
        "need interleaved pairs"
    );
    if ids.iter().all(|id| id.raw() == 0) {
        return IpidVerdict::ConstantZero;
    }
    // Between-connection (adjacent) differences must all be positive…
    let between: Vec<i16> = ids.windows(2).map(|w| w[0].distance_to(w[1])).collect();
    if between.iter().any(|&d| d <= 0) {
        return IpidVerdict::NonMonotonic;
    }
    // …and each within-connection difference (index i to i+2) must
    // dominate the between-connection steps it spans.
    for i in 0..ids.len() - 2 {
        let within = ids[i].distance_to(ids[i + 2]);
        if within < between[i] || within < between[i + 1] {
            return IpidVerdict::NonMonotonic;
        }
    }
    IpidVerdict::Amenable
}

/// The Dual Connection Test.
#[derive(Debug, Clone)]
pub struct DualConnectionTest {
    /// Shared knobs.
    pub cfg: TestConfig,
    /// Pre-measurement validation parameters.
    pub validator: IpidValidator,
}

impl DualConnectionTest {
    /// With default validation.
    pub fn new(cfg: TestConfig) -> Self {
        DualConnectionTest {
            cfg,
            validator: IpidValidator {
                reply_timeout: cfg.reply_timeout,
                ..IpidValidator::default()
            },
        }
    }

    /// Validate the IPID space over `a`/`b` unless the session already
    /// holds a verdict, recording the result (and the consumed probe
    /// offsets) on the session.
    fn ensure_verdict(
        &self,
        session: &mut Session<'_>,
        a: &ClientConn,
        b: &ClientConn,
    ) -> Result<IpidVerdict, ProbeError> {
        if let Some(v) = session.verdict() {
            return Ok(v);
        }
        let mut offset = session.probe_offset();
        let verdict = self.validator.validate(session.prober(), a, b, &mut offset);
        session.set_probe_offset(offset);
        if let Ok(v) = verdict {
            session.set_verdict(v);
        }
        verdict
    }

    /// One sample: an out-of-order byte on each connection, `gap`
    /// apart; classify from the two duplicate ACKs.
    fn sample(
        &self,
        p: &mut Prober,
        a: &ClientConn,
        b: &ClientConn,
        offset: &mut u32,
    ) -> SampleRecord {
        let started = p.now();
        p.flush();
        let ipid_a = p.alloc_ipid();
        let ipid_b = p.alloc_ipid();
        let off = *offset;
        *offset += 1;
        let pkt_a = p
            .tcp_pkt(a)
            .ipid(ipid_a)
            .seq(a.snd_nxt + 1 + off)
            .ack(a.rcv_nxt)
            .flags(TcpFlags::ACK)
            .data(SAMPLE_DATA.with(Bytes::clone))
            .build();
        p.send(pkt_a);
        p.run_for(self.cfg.gap);
        let pkt_b = p
            .tcp_pkt(b)
            .ipid(ipid_b)
            .seq(b.snd_nxt + 1 + off)
            .ack(b.rcv_nxt)
            .flags(TcpFlags::ACK)
            .data(SAMPLE_DATA.with(Bytes::clone))
            .build();
        p.send(pkt_b);

        let fa = a.flow;
        let fb = b.flow;
        let hole_a = a.snd_nxt;
        let hole_b = b.snd_nxt;
        let is_sample_ack = move |pkt: &reorder_wire::Packet| {
            let Some(flow) = pkt.flow() else { return false };
            let Some(t) = pkt.tcp() else { return false };
            if !t.flags.contains(TcpFlags::ACK) || t.flags.intersects(TcpFlags::SYN | TcpFlags::RST)
            {
                return false;
            }
            (flow == fa.reversed() && t.ack == hole_a) || (flow == fb.reversed() && t.ack == hole_b)
        };
        let replies = p.recv_n_where(is_sample_ack, 2, self.cfg.reply_timeout);
        let forensics_fwd = [
            PacketMatcher::flow(fa).ipid(ipid_a),
            PacketMatcher::flow(fb).ipid(ipid_b),
        ];
        if replies.len() < 2 {
            return SampleRecord {
                outcome: SampleOutcome::DISCARD,
                forensics: SampleForensics {
                    started,
                    fwd: forensics_fwd,
                    rev: None,
                },
            };
        }
        // Identify which reply belongs to which connection.
        let first_is_a = replies[0].pkt.flow() == Some(fa.reversed());
        let (ack_a, ack_b) = if first_is_a {
            (&replies[0], &replies[1])
        } else {
            (&replies[1], &replies[0])
        };
        if ack_a.pkt.flow() == ack_b.pkt.flow() {
            // Both dup-ACKs from one connection (e.g. a retransmitted
            // probe): ambiguous, discard.
            return SampleRecord {
                outcome: SampleOutcome::DISCARD,
                forensics: SampleForensics {
                    started,
                    fwd: forensics_fwd,
                    rev: None,
                },
            };
        }
        let id_a = ack_a.pkt.ip.ident;
        let id_b = ack_b.pkt.ip.ident;
        // Generation (= receive) order from the IPID space.
        let a_generated_first = id_a.before(id_b);
        // We sent A first, so the forward path is ordered iff A's probe
        // was received (acknowledged) first.
        let fwd = if a_generated_first {
            Order::Ordered
        } else {
            Order::Reordered
        };
        // Reverse path: compare generation order with arrival order.
        let a_arrived_first = first_is_a;
        let rev = if a_generated_first == a_arrived_first {
            Order::Ordered
        } else {
            Order::Reordered
        };
        // Reply matchers in generation order.
        let (gen_first, gen_second) = if a_generated_first {
            (
                PacketMatcher::flow(fa.reversed()).ack(hole_a).ipid(id_a),
                PacketMatcher::flow(fb.reversed()).ack(hole_b).ipid(id_b),
            )
        } else {
            (
                PacketMatcher::flow(fb.reversed()).ack(hole_b).ipid(id_b),
                PacketMatcher::flow(fa.reversed()).ack(hole_a).ipid(id_a),
            )
        };
        SampleRecord {
            outcome: SampleOutcome { fwd, rev },
            forensics: SampleForensics {
                started,
                fwd: forensics_fwd,
                rev: Some([gen_first, gen_second]),
            },
        }
    }
}

impl Technique for DualConnectionTest {
    fn kind(&self) -> TestKind {
        TestKind::DualConnection
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            measures_fwd: true,
            measures_rev: true,
            connections: 2,
            needs_global_ipid: true,
            needs_object: false,
        }
    }

    /// The §III-C pre-check. On a reusing session the two validated
    /// connections stay open and the verdict is cached, so a following
    /// [`Technique::execute`] measures immediately — no second round of
    /// handshakes, no repeated validation.
    fn probe_amenability(&self, session: &mut Session<'_>) -> Result<IpidVerdict, ProbeError> {
        let t = self.cfg.reply_timeout;
        let a = session.checkout("dual", 1460, 65535, t)?;
        let b = session.checkout("dual", 1460, 65535, t)?;
        match self.ensure_verdict(session, &a, &b) {
            Ok(v) => {
                session.checkin("dual", 1460, 65535, a, t);
                session.checkin("dual", 1460, 65535, b, t);
                Ok(v)
            }
            Err(e) => {
                // Probe state unknown after an errored validation:
                // close instead of caching (see `execute`).
                session.discard(a, t);
                session.discard(b, t);
                Err(e)
            }
        }
    }

    fn execute(&self, session: &mut Session<'_>) -> Result<MeasurementRun, ProbeError> {
        let t = self.cfg.reply_timeout;
        let a = session.checkout("dual", 1460, 65535, t)?;
        let b = session.checkout("dual", 1460, 65535, t)?;
        let verdict = match self.ensure_verdict(session, &a, &b) {
            Ok(v) => v,
            Err(e) => {
                // A validation that errored (not merely rejected) left
                // the probes in unknown state: close both connections
                // rather than caching or leaking them.
                session.discard(a, t);
                session.discard(b, t);
                return Err(e);
            }
        };
        if verdict != IpidVerdict::Amenable {
            session.checkin("dual", 1460, 65535, a, t);
            session.checkin("dual", 1460, 65535, b, t);
            return Err(ProbeError::HostUnsuitable(verdict.describe().to_string()));
        }
        let mut offset = session.probe_offset();
        let mut run = MeasurementRun::default();
        for _ in 0..self.cfg.samples {
            session.prober().run_for(self.cfg.pace);
            let rec = self.sample(session.prober(), &a, &b, &mut offset);
            run.samples.push(rec);
        }
        session.set_probe_offset(offset);
        session.checkin("dual", 1460, 65535, a, t);
        session.checkin("dual", 1460, 65535, b, t);
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use reorder_tcpstack::HostPersonality;

    #[test]
    fn classify_shared_counter() {
        let ids: Vec<IpId> = [10u16, 11, 12, 13, 14, 15, 16, 17]
            .iter()
            .map(|&v| IpId(v))
            .collect();
        assert_eq!(classify_ipids(&ids), IpidVerdict::Amenable);
    }

    #[test]
    fn classify_shared_counter_with_background_traffic() {
        // Other traffic advances the counter between our ACKs.
        let ids: Vec<IpId> = [10u16, 14, 15, 29, 30, 31, 40, 44]
            .iter()
            .map(|&v| IpId(v))
            .collect();
        assert_eq!(classify_ipids(&ids), IpidVerdict::Amenable);
    }

    #[test]
    fn classify_wraparound_is_tolerated() {
        let ids: Vec<IpId> = [0xfffd_u16, 0xfffe, 0xffff, 0, 1, 2, 3, 4]
            .iter()
            .map(|&v| IpId(v))
            .collect();
        assert_eq!(classify_ipids(&ids), IpidVerdict::Amenable);
    }

    #[test]
    fn classify_zero() {
        let ids = vec![IpId(0); 8];
        assert_eq!(classify_ipids(&ids), IpidVerdict::ConstantZero);
    }

    #[test]
    fn classify_two_independent_counters() {
        // a from counter ~100, b from counter ~9000: between-diffs swing
        // wildly negative.
        let ids: Vec<IpId> = [100u16, 9000, 101, 9001, 102, 9002, 103, 9003]
            .iter()
            .map(|&v| IpId(v))
            .collect();
        assert_eq!(classify_ipids(&ids), IpidVerdict::NonMonotonic);
    }

    #[test]
    fn classify_random() {
        let ids: Vec<IpId> = [
            0x8d21u16, 0x1f00, 0x77aa, 0x0201, 0xeeee, 0x1234, 0x9999, 0x4242,
        ]
        .iter()
        .map(|&v| IpId(v))
        .collect();
        assert_eq!(classify_ipids(&ids), IpidVerdict::NonMonotonic);
    }

    #[test]
    fn amenable_host_measures_cleanly() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 50);
        let test = DualConnectionTest::new(TestConfig::samples(25));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert_eq!(run.samples.len(), 25);
        assert_eq!(run.fwd_reordered(), 0);
        assert_eq!(run.rev_reordered(), 0);
        assert!(run.fwd_determinate() >= 24);
        assert!(run.rev_determinate() >= 24);
    }

    #[test]
    fn forward_swaps_detected() {
        let mut sc = scenario::validation_rig(1.0, 0.0, 51);
        let test = DualConnectionTest::new(TestConfig::samples(20));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert!(run.fwd_determinate() >= 15);
        assert_eq!(run.fwd_reordered(), run.fwd_determinate());
        assert_eq!(run.rev_reordered(), 0);
    }

    #[test]
    fn reverse_swaps_detected() {
        let mut sc = scenario::validation_rig(0.0, 1.0, 52);
        let test = DualConnectionTest::new(TestConfig::samples(20));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert!(run.rev_determinate() >= 15);
        assert_eq!(run.rev_reordered(), run.rev_determinate());
        assert_eq!(run.fwd_reordered(), 0);
    }

    #[test]
    fn random_ipid_host_rejected() {
        let mut sc = scenario::validation_rig_with(0.0, 0.0, HostPersonality::openbsd3(), 53);
        let test = DualConnectionTest::new(TestConfig::samples(5));
        let mut session = Session::new(&mut sc.prober, sc.target, 80);
        match test.execute(&mut session) {
            Err(ProbeError::HostUnsuitable(why)) => assert!(why.contains("non-monotonic")),
            other => panic!("expected HostUnsuitable, got {other:?}"),
        }
    }

    #[test]
    fn linux24_zero_ipid_rejected() {
        let mut sc = scenario::validation_rig_with(0.0, 0.0, HostPersonality::linux24(), 54);
        let test = DualConnectionTest::new(TestConfig::samples(5));
        let mut session = Session::new(&mut sc.prober, sc.target, 80);
        match test.probe_amenability(&mut session) {
            Ok(IpidVerdict::ConstantZero) => {}
            other => panic!("expected ConstantZero, got {other:?}"),
        }
    }

    #[test]
    fn load_balanced_site_rejected() {
        // Fig. 3: the two connections land on different backends with
        // independent IPID spaces. (Seed chosen arbitrarily; if the two
        // flows hash to the same backend the validator may legitimately
        // pass, so assert on the common case across seeds.)
        let mut rejected = 0;
        let mut tried = 0;
        for seed in 0..6 {
            let mut sc =
                scenario::load_balanced(0.0, 0.0, 4, HostPersonality::freebsd4(), 60 + seed);
            let test = DualConnectionTest::new(TestConfig::samples(5));
            let mut session = Session::new(&mut sc.prober, sc.target, 80);
            match test.probe_amenability(&mut session) {
                Ok(IpidVerdict::NonMonotonic) => {
                    rejected += 1;
                    tried += 1;
                }
                Ok(IpidVerdict::Amenable) => {
                    tried += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(tried == 6);
        assert!(
            rejected >= 4,
            "most load-balanced trials must be rejected ({rejected}/6)"
        );
    }

    #[test]
    fn byte_swapped_windows_counter_is_amenable() {
        // The Windows NT/2000 wire quirk (host-byte-order IPID) is
        // still serially monotone, so the test works unmodified — and
        // so does the validator.
        let mut sc = scenario::validation_rig_with(0.2, 0.1, HostPersonality::windows2000(), 56);
        let test = DualConnectionTest::new(TestConfig::samples(40));
        let run = test
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert!(run.fwd_determinate() >= 35);
        let rate = run.fwd_estimate().rate();
        assert!((0.08..=0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn solaris_per_destination_is_amenable() {
        // Per-destination counters are monotone from one prober's view:
        // "since our techniques do not depend on IPID being unique
        // across destinations this is not a complication."
        let mut sc = scenario::validation_rig_with(0.0, 0.0, HostPersonality::solaris8(), 55);
        let test = DualConnectionTest::new(TestConfig::samples(5));
        assert_eq!(
            test.probe_amenability(&mut Session::new(&mut sc.prober, sc.target, 80))
                .unwrap(),
            IpidVerdict::Amenable
        );
    }

    #[test]
    #[should_panic(expected = "interleaved pairs")]
    fn classify_needs_enough_rounds() {
        classify_ipids(&[IpId(1), IpId(2)]);
    }
}
