//! Cut-through equivalence: a chain of order-preserving pipes crossed at
//! transmit time (untapped) must behave exactly like the same chain run
//! as events (an rx tap on every pipe forces the event path) — the same
//! deliveries at both ends, at the same times, in the same order, with
//! the same per-pipe counters — while dispatching fewer events.
//!
//! Sink equivalence: the same chain ending at a mailbox, whose
//! deliveries are arrivals rather than events, must deliver exactly
//! what it delivers to a plain recording device, in the same order,
//! with one event fewer per arrival.

use proptest::prelude::*;
use reorder_netsim::pipes::{
    DelayJitter, DummynetConfig, DummynetReorder, Forwarder, RandomLoss, DOWN, UP,
};
use reorder_netsim::{
    drain, Ctx, CutThrough, Device, LinkParams, NodeId, Port, SimTime, Simulator,
};
use reorder_wire::{Ipv4Addr4, Packet, PacketBuilder, TcpFlags};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// One pipe of the chain, as generated.
#[derive(Debug, Clone)]
enum PipeSpec {
    Forward,
    Loss {
        fwd: f64,
        rev: f64,
    },
    Delay {
        us: u64,
    },
    /// Swaps in one direction only; the other direction cuts through.
    Swap {
        prob: f64,
        fwd: bool,
        hold_us: u64,
    },
}

enum Pipe {
    Forward(Forwarder),
    Loss(RandomLoss),
    Delay(DelayJitter),
    Swap(Box<DummynetReorder>),
}

impl Pipe {
    fn build(spec: &PipeSpec, seed: u64, label: &str) -> Self {
        match *spec {
            PipeSpec::Forward => Pipe::Forward(Forwarder::new()),
            PipeSpec::Loss { fwd, rev } => Pipe::Loss(RandomLoss::new(fwd, rev, seed, label)),
            PipeSpec::Delay { us } => {
                let d = Duration::from_micros(us);
                Pipe::Delay(DelayJitter::new(d, d, seed, label))
            }
            PipeSpec::Swap { prob, fwd, hold_us } => {
                let (fwd_swap, rev_swap) = if fwd { (prob, 0.0) } else { (0.0, prob) };
                let cfg = DummynetConfig {
                    fwd_swap,
                    rev_swap,
                    max_hold: Duration::from_micros(hold_us),
                };
                Pipe::Swap(Box::new(DummynetReorder::new(cfg, seed, label)))
            }
        }
    }

    fn device(&mut self) -> &mut dyn Device {
        match self {
            Pipe::Forward(p) => p,
            Pipe::Loss(p) => p,
            Pipe::Delay(p) => p,
            Pipe::Swap(p) => p.as_mut(),
        }
    }

    /// Every observability counter the pipe keeps.
    fn counters(&self) -> Vec<u64> {
        match self {
            Pipe::Forward(p) => vec![p.forwarded],
            Pipe::Loss(p) => vec![p.dropped[0], p.dropped[1], p.passed[0], p.passed[1]],
            Pipe::Delay(_) => Vec::new(),
            Pipe::Swap(p) => vec![
                p.swaps(0),
                p.swaps(1),
                p.hold_timeouts(0),
                p.hold_timeouts(1),
            ],
        }
    }
}

/// Lends the pipe to the simulator while the test keeps a handle on
/// its counters.
struct Shared(Rc<RefCell<Pipe>>);

impl Device for Shared {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        self.0.borrow_mut().device().on_packet(ctx, port, pkt);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.0.borrow_mut().device().on_timer(ctx, token);
    }
    fn cut_through(&mut self, port: Port, pkt: &Packet) -> Option<CutThrough> {
        self.0.borrow_mut().device().cut_through(port, pkt)
    }
}

/// A packet of `len` wire bytes, identified by `ipid`.
fn packet(ipid: u16, len: usize) -> Packet {
    PacketBuilder::tcp()
        .src(Ipv4Addr4::new(10, 0, 0, 1), 1000)
        .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
        .seq(u32::from(ipid))
        .flags(TcpFlags::ACK)
        .ipid(ipid)
        .data(vec![0; len - 40])
        .build()
}

type Deliveries = Vec<(SimTime, usize, u16)>;

/// Records every delivery as an event: the path a mailbox skips.
struct Recorder(Rc<RefCell<Deliveries>>);

impl Device for Recorder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        self.0
            .borrow_mut()
            .push((ctx.now(), port.0, pkt.ip.ident.raw()));
    }
}

/// What sits at both ends of the chain.
#[derive(Clone, Copy, PartialEq)]
enum End {
    Mailbox,
    Recorder,
}

struct Outcome {
    /// Deliveries at the end node, in order: port 0 receives what
    /// travelled left, port 1 what travelled right.
    deliveries: Deliveries,
    counters: Vec<Vec<u64>>,
    events: u64,
    hops: u64,
    sink_arrivals: u64,
}

impl Outcome {
    /// The deliveries on one port, in order.
    fn on_port(&self, port: usize) -> Deliveries {
        self.deliveries
            .iter()
            .filter(|d| d.1 == port)
            .copied()
            .collect()
    }
}

/// Wire `end:0 — pipes… — end:1` (one end node, so both directions'
/// deliveries land in one ordered list), drive the packet train
/// (`(to_right, len, gap_us)` per packet: a packet to the right leaves
/// port 0 and arrives on port 1) and collect what the end received.
fn run(
    pipes: &[PipeSpec],
    links: &[LinkParams],
    train: &[(bool, usize, u64)],
    seed: u64,
    tapped: bool,
    end_kind: End,
) -> Outcome {
    let mut sim = Simulator::new(seed);
    let recorded = Rc::new(RefCell::new(Vec::new()));
    let (end, queue): (NodeId, _) = match end_kind {
        End::Mailbox => {
            let (node, queue) = sim.add_mailbox();
            (node, Some(queue))
        }
        End::Recorder => (sim.add_node(Box::new(Recorder(recorded.clone()))), None),
    };
    let mut handles = Vec::new();
    let mut prev = (end, Port(0));
    for (i, spec) in pipes.iter().enumerate() {
        let pipe = Rc::new(RefCell::new(Pipe::build(spec, seed, &format!("pipe{i}"))));
        let node = sim.add_node(Box::new(Shared(pipe.clone())));
        sim.connect(prev.0, prev.1, node, UP, links[i]);
        if tapped {
            sim.tap_rx(node);
        }
        handles.push(pipe);
        prev = (node, DOWN);
    }
    sim.connect(prev.0, prev.1, end, Port(1), links[pipes.len()]);
    for (i, &(to_right, len, gap_us)) in train.iter().enumerate() {
        let from = Port(if to_right { 0 } else { 1 });
        sim.transmit_from(end, from, packet(i as u16, len));
        sim.run_for(Duration::from_micros(gap_us));
    }
    sim.run_until_idle(SimTime::from_secs(100));
    let deliveries = match queue {
        Some(q) => drain(&q)
            .into_iter()
            .map(|r| (r.time, r.port.0, r.pkt.ip.ident.raw()))
            .collect(),
        None => recorded.take(),
    };
    Outcome {
        deliveries,
        counters: handles.iter().map(|p| p.borrow().counters()).collect(),
        events: sim.events_processed(),
        hops: sim.cut_through_hops(),
        sink_arrivals: sim.sink_arrivals(),
    }
}

/// A chain of 1–4 random pipes and the 2–5 links around it.
fn chain() -> impl Strategy<Value = (Vec<PipeSpec>, Vec<LinkParams>)> {
    (1usize..=4).prop_flat_map(|n| {
        (
            proptest::collection::vec(pipe_spec(), n),
            proptest::collection::vec(link(), n + 1),
        )
    })
}

/// 2–60 packets in both directions: the first goes right, the second
/// left, so some pipe is always crossed in a direction that cuts
/// through and both ports of the end node receive.
fn train() -> impl Strategy<Value = Vec<(bool, usize, u64)>> {
    proptest::collection::vec((any::<bool>(), packet_len(), gap_us()), 2..60).prop_map(
        |mut train| {
            train[0].0 = true;
            train[1].0 = false;
            train
        },
    )
}

fn pipe_spec() -> impl Strategy<Value = PipeSpec> {
    prop_oneof![
        Just(PipeSpec::Forward),
        (0.0f64..=0.3, 0.0f64..=0.3).prop_map(|(fwd, rev)| PipeSpec::Loss { fwd, rev }),
        (0u64..300).prop_map(|us| PipeSpec::Delay { us }),
        // Hold timeouts on the same 25 µs grid as the gaps, so a held
        // packet's timeout often ties with a later arrival exactly.
        (0.05f64..=1.0, any::<bool>(), 1u64..=40).prop_map(|(prob, fwd, k)| PipeSpec::Swap {
            prob,
            fwd,
            hold_us: 25 * k,
        }),
    ]
}

/// Wire lengths 40–1500 B, often repeated, so equal serialization
/// delays line arrivals up on the gap grid.
fn packet_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(40usize), Just(1500), 40usize..=1500]
}

/// Gaps 0–500 µs on a 25 µs grid: the ties where same-time events at a
/// node must fire in the event path's order.
fn gap_us() -> impl Strategy<Value = u64> {
    (0u64..=20).prop_map(|k| 25 * k)
}

fn link() -> impl Strategy<Value = LinkParams> {
    (
        prop_oneof![Just(10_000_000u64), Just(100_000_000), Just(1_000_000_000)],
        0u64..500,
        prop_oneof![Just(None), (1usize..4).prop_map(Some)],
    )
        .prop_map(|(rate, prop_us, queue_limit)| LinkParams {
            bits_per_sec: rate,
            propagation: Duration::from_micros(prop_us),
            queue_limit,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cut_through_matches_event_path(
        seed in 0u64..1000,
        (pipes, links) in chain(),
        train in train(),
    ) {
        let events = run(&pipes, &links, &train, seed, true, End::Mailbox);
        let cut = run(&pipes, &links, &train, seed, false, End::Mailbox);
        // Per port: an early-pushed cut-through delivery may precede an
        // event pushed at that very instant (module docs of the engine),
        // so only each end's own order is the contract here.
        for port in 0..2 {
            prop_assert_eq!(cut.on_port(port), events.on_port(port));
        }
        prop_assert_eq!(&cut.counters, &events.counters);
        prop_assert_eq!(events.hops, 0, "taps force the event path");
        prop_assert!(cut.hops > 0);
        prop_assert!(
            cut.events < events.events,
            "cut-through dispatched {} events, the event path {}",
            cut.events,
            events.events
        );
    }

    #[test]
    fn mailbox_arrivals_match_recorded_events(
        seed in 0u64..1000,
        (pipes, links) in chain(),
        train in train(),
    ) {
        let recorded = run(&pipes, &links, &train, seed, false, End::Recorder);
        let mailbox = run(&pipes, &links, &train, seed, false, End::Mailbox);
        // One list for both ports: same-time deliveries from the two
        // directions must come out in the events' (pushed, seq) order.
        prop_assert_eq!(&mailbox.deliveries, &recorded.deliveries);
        prop_assert_eq!(&mailbox.counters, &recorded.counters);
        prop_assert_eq!(mailbox.hops, recorded.hops);
        prop_assert_eq!(recorded.sink_arrivals, 0, "a device is never a sink");
        prop_assert_eq!(
            recorded.events - mailbox.events,
            mailbox.sink_arrivals,
            "every arrival replaces exactly one event"
        );
        prop_assert_eq!(mailbox.sink_arrivals, mailbox.deliveries.len() as u64);
    }
}
