//! Cut-through equivalence: a chain of order-preserving pipes crossed at
//! transmit time (untapped) must behave exactly like the same chain run
//! as events (an rx tap on every pipe forces the event path) — the same
//! deliveries at both ends, at the same times, in the same order, with
//! the same per-pipe counters — while dispatching fewer events.

use proptest::prelude::*;
use reorder_netsim::pipes::{
    DelayJitter, DummynetConfig, DummynetReorder, Forwarder, RandomLoss, DOWN, UP,
};
use reorder_netsim::{
    drain, Ctx, CutThrough, Device, LinkParams, Mailbox, MailboxQueue, Port, SimTime, Simulator,
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

struct Outcome {
    /// Deliveries at the upstream and downstream mailboxes.
    ends: [Deliveries; 2],
    counters: Vec<Vec<u64>>,
    events: u64,
    hops: u64,
}

/// Wire `left — pipes… — right`, drive the packet train (`(to_right,
/// len, gap_us)` per packet) and collect what both ends received.
fn run(
    pipes: &[PipeSpec],
    links: &[LinkParams],
    train: &[(bool, usize, u64)],
    seed: u64,
    tapped: bool,
) -> Outcome {
    let mut sim = Simulator::new(seed);
    let (left_mb, left_q) = Mailbox::new();
    let (right_mb, right_q) = Mailbox::new();
    let left = sim.add_node(Box::new(left_mb));
    let mut handles = Vec::new();
    let mut prev = (left, Port(0));
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
    let right = sim.add_node(Box::new(right_mb));
    sim.connect(prev.0, prev.1, right, Port(0), links[pipes.len()]);
    for (i, &(to_right, len, gap_us)) in train.iter().enumerate() {
        let from = if to_right { left } else { right };
        sim.transmit_from(from, Port(0), packet(i as u16, len));
        sim.run_for(Duration::from_micros(gap_us));
    }
    sim.run_until_idle(SimTime::from_secs(100));
    let collect = |q: &MailboxQueue| {
        drain(q)
            .into_iter()
            .map(|r| (r.time, r.port.0, r.pkt.ip.ident.raw()))
            .collect()
    };
    Outcome {
        ends: [collect(&left_q), collect(&right_q)],
        counters: handles.iter().map(|p| p.borrow().counters()).collect(),
        events: sim.events_processed(),
        hops: sim.cut_through_hops(),
    }
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
        (pipes, links) in (1usize..=4).prop_flat_map(|n| (
            proptest::collection::vec(pipe_spec(), n),
            proptest::collection::vec(link(), n + 1),
        )),
        train in proptest::collection::vec((any::<bool>(), packet_len(), gap_us()), 2..60),
    ) {
        // Both directions carry traffic, so some pipe is always crossed
        // in a direction that cuts through.
        let mut train = train;
        train[0].0 = true;
        train[1].0 = false;
        let events = run(&pipes, &links, &train, seed, true);
        let cut = run(&pipes, &links, &train, seed, false);
        prop_assert_eq!(&cut.ends, &events.ends);
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
}
