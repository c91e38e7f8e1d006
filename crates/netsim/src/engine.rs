//! The discrete-event engine: nodes, ports, links, timers, taps.
//!
//! Determinism is a hard requirement — every experiment in the paper is
//! reproduced from a seed — so the event queue breaks time ties by push
//! time, then insertion order, devices draw randomness only from
//! labeled streams (see [`crate::rng`]), and nothing reads the host
//! clock.
//!
//! # Cut-through forwarding
//!
//! Most in-path stages preserve order: i.i.d. loss, a constant delay,
//! a swap pipe's zero-probability direction. Running them as events
//! costs one dispatch per packet per stage (two for a delay stage,
//! whose timer is a second event) while changing nothing a timer or
//! another port could observe. Such a device can instead answer
//! [`Device::cut_through`], and the engine then evaluates it at
//! transmit time: it offers the packet to the link, asks the next
//! node for its verdict, offers again at `arrival + delay`, and so on,
//! pushing one delivery event at the first node that needs one.
//!
//! The contract that keeps this byte-identical to the event path:
//!
//! * **per-port** — the verdict depends only on the device's own state
//!   for the arrival port, never on its other ports, and nothing else
//!   (no other port, no timer) transmits on the port it forwards to;
//! * **order-only** — that state may depend on the order of packets on
//!   the port but not on *when* they arrive: no `ctx.now()`, no timers;
//! * **constant delay** — one fixed delay per port, so the stage stays
//!   FIFO and every downstream link sees the same offers, in the same
//!   order, at the same times as on the event path;
//! * **no generated packets** — a verdict forwards or drops the one
//!   packet; it never emits, duplicates or holds one;
//! * **static** — whether a port answers `Some` is fixed by the
//!   device's configuration, not decided packet by packet.
//!
//! The delivery event at the end of a chain is pushed early, but it is
//! ordered among same-time events by the time its last hop would have
//! pushed it, so ties fire in event-path order too (up to events pushed
//! at that very instant, which it precedes).
//!
//! Taps force the event path: a node with an rx or tx tap is always
//! delivered to as an event, so ground-truth captures (§IV-A) record
//! exactly what they did before. Chains are cut after
//! `MAX_CUT_THROUGH_HOPS` nodes (a ring of forwarders would otherwise
//! never terminate); the node at the bound takes an ordinary event.
//!
//! # Sink arrivals
//!
//! A chain that ends at a mailbox ([`Simulator::add_mailbox`]) needs no
//! event at all: the mailbox only queues what it receives. The walk
//! files an arrival under the `(time, pushed, seq)` key the delivery
//! event would have had, drawing `seq` from the event counter so every
//! other event keeps its key, and [`Simulator::run_until`] releases it
//! into the mailbox's queue and rx taps when it reaches that key. A
//! tapped mailbox is fed the same way, so tapped and headless builds
//! dispatch the same events. [`Simulator::next_event_time`] counts
//! pending arrivals, so a caller stepping one event at a time still
//! stops at each arrival's time.
//!
//! # Packets in flight
//!
//! Each transmitted packet is written once into a slab; calendar
//! entries, device actions and arrivals carry its `u32` handle, the
//! cut-through walk reads it in place, and dispatch moves it out once
//! into [`Device::on_packet`].

use crate::calendar::CalendarQueue;
use crate::capture::{Dir, TraceHandle, TraceRecord};
use crate::link::{LinkParams, LinkState, Offer};
use crate::mailbox::{Arrival, Arrivals, MailboxQueue, RxPacket};
use crate::slab::PacketSlab;
use crate::time::SimTime;
use reorder_wire::Packet;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Identifies a node (device) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A port index local to a node. Devices define their own port
/// conventions (e.g. a pipe forwards port 0 ↔ port 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub usize);

/// The behavior of a simulated node.
///
/// Devices are purely reactive: they are invoked for packet deliveries
/// and timer expirations, and respond by calling methods on [`Ctx`].
pub trait Device {
    /// A packet arrived on `port`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Evaluate a packet arriving on `port` at transmit time instead of
    /// as an event (see the module docs for the contract). `None`, the
    /// default, means the port needs an event. A device answering `Some`
    /// must make [`Device::on_packet`] take the same decision, through
    /// the same code, so the event path (taken when the node is tapped)
    /// and the cut-through path cannot drift.
    ///
    /// The verdict may use only the device's per-port state and the
    /// order of packets on that port — never the time, a timer or
    /// another port — must carry one constant delay per port, and must
    /// not generate packets.
    fn cut_through(&mut self, _port: Port, _pkt: &Packet) -> Option<CutThrough> {
        None
    }

    /// Diagnostic name.
    fn name(&self) -> &str {
        "device"
    }
}

/// A device's transmit-time verdict on one packet
/// ([`Device::cut_through`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutThrough {
    /// Transmit the packet out of `port` after `delay`.
    Forward {
        /// Outgoing port.
        port: Port,
        /// Constant per-port delay before transmission.
        delay: Duration,
    },
    /// Drop the packet.
    Drop,
}

/// Longest chain of cut-through nodes one transmission walks before
/// the next node is handed an ordinary delivery event. Real paths chain
/// a handful of stages; the bound only stops forwarding rings.
const MAX_CUT_THROUGH_HOPS: u64 = 64;

/// What a device may do while handling an event.
#[derive(Debug)]
enum Action {
    /// Transmit the slab packet `pkt` out of `port`.
    Transmit {
        port: Port,
        pkt: u32,
    },
    SetTimer {
        delay: Duration,
        token: u64,
    },
}

/// Execution context handed to a device during event handling.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    actions: &'a mut Vec<Action>,
    packets: &'a mut PacketSlab,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node being invoked (useful for diagnostics).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queue a packet for transmission out of `port`. Serialization and
    /// propagation delays of the attached link apply; transmissions
    /// issued within one event handler keep their issue order.
    pub fn transmit(&mut self, port: Port, pkt: Packet) {
        let pkt = self.packets.insert(pkt);
        self.actions.push(Action::Transmit { port, pkt });
    }

    /// Arrange for [`Device::on_timer`] to be called `delay` from now
    /// with `token`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.actions.push(Action::SetTimer { delay, token });
    }
}

#[derive(Debug)]
enum EventKind {
    /// Deliver the slab packet `pkt` to `node`'s `port`.
    Deliver {
        node: NodeId,
        port: Port,
        pkt: u32,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
}

/// The simulator: owns every device, link and pending event.
///
/// Hot-path layout: events live in a calendar queue (the private
/// `calendar` module) and carry handles into a packet slab; links and
/// taps are dense per-node tables indexed by `NodeId`/`Port`, so the
/// per-event path does no hashing. [`Simulator::reset`] recycles every
/// allocation for the next run — the pooling fast path campaign
/// workers ride.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    master_seed: u64,
    /// `None` for a mailbox, which has no device.
    nodes: Vec<Option<Box<dyn Device>>>,
    names: Vec<String>,
    /// `links[node][port]` — dense, grown by `connect_asym`.
    links: Vec<Vec<Option<LinkEndpoint>>>,
    queue: CalendarQueue<EventKind>,
    /// Every packet in flight (module docs).
    packets: PacketSlab,
    /// `sinks[node]` — a mailbox's receive queue, `None` for a device.
    sinks: Vec<Option<MailboxQueue>>,
    /// Mailbox deliveries waiting for the clock (module docs).
    arrivals: Arrivals,
    /// `rx_taps[node]` / `tx_taps[node]` — dense, grown by `add_node`.
    rx_taps: Vec<Vec<TraceHandle>>,
    tx_taps: Vec<Vec<TraceHandle>>,
    scratch: Vec<Action>,
    events: u64,
    cut_through_hops: u64,
    sink_arrivals: u64,
    /// Count of packets dropped by full link queues (all links).
    pub link_drops: u64,
}

struct LinkEndpoint {
    peer: (NodeId, Port),
    state: LinkState,
}

impl Simulator {
    /// Create a simulator whose stochastic devices will derive their
    /// random streams from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            master_seed,
            nodes: Vec::new(),
            names: Vec::new(),
            links: Vec::new(),
            queue: CalendarQueue::new(),
            packets: PacketSlab::default(),
            sinks: Vec::new(),
            arrivals: Arrivals::default(),
            rx_taps: Vec::new(),
            tx_taps: Vec::new(),
            scratch: Vec::new(),
            events: 0,
            cut_through_hops: 0,
            sink_arrivals: 0,
            link_drops: 0,
        }
    }

    /// Return the simulator to the just-constructed state under a new
    /// master seed, retaining every allocation (event-queue buckets,
    /// packet slab, arrival queue, node/link/tap tables, scratch). Packets
    /// still in flight and arrivals still pending are dropped. A reset
    /// simulator is
    /// indistinguishable from `Simulator::new(seed)` to everything
    /// built on it — the pooled-construction determinism tests assert
    /// byte-identical campaign output — but skips the allocator.
    pub fn reset(&mut self, master_seed: u64) {
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.master_seed = master_seed;
        self.nodes.clear();
        self.names.clear();
        self.links.clear();
        self.queue.clear();
        self.packets.clear();
        self.sinks.clear();
        self.arrivals.clear();
        self.rx_taps.clear();
        self.tx_taps.clear();
        self.events = 0;
        self.cut_through_hops = 0;
        self.sink_arrivals = 0;
        self.link_drops = 0;
    }

    /// Events dispatched since construction (or the last
    /// [`Simulator::reset`]) — the denominator of events/sec in the
    /// perf harness.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Cut-through verdicts taken since construction (or the last
    /// [`Simulator::reset`]): each one is a node a packet crossed at
    /// transmit time instead of as a delivery event (see the module
    /// docs). With [`Simulator::events_processed`] it accounts for the
    /// per-packet work the event count no longer shows.
    pub fn cut_through_hops(&self) -> u64 {
        self.cut_through_hops
    }

    /// Mailbox arrivals released since construction (or the last
    /// [`Simulator::reset`]): deliveries that would each have been an
    /// event before mailboxes became sinks (module docs). Events,
    /// cut-through hops and sink arrivals together account for every
    /// delivery.
    pub fn sink_arrivals(&self) -> u64 {
        self.sink_arrivals
    }

    /// Events currently queued (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Event pushes that missed the calendar queue's wheel window and
    /// fell back to the ordered overflow heap, since construction (or
    /// the last [`Simulator::reset`]). A telemetry counter: overflow
    /// pushes cost a heap insert instead of an O(1) bucket append, so
    /// a high ratio against [`Simulator::events_processed`] means the
    /// wheel width no longer matches the workload's event horizon.
    pub fn overflow_events(&self) -> u64 {
        self.queue.overflow_pushes()
    }

    /// The master seed (devices use it with [`crate::rng::stream`]).
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a device; returns its id.
    pub fn add_node(&mut self, device: Box<dyn Device>) -> NodeId {
        let name = device.name().to_string();
        self.push_node(name, Some(device), None)
    }

    /// Add a mailbox: a node that queues every packet delivered to it
    /// for code outside the event loop (the prober), returned with the
    /// queue that code reads. Deliveries to it are arrivals, not
    /// events (module docs); timers set on it do nothing.
    pub fn add_mailbox(&mut self) -> (NodeId, MailboxQueue) {
        let queue = MailboxQueue::default();
        let id = self.push_node("mailbox".to_string(), None, Some(queue.clone()));
        (id, queue)
    }

    fn push_node(
        &mut self,
        name: String,
        device: Option<Box<dyn Device>>,
        sink: Option<MailboxQueue>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.names.push(name);
        self.nodes.push(device);
        self.sinks.push(sink);
        self.links.push(Vec::new());
        self.rx_taps.push(Vec::new());
        self.tx_taps.push(Vec::new());
        id
    }

    /// Diagnostic name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Connect `a`'s port `pa` to `b`'s port `pb` with symmetric link
    /// parameters. Panics if either port is already wired.
    pub fn connect(&mut self, a: NodeId, pa: Port, b: NodeId, pb: Port, params: LinkParams) {
        self.connect_asym(a, pa, b, pb, params, params);
    }

    /// Connect with distinct parameters per direction (`ab` applies to
    /// packets from `a` to `b`).
    pub fn connect_asym(
        &mut self,
        a: NodeId,
        pa: Port,
        b: NodeId,
        pb: Port,
        ab: LinkParams,
        ba: LinkParams,
    ) {
        self.wire(a, pa, b, pb, ab);
        self.wire(b, pb, a, pa, ba);
    }

    fn wire(&mut self, from: NodeId, port: Port, to: NodeId, to_port: Port, params: LinkParams) {
        let ports = &mut self.links[from.0];
        if ports.len() <= port.0 {
            ports.resize_with(port.0 + 1, || None);
        }
        assert!(
            ports[port.0].is_none(),
            "port {port:?} of node {from:?} already wired"
        );
        ports[port.0] = Some(LinkEndpoint {
            peer: (to, to_port),
            state: LinkState::new(params),
        });
    }

    /// Record every packet *delivered to* `node` (any port) into the
    /// returned trace. This is the receive-order ground truth of §IV-A.
    pub fn tap_rx(&mut self, node: NodeId) -> TraceHandle {
        let h: TraceHandle = Rc::new(RefCell::new(Vec::new()));
        self.rx_taps[node.0].push(h.clone());
        h
    }

    /// Record every packet *transmitted by* `node` (any port), stamped
    /// with the time the transmission was issued. This is the send-order
    /// ground truth used to validate reverse-path inferences.
    pub fn tap_tx(&mut self, node: NodeId) -> TraceHandle {
        let h: TraceHandle = Rc::new(RefCell::new(Vec::new()));
        self.tx_taps[node.0].push(h.clone());
        h
    }

    /// Inject a packet as if `node` had transmitted it out of `port` at
    /// the current time. Used by external agents (the prober) that drive
    /// the simulation from outside the event loop.
    pub fn transmit_from(&mut self, node: NodeId, port: Port, pkt: Packet) {
        record(&self.tx_taps[node.0], self.now, node, port, Dir::Tx, &pkt);
        let pkt = self.packets.insert(pkt);
        self.do_transmit(node, port, pkt);
    }

    /// Schedule a timer for `node` (external-agent counterpart of
    /// [`Ctx::set_timer`]).
    pub fn schedule_timer(&mut self, node: NodeId, delay: Duration, token: u64) {
        let time = self.now + delay;
        self.push(time, EventKind::Timer { node, token });
    }

    /// Time of the next pending event or mailbox arrival, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let event = self.queue.peek_key().map(|(t, ..)| t);
        let arrival = self.arrivals.peek_key().map(|(t, ..)| t);
        event.into_iter().chain(arrival).min()
    }

    /// Run until the queue is empty or the next event lies beyond
    /// `horizon`, releasing mailbox arrivals due by then in key order
    /// among the events; the clock then advances to `horizon` (so
    /// repeated calls make steady progress even with no traffic).
    pub fn run_until(&mut self, horizon: SimTime) {
        loop {
            let event = self.queue.peek_key().filter(|k| k.0 <= horizon);
            let arrival = self.arrivals.peek_key().filter(|k| k.0 <= horizon);
            match (event, arrival) {
                (_, Some(a)) if event.is_none_or(|e| a < e) => self.release_arrival(),
                (Some(_), _) => {
                    let Some((time, _, kind)) = self.queue.pop() else {
                        break;
                    };
                    debug_assert!(time >= self.now, "time went backwards");
                    self.now = time;
                    self.dispatch(kind);
                }
                _ => break,
            }
        }
        if horizon > self.now && horizon != SimTime::MAX {
            self.now = horizon;
        }
    }

    /// Run for `d` from the current time.
    pub fn run_for(&mut self, d: Duration) {
        let horizon = self.now + d;
        self.run_until(horizon);
    }

    /// Run until no events remain (the network is quiet). `limit` bounds
    /// runaway simulations; panics if exceeded, since that indicates a
    /// device generating unbounded traffic.
    pub fn run_until_idle(&mut self, limit: SimTime) {
        while let Some(t) = self.next_event_time() {
            assert!(t <= limit, "simulation still active at limit {limit}");
            self.run_until(t);
        }
    }

    /// Move the earliest pending arrival into its mailbox's queue, at
    /// the time its delivery event would have fired.
    fn release_arrival(&mut self) {
        let Some((time, Arrival { node, port, pkt })) = self.arrivals.pop() else {
            return;
        };
        let Some(pkt) = self.packets.take(pkt) else {
            return;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.sink_arrivals += 1;
        record(&self.rx_taps[node.0], time, node, port, Dir::Rx, &pkt);
        if let Some(queue) = &self.sinks[node.0] {
            queue.borrow_mut().push_back(RxPacket { time, port, pkt });
        }
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        self.push_from(self.now, time, kind);
    }

    /// Schedule `kind` at `time` as if pushed at `pushed`. Ties at one
    /// `time` break by push time, then by push order. Event-path pushes
    /// happen at `now`, which never decreases, so for them this is plain
    /// insertion order; a cut-through delivery passes the time its last
    /// hop would have pushed it as an event, and so keeps the place
    /// among same-time events that it has on the event path.
    fn push_from(&mut self, pushed: SimTime, time: SimTime, kind: EventKind) {
        let seq = self.next_seq();
        self.queue.push(self.now, time, pushed, seq, kind);
    }

    /// The next tiebreak sequence number, shared by events and arrivals.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Offer the slab packet `pkt` to the link out of `node`'s `port`,
    /// then walk the chain of untapped cut-through nodes behind it
    /// (module docs): each verdict is applied at the packet's arrival
    /// time there, and the walk ends in one delivery event at the first
    /// node that needs one, or in an arrival at a mailbox.
    fn do_transmit(&mut self, node: NodeId, port: Port, pkt: u32) {
        let Some(len) = self.packets.get(pkt).map(Packet::wire_len) else {
            return;
        };
        let (mut node, mut port, mut now) = (node, port, self.now);
        let mut hops = 0;
        loop {
            let Some(end) = self.links[node.0].get_mut(port.0).and_then(Option::as_mut) else {
                panic!(
                    "node {} ({node:?}) transmitted on unwired port {port:?}",
                    self.names[node.0]
                );
            };
            let at = match end.state.offer(now, len) {
                Offer::Arrives(at) => at,
                Offer::Dropped => {
                    self.link_drops += 1;
                    self.packets.take(pkt);
                    break;
                }
            };
            let (peer, peer_port) = end.peer;
            if self.sinks[peer.0].is_some() {
                let seq = self.next_seq();
                let arrival = Arrival {
                    node: peer,
                    port: peer_port,
                    pkt,
                };
                self.arrivals.push(at, now, seq, arrival);
                break;
            }
            let verdict = if hops < MAX_CUT_THROUGH_HOPS
                && self.rx_taps[peer.0].is_empty()
                && self.tx_taps[peer.0].is_empty()
            {
                match (self.nodes[peer.0].as_mut(), self.packets.get(pkt)) {
                    (Some(dev), Some(p)) => dev.cut_through(peer_port, p),
                    _ => None,
                }
            } else {
                None
            };
            match verdict {
                Some(CutThrough::Forward { port: out, delay }) => {
                    hops += 1;
                    (node, port, now) = (peer, out, at + delay);
                }
                Some(CutThrough::Drop) => {
                    hops += 1;
                    self.packets.take(pkt);
                    break;
                }
                None => {
                    self.push_from(
                        now,
                        at,
                        EventKind::Deliver {
                            node: peer,
                            port: peer_port,
                            pkt,
                        },
                    );
                    break;
                }
            }
        }
        self.cut_through_hops += hops;
    }

    fn dispatch(&mut self, kind: EventKind) {
        self.events += 1;
        let node = match &kind {
            EventKind::Deliver { node, .. } | EventKind::Timer { node, .. } => *node,
        };
        let Some(mut dev) = self.nodes[node.0].take() else {
            // Deliveries to a mailbox are arrivals, never events, so
            // only a timer can land here, and it has nothing to wake.
            if self.sinks[node.0].is_some() {
                return;
            }
            panic!("re-entrant dispatch on node {}", self.names[node.0]);
        };
        let mut actions = std::mem::take(&mut self.scratch);
        match kind {
            EventKind::Deliver { port, pkt, .. } => {
                if let Some(pkt) = self.packets.take(pkt) {
                    record(&self.rx_taps[node.0], self.now, node, port, Dir::Rx, &pkt);
                    let mut ctx = Ctx {
                        now: self.now,
                        node,
                        actions: &mut actions,
                        packets: &mut self.packets,
                    };
                    dev.on_packet(&mut ctx, port, pkt);
                }
            }
            EventKind::Timer { token, .. } => {
                let mut ctx = Ctx {
                    now: self.now,
                    node,
                    actions: &mut actions,
                    packets: &mut self.packets,
                };
                dev.on_timer(&mut ctx, token);
            }
        }
        self.nodes[node.0] = Some(dev);
        for act in actions.drain(..) {
            match act {
                Action::Transmit { port, pkt } => {
                    if let Some(p) = self.packets.get(pkt) {
                        record(&self.tx_taps[node.0], self.now, node, port, Dir::Tx, p);
                    }
                    self.do_transmit(node, port, pkt);
                }
                Action::SetTimer { delay, token } => {
                    let time = self.now + delay;
                    self.push(time, EventKind::Timer { node, token });
                }
            }
        }
        self.scratch = actions;
    }
}

/// Append one record of `pkt` to every trace in `taps`.
fn record(taps: &[TraceHandle], time: SimTime, node: NodeId, port: Port, dir: Dir, pkt: &Packet) {
    for t in taps {
        t.borrow_mut().push(TraceRecord {
            time,
            node,
            port,
            dir,
            pkt: pkt.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_wire::{Ipv4Addr4, PacketBuilder, TcpFlags};

    /// Echoes every packet back out the port it arrived on, with src/dst
    /// swapped.
    struct Echo;
    impl Device for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
            let mut reply = pkt.clone();
            std::mem::swap(&mut reply.ip.src, &mut reply.ip.dst);
            ctx.transmit(port, reply);
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// Collects deliveries.
    struct Sink(Rc<RefCell<Vec<(SimTime, Packet)>>>);
    impl Device for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: Port, pkt: Packet) {
            self.0.borrow_mut().push((ctx.now(), pkt));
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    /// Collects deliveries with their port.
    struct PortSink(Rc<RefCell<Vec<(SimTime, usize, u16)>>>);
    impl Device for PortSink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
            self.0
                .borrow_mut()
                .push((ctx.now(), port.0, pkt.ip.ident.raw()));
        }
    }

    /// Emits `n` timers spaced 1 µs apart and records fire order.
    struct TimerBox(Rc<RefCell<Vec<u64>>>);
    impl Device for TimerBox {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: Port, _: Packet) {}
        fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
            self.0.borrow_mut().push(token);
        }
    }

    fn probe(n: u16) -> Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(10, 0, 0, 1), 1000)
            .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
            .seq(u32::from(n))
            .flags(TcpFlags::ACK)
            .ipid(n)
            .build()
    }

    #[test]
    fn echo_roundtrip_timing() {
        let mut sim = Simulator::new(0);
        let rx = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.add_node(Box::new(Sink(rx.clone())));
        let echo = sim.add_node(Box::new(Echo));
        // 8 Mbit/s = 1 byte/us; 100 us propagation.
        let params = LinkParams {
            bits_per_sec: 8_000_000,
            propagation: Duration::from_micros(100),
            queue_limit: None,
        };
        sim.connect(sink, Port(0), echo, Port(0), params);
        let pkt = probe(1); // 40 bytes
        sim.transmit_from(sink, Port(0), pkt);
        sim.run_until_idle(SimTime::from_secs(1));
        let got = rx.borrow();
        assert_eq!(got.len(), 1);
        // 40us ser + 100us prop each way = 280us total.
        assert_eq!(got[0].0, SimTime::from_micros(280));
        assert_eq!(got[0].1.ip.src, Ipv4Addr4::new(10, 0, 0, 2));
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let mut sim = Simulator::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let tb = sim.add_node(Box::new(TimerBox(order.clone())));
        for token in 0..10 {
            sim.schedule_timer(tb, Duration::from_micros(5), token);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulator::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let tb = sim.add_node(Box::new(TimerBox(order.clone())));
        sim.schedule_timer(tb, Duration::from_micros(10), 1);
        sim.schedule_timer(tb, Duration::from_micros(30), 2);
        sim.run_until(SimTime::from_micros(20));
        assert_eq!(*order.borrow(), vec![1]);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        sim.run_until(SimTime::from_micros(40));
        assert_eq!(*order.borrow(), vec![1, 2]);
    }

    #[test]
    fn taps_record_both_directions() {
        let mut sim = Simulator::new(0);
        let rxbuf = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.add_node(Box::new(Sink(rxbuf)));
        let echo = sim.add_node(Box::new(Echo));
        sim.connect(sink, Port(0), echo, Port(0), LinkParams::lan());
        let echo_rx = sim.tap_rx(echo);
        let echo_tx = sim.tap_tx(echo);
        sim.transmit_from(sink, Port(0), probe(7));
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(echo_rx.borrow().len(), 1);
        assert_eq!(echo_tx.borrow().len(), 1);
        assert_eq!(echo_rx.borrow()[0].dir, Dir::Rx);
        assert_eq!(echo_tx.borrow()[0].dir, Dir::Tx);
        assert!(echo_tx.borrow()[0].time >= echo_rx.borrow()[0].time);
    }

    #[test]
    #[should_panic(expected = "unwired port")]
    fn transmit_on_unwired_port_panics() {
        let mut sim = Simulator::new(0);
        let n = sim.add_node(Box::new(Echo));
        sim.transmit_from(n, Port(3), probe(1));
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        let c = sim.add_node(Box::new(Echo));
        sim.connect(a, Port(0), b, Port(0), LinkParams::lan());
        sim.connect(a, Port(0), c, Port(0), LinkParams::lan());
    }

    #[test]
    fn reset_sim_is_indistinguishable_from_fresh() {
        // The pooling contract: building the same scenario on a reset
        // simulator yields the exact event stream of a fresh one.
        fn drive(sim: &mut Simulator) -> Vec<(SimTime, u16)> {
            let (me, rx) = sim.add_mailbox();
            let echo = sim.add_node(Box::new(Echo));
            sim.connect(me, Port(0), echo, Port(0), LinkParams::wan());
            let h = sim.tap_rx(echo);
            for i in 0..30 {
                sim.transmit_from(me, Port(0), probe(i));
            }
            sim.run_until_idle(SimTime::from_secs(5));
            assert_eq!(h.borrow().len(), 30);
            crate::mailbox::drain(&rx)
                .iter()
                .map(|r| (r.time, r.pkt.ip.ident.raw()))
                .collect()
        }
        let mut fresh = Simulator::new(123);
        let fresh_trace = drive(&mut fresh);
        let fresh_counts = (fresh.events_processed(), fresh.sink_arrivals());
        assert_eq!(fresh_counts, (30, 30));

        // Dirty a simulator with an unrelated run, stopped with packets
        // still in the slab, events still queued and echoes pending at
        // its mailbox, then reset and rebuild.
        let mut pooled = Simulator::new(7);
        {
            let (me, _rx) = pooled.add_mailbox();
            let echo = pooled.add_node(Box::new(Echo));
            pooled.connect(me, Port(0), echo, Port(0), LinkParams::lan());
            for i in 0..5 {
                pooled.transmit_from(me, Port(0), probe(i));
            }
            let first = pooled.next_event_time().expect("probes in flight");
            pooled.run_until(first); // the echo answers the first probe
            assert!(pooled.pending_events() > 0);
            assert!(pooled.arrivals.len() > 0, "an echo is pending");
            assert!(pooled.packets.len() > pooled.arrivals.len());
        }
        pooled.reset(123);
        assert_eq!(pooled.now(), SimTime::ZERO);
        assert_eq!(pooled.events_processed(), 0);
        assert_eq!(pooled.sink_arrivals(), 0);
        assert_eq!(pooled.next_event_time(), None);
        assert_eq!((pooled.packets.len(), pooled.arrivals.len()), (0, 0));
        assert_eq!(pooled.master_seed(), 123);
        let pooled_trace = drive(&mut pooled);
        assert_eq!(pooled_trace, fresh_trace);
        assert_eq!(
            (pooled.events_processed(), pooled.sink_arrivals()),
            fresh_counts
        );
        assert_eq!(pooled.packets.len(), 0, "every packet left the slab");
    }

    #[test]
    fn mailbox_ties_release_in_event_order() {
        // Three packets reach one two-port end at the same instant: a
        // direct one transmitted last, one crossing a forwarder (pushed
        // later at its last hop) and a second direct one on the other
        // port. A mailbox must release them in the order a device
        // receives them as events: by push time, then push order.
        fn run(mailbox: bool) -> (Vec<(SimTime, usize, u16)>, u64, u64) {
            let mut sim = Simulator::new(0);
            let rx = Rc::new(RefCell::new(Vec::new()));
            let (end, queue) = if mailbox {
                let (node, queue) = sim.add_mailbox();
                (node, Some(queue))
            } else {
                (sim.add_node(Box::new(PortSink(rx.clone()))), None)
            };
            let src = sim.add_node(Box::new(Echo));
            let fwd = sim.add_node(Box::new(crate::pipes::Forwarder::new()));
            // 8 Mbit/s: a 40-byte probe serializes in 40 µs.
            let link = |us| LinkParams {
                bits_per_sec: 8_000_000,
                propagation: Duration::from_micros(us),
                queue_limit: None,
            };
            sim.connect(src, Port(0), fwd, Port(0), link(100));
            sim.connect(fwd, Port(1), end, Port(0), link(60));
            sim.connect(src, Port(1), end, Port(1), link(200));
            let other = sim.add_node(Box::new(Echo));
            sim.connect(other, Port(0), end, Port(2), link(200));
            // Via the forwarder: pushed at 140 µs, arrives at 240 µs.
            sim.transmit_from(src, Port(0), probe(1));
            // Direct: pushed at 0, arrives at 240 µs.
            sim.transmit_from(src, Port(1), probe(2));
            sim.transmit_from(other, Port(0), probe(3));
            let got = match queue {
                Some(queue) => {
                    let mut got = Vec::new();
                    while let Some(t) = sim.next_event_time() {
                        sim.run_until(t);
                        let released = crate::mailbox::drain(&queue);
                        got.extend(
                            released
                                .iter()
                                .map(|r| (r.time, r.port.0, r.pkt.ip.ident.raw())),
                        );
                    }
                    got
                }
                None => {
                    sim.run_until_idle(SimTime::from_secs(1));
                    rx.take()
                }
            };
            (got, sim.events_processed(), sim.sink_arrivals())
        }
        let (events, event_count, _) = run(false);
        assert_eq!(
            events,
            vec![
                (SimTime::from_micros(240), 1, 2),
                (SimTime::from_micros(240), 2, 3),
                (SimTime::from_micros(240), 0, 1),
            ]
        );
        let (arrivals, arrival_events, sink_arrivals) = run(true);
        assert_eq!(arrivals, events);
        assert_eq!((event_count, arrival_events, sink_arrivals), (3, 0, 3));
    }

    #[test]
    fn events_processed_counts_dispatches() {
        let mut sim = Simulator::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let tb = sim.add_node(Box::new(TimerBox(order)));
        for token in 0..7 {
            sim.schedule_timer(tb, Duration::from_micros(token), token);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(sim.events_processed(), 7);
    }

    #[test]
    fn cut_through_matches_tapped_event_path() {
        // sink <- fwd <- src: the same arrival either way; untapped, the
        // forwarder is crossed at transmit time instead of as an event.
        fn run(tap: bool) -> (Vec<SimTime>, u64, u64) {
            let mut sim = Simulator::new(0);
            let rx = Rc::new(RefCell::new(Vec::new()));
            let src = sim.add_node(Box::new(Echo));
            let fwd = sim.add_node(Box::new(crate::pipes::Forwarder::new()));
            let sink = sim.add_node(Box::new(Sink(rx.clone())));
            sim.connect(src, Port(0), fwd, Port(0), LinkParams::wan());
            sim.connect(fwd, Port(1), sink, Port(0), LinkParams::lan());
            if tap {
                sim.tap_rx(fwd);
            }
            for i in 0..3 {
                sim.transmit_from(src, Port(0), probe(i));
            }
            sim.run_until_idle(SimTime::from_secs(1));
            let times = rx.borrow().iter().map(|(t, _)| *t).collect();
            (times, sim.events_processed(), sim.cut_through_hops())
        }
        let (event_times, event_count, event_hops) = run(true);
        let (cut_times, cut_count, cut_hops) = run(false);
        assert_eq!(cut_times, event_times);
        assert_eq!((event_count, event_hops), (6, 0));
        assert_eq!((cut_count, cut_hops), (3, 3));
    }

    #[test]
    fn cut_through_ring_stops_at_hop_bound() {
        // Four forwarders wired in a ring: a packet circulates forever,
        // so each transmission may walk only MAX_CUT_THROUGH_HOPS nodes
        // before the next one takes an ordinary event.
        let mut sim = Simulator::new(0);
        let ring: Vec<NodeId> = (0..4)
            .map(|_| sim.add_node(Box::new(crate::pipes::Forwarder::new())))
            .collect();
        for (i, &a) in ring.iter().enumerate() {
            let b = ring[(i + 1) % ring.len()];
            sim.connect(a, Port(1), b, Port(0), LinkParams::lan());
        }
        sim.transmit_from(ring[0], Port(1), probe(1));
        assert_eq!(sim.cut_through_hops(), MAX_CUT_THROUGH_HOPS);
        assert_eq!(sim.pending_events(), 1);
        for round in 2..=3 {
            let next = sim
                .next_event_time()
                .expect("the packet is still in flight");
            sim.run_until(next);
            assert_eq!(sim.events_processed(), round - 1);
            assert_eq!(sim.cut_through_hops(), round * MAX_CUT_THROUGH_HOPS);
            assert_eq!(sim.pending_events(), 1);
        }
        sim.reset(0);
        assert_eq!(sim.cut_through_hops(), 0);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run() -> Vec<(SimTime, u16)> {
            let mut sim = Simulator::new(99);
            let rx = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.add_node(Box::new(Sink(rx.clone())));
            let echo = sim.add_node(Box::new(Echo));
            sim.connect(sink, Port(0), echo, Port(0), LinkParams::wan());
            for i in 0..20 {
                sim.transmit_from(sink, Port(0), probe(i));
            }
            sim.run_until_idle(SimTime::from_secs(5));
            let trace: Vec<(SimTime, u16)> = rx
                .borrow()
                .iter()
                .map(|(t, p)| (*t, p.ip.ident.raw()))
                .collect();
            trace
        }
        assert_eq!(run(), run());
    }
}
