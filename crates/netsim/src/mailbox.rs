//! The probe host's attachment point: a node whose received packets are
//! exposed to code *outside* the event loop.
//!
//! The paper's tools ran as user-level programs above a packet filter
//! ("programmable packet filters ... allow a user-level test program to
//! generate and receive arbitrary IP packets", §IV). A mailbox plays
//! that role in the simulator: [`crate::Simulator::add_mailbox`] adds
//! the node and returns its [`MailboxQueue`], the measurement
//! algorithms inject raw packets with
//! [`crate::Simulator::transmit_from`] and poll received packets from
//! the queue, while the simulated network runs in between.
//!
//! A mailbox is a pure sink, so a delivery to it is not an event. The
//! transmission that reaches it files an arrival under the
//! `(time, pushed, seq)` key its delivery event would have had, and
//! the engine releases it into the queue (and any rx tap) when the
//! clock reaches that key, in the same order and at the same `now` the
//! event would have given.

use crate::calendar::Entry;
use crate::engine::{NodeId, Port};
use crate::time::SimTime;
use reorder_wire::Packet;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// A timestamped received packet.
#[derive(Debug, Clone)]
pub struct RxPacket {
    /// Arrival time at the mailbox node.
    pub time: SimTime,
    /// Port it arrived on.
    pub port: Port,
    /// The packet.
    pub pkt: Packet,
}

/// Shared receive queue; the external agent holds the other clone.
pub type MailboxQueue = Rc<RefCell<VecDeque<RxPacket>>>;

/// Drain every queued packet.
pub fn drain(queue: &MailboxQueue) -> Vec<RxPacket> {
    queue.borrow_mut().drain(..).collect()
}

/// Where a pending arrival goes: the mailbox node, its port, and the
/// handle of the packet in the engine's slab.
pub(crate) struct Arrival {
    pub node: NodeId,
    pub port: Port,
    pub pkt: u32,
}

/// Arrivals filed but not yet released, earliest key first. Grows on
/// demand; `clear` keeps the allocation.
#[derive(Default)]
pub(crate) struct Arrivals {
    heap: BinaryHeap<Reverse<Entry<Arrival>>>,
}

impl Arrivals {
    /// File `arrival` under the key its delivery event would have had.
    pub fn push(&mut self, time: SimTime, pushed: SimTime, seq: u64, arrival: Arrival) {
        self.heap.push(Reverse(Entry {
            time,
            pushed,
            seq,
            item: arrival,
        }));
    }

    /// Key of the earliest pending arrival.
    pub fn peek_key(&self) -> Option<(SimTime, SimTime, u64)> {
        self.heap.peek().map(|Reverse(e)| e.key())
    }

    /// Remove the earliest pending arrival, with its time.
    pub fn pop(&mut self) -> Option<(SimTime, Arrival)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.item))
    }

    /// Arrivals pending.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Forget every pending arrival.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::link::LinkParams;
    use crate::pipes::Forwarder;
    use reorder_wire::{Ipv4Addr4, PacketBuilder, TcpFlags};

    #[test]
    fn mailbox_records_arrivals_in_order() {
        let mut sim = Simulator::new(0);
        let (me, queue) = sim.add_mailbox();
        let fwd = sim.add_node(Box::new(Forwarder::new()));
        sim.connect(me, Port(0), fwd, Port(0), LinkParams::lan());
        // Loop the forwarder's other port straight back to a second
        // mailbox port so packets echo around.
        let (other, queue2) = sim.add_mailbox();
        sim.connect(fwd, Port(1), other, Port(0), LinkParams::lan());

        for i in 0..5u16 {
            let pkt = PacketBuilder::tcp()
                .src(Ipv4Addr4::new(1, 1, 1, 1), 10)
                .dst(Ipv4Addr4::new(2, 2, 2, 2), 20)
                .seq(u32::from(i))
                .flags(TcpFlags::ACK)
                .build();
            sim.transmit_from(me, Port(0), pkt);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert!(queue.borrow().is_empty());
        let got = drain(&queue2);
        assert_eq!(got.len(), 5);
        let seqs: Vec<u32> = got.iter().map(|r| r.pkt.tcp().unwrap().seq.raw()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert!(got.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(drain(&queue2).is_empty(), "drain empties the queue");
    }
}
