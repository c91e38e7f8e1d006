//! The engine's packet store: each packet in flight is written here
//! once, and calendar entries, device actions and mailbox arrivals
//! carry its `u32` handle instead of moving the 128-byte packet.

use reorder_wire::Packet;

/// Packets in flight, addressed by handle. Freed slots are reused
/// through a free list, and [`PacketSlab::clear`] keeps both
/// allocations, so a pooled simulator stops allocating once it has
/// carried its largest burst.
#[derive(Default)]
pub(crate) struct PacketSlab {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// Store `pkt` and return its handle.
    pub fn insert(&mut self, pkt: Packet) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = Some(pkt);
                h
            }
            None => {
                self.slots.push(Some(pkt));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The packet behind `h`, read in place.
    pub fn get(&self, h: u32) -> Option<&Packet> {
        self.slots.get(h as usize)?.as_ref()
    }

    /// Move the packet behind `h` out and free its slot.
    pub fn take(&mut self, h: u32) -> Option<Packet> {
        let pkt = self.slots.get_mut(h as usize)?.take()?;
        self.free.push(h);
        Some(pkt)
    }

    /// Packets currently stored.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Drop every packet, keeping the allocations.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_wire::{Ipv4Addr4, PacketBuilder};

    fn pkt(ipid: u16) -> Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(10, 0, 0, 1), 1)
            .dst(Ipv4Addr4::new(10, 0, 0, 2), 2)
            .ipid(ipid)
            .build()
    }

    #[test]
    fn freed_slots_are_reused_and_stale_handles_miss() {
        let mut slab = PacketSlab::default();
        let a = slab.insert(pkt(1));
        let b = slab.insert(pkt(2));
        assert_eq!(slab.take(a).map(|p| p.ip.ident.raw()), Some(1));
        assert!(slab.take(a).is_none(), "a handle is taken once");
        let c = slab.insert(pkt(3));
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!(slab.get(b).map(|p| p.ip.ident.raw()), Some(2));
        assert_eq!(slab.len(), 2);
        slab.clear();
        assert_eq!(slab.len(), 0);
        assert!(slab.get(b).is_none());
    }
}
