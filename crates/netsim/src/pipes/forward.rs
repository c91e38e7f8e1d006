//! Transparent two-port forwarder — the identity pipe, useful as a
//! monitoring point and as the no-op arm of A/B scenarios.

use super::other;
use crate::engine::{Ctx, CutThrough, Device, Port};
use reorder_wire::Packet;
use std::time::Duration;

/// Forwards everything between ports 0 and 1 unchanged.
#[derive(Debug, Default)]
pub struct Forwarder {
    /// Packets forwarded (observability).
    pub forwarded: u64,
}

impl Forwarder {
    /// New transparent forwarder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Device for Forwarder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        if let Some(CutThrough::Forward { port, .. }) = self.cut_through(port, &pkt) {
            ctx.transmit(port, pkt);
        }
    }

    fn cut_through(&mut self, port: Port, _pkt: &Packet) -> Option<CutThrough> {
        self.forwarded += 1;
        Some(CutThrough::Forward {
            port: other(port),
            delay: Duration::ZERO,
        })
    }

    fn name(&self) -> &str {
        "forwarder"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{rig, send_and_collect};
    use super::*;
    use std::time::Duration;

    #[test]
    fn preserves_order_and_content() {
        let (mut sim, src, _, _, tap) = rig(Box::new(Forwarder::new()), 1);
        let order = send_and_collect(&mut sim, src, &tap, 50, Duration::ZERO);
        assert_eq!(order, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn preserves_order_with_gaps() {
        let (mut sim, src, _, _, tap) = rig(Box::new(Forwarder::new()), 1);
        let order = send_and_collect(&mut sim, src, &tap, 10, Duration::from_micros(3));
        assert_eq!(order, (0..10).collect::<Vec<u32>>());
    }
}
