//! Independent random loss — the failure mode that forces the Single
//! Connection Test to discard samples (§III-B) and that the SYN Test's
//! lone-reply ambiguity rules are designed around.

use super::other;
use crate::engine::{Ctx, CutThrough, Device, Port};
use crate::rng;
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_wire::Packet;
use std::time::Duration;

/// Drops packets i.i.d. with a per-direction probability.
pub struct RandomLoss {
    prob: [f64; 2],
    rngs: [SmallRng; 2],
    /// Observability: dropped packet counts per direction.
    pub dropped: [u64; 2],
    /// Observability: forwarded packet counts per direction.
    pub passed: [u64; 2],
}

impl RandomLoss {
    /// `fwd` applies upstream→downstream, `rev` the opposite direction.
    pub fn new(fwd: f64, rev: f64, master_seed: u64, label: &str) -> Self {
        assert!((0.0..=1.0).contains(&fwd) && (0.0..=1.0).contains(&rev));
        RandomLoss {
            prob: [fwd, rev],
            rngs: [
                rng::stream(master_seed, &format!("{label}.fwd")),
                rng::stream(master_seed, &format!("{label}.rev")),
            ],
            dropped: [0; 2],
            passed: [0; 2],
        }
    }
}

impl Device for RandomLoss {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        if let Some(CutThrough::Forward { port, .. }) = self.cut_through(port, &pkt) {
            ctx.transmit(port, pkt);
        }
    }

    /// One draw from the arrival direction's own stream: the verdict
    /// depends only on how many packets that direction has seen.
    fn cut_through(&mut self, port: Port, _pkt: &Packet) -> Option<CutThrough> {
        let dir = port.0;
        assert!(dir < 2);
        if self.prob[dir] > 0.0 && self.rngs[dir].gen_bool(self.prob[dir]) {
            self.dropped[dir] += 1;
            return Some(CutThrough::Drop);
        }
        self.passed[dir] += 1;
        Some(CutThrough::Forward {
            port: other(port),
            delay: Duration::ZERO,
        })
    }

    fn name(&self) -> &str {
        "random-loss"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{rig, send_and_collect};
    use super::*;
    use std::time::Duration;

    #[test]
    fn zero_loss_is_transparent() {
        let (mut sim, src, _, _, tap) = rig(Box::new(RandomLoss::new(0.0, 0.0, 1, "l")), 1);
        let order = send_and_collect(&mut sim, src, &tap, 100, Duration::ZERO);
        assert_eq!(order.len(), 100);
    }

    #[test]
    fn total_loss_drops_everything() {
        let (mut sim, src, _, _, tap) = rig(Box::new(RandomLoss::new(1.0, 0.0, 1, "l")), 1);
        let order = send_and_collect(&mut sim, src, &tap, 50, Duration::ZERO);
        assert!(order.is_empty());
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let (mut sim, src, _, _, tap) = rig(Box::new(RandomLoss::new(0.2, 0.0, 77, "l")), 77);
        let order = send_and_collect(&mut sim, src, &tap, 5000, Duration::ZERO);
        let rate = 1.0 - order.len() as f64 / 5000.0;
        assert!((0.17..=0.23).contains(&rate), "loss rate {rate}");
        // Survivors keep their order.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }
}
