//! Layer 1: the population generator.
//!
//! The §IV-B population in `reorder_core::scenario::population` is a
//! canned 50-host mix. A campaign needs the same *shape* at arbitrary
//! scale, so this module draws each host independently from a
//! configurable [`PopulationModel`]: weighted OS personalities (which
//! imply IPID schemes), a weighted reordering mechanism (dummynet
//! swaps, link striping, multipath spraying, wireless ARQ), and
//! continuous distributions over loss, delay, jitter, balancer width
//! and served-object size.
//!
//! Determinism contract: host `i` of a model under master seed `s` is a
//! pure function of `(model, i, s)` — its RNG stream is labeled by the
//! host id, so neither the campaign size nor the worker count perturbs
//! any host's spec.

use rand::rngs::SmallRng;
use rand::Rng;
use reorder_core::scenario::{FaultClass, HostSpec, PathMechanism};
use reorder_netsim::rng as simrng;
use reorder_tcpstack::HostPersonality;
use std::time::Duration;

/// Inclusive-exclusive uniform draw that tolerates a degenerate range.
fn uniform_f64(rng: &mut SmallRng, (lo, hi): (f64, f64)) -> f64 {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

fn uniform_u64(rng: &mut SmallRng, (lo, hi): (u64, u64)) -> u64 {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

/// Distributions a campaign draws its hosts from. All weights are
/// relative (they need not sum to 1). Every `(lo, hi)` range field is
/// **half-open** `[lo, hi)` — `hi` itself is never drawn — and a
/// degenerate range (`hi <= lo`) collapses to the constant `lo`.
#[derive(Debug, Clone)]
pub struct PopulationModel {
    /// OS personality mix, `(personality, weight)`.
    pub personalities: Vec<(HostPersonality, f64)>,
    /// Reordering-mechanism mix, `(mechanism, weight)`. Rates inside a
    /// `Dummynet` entry are ignored (drawn per host below); the other
    /// variants' parameters are used as-is.
    pub mechanisms: Vec<(PathMechanism, f64)>,
    /// Probability a dummynet path reorders at all.
    pub reorder_prob: f64,
    /// Forward adjacent-swap probability range `[lo, hi)` (when
    /// reordering).
    pub fwd_range: (f64, f64),
    /// Probability the reverse direction also reorders.
    pub rev_prob: f64,
    /// Reverse adjacent-swap probability range `[lo, hi)`.
    pub rev_range: (f64, f64),
    /// Packet-loss probability range `[lo, hi)` (per direction).
    pub loss_range: (f64, f64),
    /// One-way propagation delay range `[lo, hi)`, milliseconds.
    pub delay_ms: (u64, u64),
    /// Constant per-path extra delay range `[lo, hi)`, microseconds.
    pub jitter_us: (u64, u64),
    /// Probability the host sits behind a load balancer.
    pub balancer_prob: f64,
    /// Backend count range `[lo, hi)` for balanced hosts — the default
    /// `(2, 5)` draws 2–4 backends.
    pub backends: (u64, u64),
    /// Probability the served object is redirect-sized (defeats the
    /// transfer test, §III-E).
    pub small_object_prob: f64,
    /// Served object size for normal hosts, bytes.
    pub object_size: usize,
    /// Hostile-host rate in parts per million. Each host independently
    /// draws (from its own `survey.chaos.{id}` stream) whether it is
    /// hostile and, if so, which [`FaultClass`] it exhibits. Zero — the
    /// default — skips the chaos stream entirely, so chaos-free
    /// populations are bit-identical to pre-chaos ones.
    pub chaos_ppm: u32,
}

impl Default for PopulationModel {
    /// The 2002-flavored mix of `reorder_core::scenario::population`:
    /// mostly traditional global-IPID stacks, a sizable Linux 2.4
    /// contingent, a few random-IPID or hardened boxes; dummynet is the
    /// dominant reordering mechanism with a tail of §V causes.
    fn default() -> Self {
        PopulationModel {
            personalities: vec![
                (HostPersonality::freebsd4(), 0.34),
                (HostPersonality::linux22(), 0.18),
                (HostPersonality::linux24(), 0.18),
                (HostPersonality::windows2000(), 0.12),
                (HostPersonality::solaris8(), 0.12),
                (HostPersonality::openbsd3(), 0.04),
                (HostPersonality::hardened(), 0.02),
            ],
            mechanisms: vec![
                (PathMechanism::Dummynet, 0.82),
                (
                    PathMechanism::Striping {
                        links: 2,
                        bits_per_sec: 1_000_000_000,
                    },
                    0.06,
                ),
                (
                    PathMechanism::Multipath {
                        skew: Duration::from_micros(80),
                    },
                    0.06,
                ),
                (PathMechanism::WirelessArq { frame_error: 0.1 }, 0.06),
            ],
            reorder_prob: 0.4,
            fwd_range: (0.002, 0.25),
            rev_prob: 0.4,
            rev_range: (0.001, 0.08),
            loss_range: (0.0, 0.02),
            delay_ms: (5, 120),
            jitter_us: (100, 300),
            balancer_prob: 0.1,
            backends: (2, 5),
            small_object_prob: 0.15,
            object_size: 12 * 1024,
            chaos_ppm: 0,
        }
    }
}

impl PopulationModel {
    /// Pick from a weighted list. Panics on an empty or zero-weight
    /// list — a model bug worth failing loudly on.
    fn weighted<'a, T>(rng: &mut SmallRng, items: &'a [(T, f64)]) -> &'a T {
        let total: f64 = items.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "weighted pick over empty/zero-weight list");
        let mut x = rng.gen_range(0.0..total);
        for (item, w) in items {
            let w = w.max(0.0);
            if x < w {
                return item;
            }
            x -= w;
        }
        &items[items.len() - 1].0
    }

    /// Generate host `id`'s spec under `master_seed` — a pure function
    /// of `(self, id, master_seed)`.
    pub fn host(&self, id: u64, master_seed: u64) -> HostSpec {
        let mut rng: SmallRng = simrng::stream(master_seed, &format!("survey.host.{id}"));
        let personality = Self::weighted(&mut rng, &self.personalities).clone();
        let mechanism = *Self::weighted(&mut rng, &self.mechanisms);
        let reorders = rng.gen_bool(self.reorder_prob.clamp(0.0, 1.0));
        let fwd_reorder = if reorders {
            uniform_f64(&mut rng, self.fwd_range)
        } else {
            0.0
        };
        let rev_reorder = if reorders && rng.gen_bool(self.rev_prob.clamp(0.0, 1.0)) {
            uniform_f64(&mut rng, self.rev_range)
        } else {
            0.0
        };
        let loss = uniform_f64(&mut rng, self.loss_range);
        let delay = Duration::from_millis(uniform_u64(&mut rng, self.delay_ms));
        let jitter = Duration::from_micros(uniform_u64(&mut rng, self.jitter_us));
        let backends = if rng.gen_bool(self.balancer_prob.clamp(0.0, 1.0)) {
            uniform_u64(&mut rng, self.backends) as usize
        } else {
            1
        };
        let object_size = if rng.gen_bool(self.small_object_prob.clamp(0.0, 1.0)) {
            256
        } else {
            self.object_size
        };
        // Hostility lives on its own RNG stream so that turning chaos
        // on (or off) never perturbs any cooperative host's path draws.
        let fault = if self.chaos_ppm > 0 {
            let mut chaos: SmallRng = simrng::stream(master_seed, &format!("survey.chaos.{id}"));
            if chaos.gen_range(0u32..1_000_000) < self.chaos_ppm {
                Some(match chaos.gen_range(0u32..5) {
                    0 => FaultClass::Blackhole,
                    1 => FaultClass::RstReject,
                    2 => FaultClass::Tarpit {
                        delay: Duration::from_secs(30),
                    },
                    // 22 packets: enough to survive the amenability
                    // probe (~19 cumulative packets in reusing mode)
                    // but die inside the first measurement run, where
                    // the dead-tail rule classifies the host instead
                    // of letting a short campaign finish before the
                    // fault ever fires.
                    3 => FaultClass::DeadAfter { packets: 22 },
                    _ => FaultClass::HeavyLoss { rate: 0.45 },
                })
            } else {
                None
            }
        } else {
            None
        };
        HostSpec {
            name: format!("host{id:06}.survey"),
            personality,
            fwd_reorder,
            rev_reorder,
            loss,
            delay,
            jitter,
            backends,
            object_size,
            mechanism,
            fault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_is_pure_in_id_and_seed() {
        let m = PopulationModel::default();
        let a = m.host(17, 9);
        let b = m.host(17, 9);
        assert_eq!(a.name, b.name);
        assert_eq!(a.fwd_reorder, b.fwd_reorder);
        assert_eq!(a.backends, b.backends);
        assert_eq!(a.mechanism, b.mechanism);
        // Different id or seed → (almost surely) different path.
        let c = m.host(18, 9);
        let d = m.host(17, 10);
        assert_ne!(a.name, c.name);
        assert!(a.delay != d.delay || a.fwd_reorder != d.fwd_reorder || a.loss != d.loss);
    }

    #[test]
    fn population_is_diverse() {
        let m = PopulationModel::default();
        let specs: Vec<_> = (0..400).map(|i| m.host(i, 5)).collect();
        assert!(specs.iter().any(|s| s.fwd_reorder > 0.0));
        assert!(specs.iter().any(|s| s.fwd_reorder == 0.0));
        assert!(specs.iter().any(|s| s.backends > 1));
        assert!(specs.iter().any(|s| s.object_size == 256));
        let mechanisms: std::collections::BTreeSet<_> =
            specs.iter().map(|s| s.mechanism.label()).collect();
        assert_eq!(mechanisms.len(), 4, "all mechanisms drawn: {mechanisms:?}");
        let personalities: std::collections::BTreeSet<_> =
            specs.iter().map(|s| s.personality.name).collect();
        assert!(personalities.len() >= 5, "mix covers most presets");
    }

    #[test]
    fn degenerate_ranges_collapse_to_point() {
        let m = PopulationModel {
            loss_range: (0.01, 0.01),
            delay_ms: (20, 20),
            jitter_us: (150, 150),
            reorder_prob: 0.0,
            balancer_prob: 0.0,
            small_object_prob: 0.0,
            ..PopulationModel::default()
        };
        let s = m.host(0, 1);
        assert_eq!(s.loss, 0.01);
        assert_eq!(s.delay, Duration::from_millis(20));
        assert_eq!(s.jitter, Duration::from_micros(150));
        assert_eq!(s.fwd_reorder, 0.0);
        assert_eq!(s.backends, 1);
    }

    #[test]
    fn chaos_off_draws_no_faults_and_matches_legacy_streams() {
        let clean = PopulationModel::default();
        assert_eq!(clean.chaos_ppm, 0);
        let specs: Vec<_> = (0..100).map(|i| clean.host(i, 7)).collect();
        assert!(specs.iter().all(|s| s.fault.is_none()));
        // Turning chaos on must not perturb any cooperative host's
        // draws: hostile hosts differ only by their fault.
        let chaotic = PopulationModel {
            chaos_ppm: 200_000,
            ..PopulationModel::default()
        };
        for (i, a) in specs.iter().enumerate() {
            let b = chaotic.host(i as u64, 7);
            assert_eq!(a.fwd_reorder, b.fwd_reorder);
            assert_eq!(a.delay, b.delay);
            assert_eq!(a.loss, b.loss);
            assert_eq!(a.backends, b.backends);
            assert_eq!(a.object_size, b.object_size);
        }
    }

    #[test]
    fn chaos_mix_hits_every_fault_class_at_roughly_the_asked_rate() {
        let m = PopulationModel {
            chaos_ppm: 200_000, // 20%
            ..PopulationModel::default()
        };
        let specs: Vec<_> = (0..1000).map(|i| m.host(i, 11)).collect();
        let hostile = specs.iter().filter(|s| s.fault.is_some()).count();
        assert!(
            (120..=280).contains(&hostile),
            "expected ~200 hostile hosts, got {hostile}"
        );
        let classes: std::collections::BTreeSet<_> = specs
            .iter()
            .filter_map(|s| s.fault.as_ref().map(|f| f.label()))
            .collect();
        assert_eq!(classes.len(), 5, "all fault classes drawn: {classes:?}");
        // Purity extends to the chaos stream.
        assert_eq!(specs[3].fault, m.host(3, 11).fault);
    }

    #[test]
    #[should_panic(expected = "zero-weight")]
    fn empty_weights_panic() {
        let mut rng: SmallRng = simrng::stream(1, "t");
        let empty: Vec<(u8, f64)> = Vec::new();
        PopulationModel::weighted(&mut rng, &empty);
    }
}
