//! Property tests for the checkpoint serialization contract: the
//! aggregation and telemetry state that rides inside
//! `reorder.checkpoint/2` must survive a to_json/from_json round trip
//! *exactly* (merging restored states equals merging the originals),
//! and a sealed document with any single flipped bit must be rejected
//! by the integrity hash rather than merged silently. These two laws
//! are what let `--resume` promise byte-identical output instead of
//! "approximately the same numbers". A third keeps a resealed edit out:
//! a sealed checkpoint or shard state whose payload lost a member,
//! gained a duplicate or grew a byte at any depth fails to load.

#[path = "../../core/tests/support/json_edits.rs"]
mod json_edits;

use proptest::prelude::*;
use reorder_campaign::{CampaignSpec, Checkpoint};
use reorder_core::metrics::ReorderEstimate;
use reorder_core::stats::{Moments, QuantileSketch};
use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};
use reorder_survey::aggregate::GroupAgg;
use reorder_survey::{seal, unseal, CampaignSummary, FailureAgg, ShardAggregator, ShardState};
use std::collections::BTreeMap;
use std::ops::Range;

const LABELS: [&str; 6] = ["dual", "syn", "transfer", "striping", "freebsd4", "linux"];
const COUNTERS: [&str; 3] = ["netsim.events", "pool.hits", "sched.tasks"];
const SPANS: [&str; 3] = ["host", "measure", "baseline"];
/// Keys whose values are label-keyed maps in the campaign documents.
const MAPS: [&str; 6] = [
    "by_technique",
    "by_personality",
    "by_mechanism",
    "failure_taxonomy",
    "counters",
    "spans",
];

/// One observation a worker might record mid-campaign (same op
/// language as `prop_telemetry.rs` in core).
#[derive(Clone, Debug)]
enum Op {
    Count(usize, u64),
    Span(usize, f64),
}

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..COUNTERS.len(), 0u64..10_000).prop_map(|(k, n)| Op::Count(k, n)),
            (0usize..SPANS.len(), 1e-6f64..1e3).prop_map(|(k, s)| Op::Span(k, s)),
        ],
        0..max_len,
    )
}

fn apply(ops: &[Op]) -> WorkerTelemetry {
    let mut tel = WorkerTelemetry::new();
    for op in ops {
        match *op {
            Op::Count(k, n) => tel.count(COUNTERS[k], n),
            Op::Span(k, s) => tel.record_span(SPANS[k], TelemetryMode::Full, s),
        }
    }
    tel
}

fn arb_est() -> impl Strategy<Value = ReorderEstimate> {
    (0usize..5_000, 0usize..5_000).prop_map(|(a, b)| {
        let (reordered, total) = if a <= b { (a, b) } else { (b, a) };
        ReorderEstimate { reordered, total }
    })
}

/// Moments built from pushed observations — the only way real code
/// builds them, so round trips cover genuinely reachable states.
fn arb_moments() -> impl Strategy<Value = Moments> {
    proptest::collection::vec(1e-6f64..1e3, 0..12).prop_map(|vs| {
        let mut m = Moments::new();
        for v in vs {
            m.push(v);
        }
        m
    })
}

fn arb_group() -> impl Strategy<Value = GroupAgg> {
    (0u64..10_000, arb_est(), arb_est(), arb_moments()).prop_map(|(hosts, fwd, rev, fwd_rates)| {
        GroupAgg {
            hosts,
            fwd,
            rev,
            fwd_rates,
        }
    })
}

/// One failure class: consistent failed/degraded split, with host
/// counts by mechanism and by personality.
fn arb_failure() -> impl Strategy<Value = FailureAgg> {
    (
        0u64..1_000,
        0u64..1_000,
        proptest::collection::vec((0usize..LABELS.len(), 1u64..100), 1..5),
    )
        .prop_map(|(failed, degraded, breakdown)| {
            let mut agg = FailureAgg {
                hosts: failed + degraded,
                failed,
                degraded,
                ..FailureAgg::default()
            };
            for (i, (slot, n)) in breakdown.into_iter().enumerate() {
                match i % 2 {
                    0 => agg.by_mechanism.insert(LABELS[slot], n),
                    _ => agg.by_personality.insert(LABELS[slot], n),
                };
            }
            agg
        })
}

/// A full shard aggregation state: counters, rate moments, pooled
/// estimates, quantile sketch, grouped breakdowns, a failure taxonomy
/// and a gap profile.
fn arb_shard() -> impl Strategy<Value = ShardAggregator> {
    arb_shard_with(0..5, 0..3)
}

/// [`arb_shard`] with `groups` breakdown entries and `classes`
/// failure classes.
fn arb_shard_with(
    groups: Range<usize>,
    classes: Range<usize>,
) -> impl Strategy<Value = ShardAggregator> {
    const CLASSES: [&str; 3] = ["unreachable", "refused", "died-mid-measurement"];
    (
        proptest::collection::vec(0u64..1_000_000, 7),
        (
            arb_moments(),
            arb_moments(),
            proptest::collection::vec(0.0f64..1.0, 0..16),
        ),
        (arb_est(), arb_est(), arb_est()),
        proptest::collection::vec((0usize..LABELS.len(), arb_group()), groups),
        proptest::collection::vec((0u64..2_000, arb_est()), 0..5),
        0u64..1_000_000_000,
        proptest::collection::vec((0usize..CLASSES.len(), arb_failure()), classes),
    )
        .prop_map(|(counts, rates, pooled, groups, gaps, events, classes)| {
            let (fwd_rates, rev_rates, sketch_vals) = rates;
            let mut fwd_sketch = QuantileSketch::new();
            for v in &sketch_vals {
                fwd_sketch.push(*v);
            }
            let mut by_technique = BTreeMap::new();
            let mut by_personality = BTreeMap::new();
            let mut by_mechanism = BTreeMap::new();
            for (i, (slot, group)) in groups.into_iter().enumerate() {
                let label = LABELS[slot];
                match i % 3 {
                    0 => by_technique.insert(label, group),
                    1 => by_personality.insert(label, group),
                    _ => by_mechanism.insert(label, group),
                };
            }
            // `render` computes `hosts - reachable`, so keep the
            // generated state semantically valid: hosts bounds every
            // other counter.
            let hosts = counts.iter().copied().max().unwrap_or(0);
            let summary = CampaignSummary {
                hosts,
                reachable: counts[1],
                amenable: counts[2],
                constant_zero: counts[3],
                non_monotonic: counts[4],
                probe_failed: counts[5],
                reordering_hosts: counts[6],
                fwd_rates,
                rev_rates,
                fwd_pooled: pooled.0,
                rev_pooled: pooled.1,
                baseline_pooled: pooled.2,
                fwd_sketch,
                by_technique,
                by_personality,
                by_mechanism,
                failed: counts[5].min(hosts),
                degraded: counts[4].min(hosts - counts[5].min(hosts)),
                failure_rounds: counts[3],
                failure_taxonomy: classes
                    .into_iter()
                    .map(|(slot, agg)| (CLASSES[slot], agg))
                    .collect(),
                gap_profile: gaps.into_iter().collect(),
            };
            ShardAggregator { summary, events }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A restored `ShardAggregator` is indistinguishable from the one
    /// that was saved: identical JSON, identical rendered report, and
    /// — the property resume actually relies on — merging restored
    /// states produces the same bits as merging the originals.
    #[test]
    fn shard_aggregator_round_trips_exactly(a in arb_shard(), b in arb_shard()) {
        let ra = ShardAggregator::from_json(&a.to_json()).expect("round trip a");
        let rb = ShardAggregator::from_json(&b.to_json()).expect("round trip b");
        prop_assert_eq!(ra.to_json(), a.to_json());
        prop_assert_eq!(ra.summary.render(), a.summary.render());

        let mut originals = ShardAggregator::default();
        originals.merge(&a);
        originals.merge(&b);
        let mut restored = ShardAggregator::default();
        restored.merge(&ra);
        restored.merge(&rb);
        prop_assert_eq!(restored.to_json(), originals.to_json());
        prop_assert_eq!(restored.summary.render(), originals.summary.render());
    }

    /// `WorkerTelemetry` checkpoint state is exact: restored equals the
    /// original on the full state (`Eq`, not a rendered view), and
    /// merging restored shards equals merging the live ones.
    #[test]
    fn telemetry_checkpoint_round_trips_exactly(ops in arb_ops(60), cut in 0usize..60) {
        let whole = apply(&ops);
        let restored = WorkerTelemetry::from_state_json(&whole.state_json())
            .expect("round trip");
        prop_assert_eq!(&restored, &whole);

        let cut = cut.min(ops.len());
        let (a, b) = (apply(&ops[..cut]), apply(&ops[cut..]));
        let ra = WorkerTelemetry::from_state_json(&a.state_json()).expect("shard a");
        let rb = WorkerTelemetry::from_state_json(&b.state_json()).expect("shard b");
        let mut merged_restored = ra.clone();
        merged_restored.merge(&rb);
        prop_assert_eq!(&merged_restored, &whole, "restored shards must merge to the serial build");
    }

    /// Corruption detection: flip any single bit of any byte of a
    /// sealed checkpoint and the load must fail — whether the flip
    /// lands in the payload, the schema tag, or the hash itself.
    #[test]
    fn any_flipped_bit_is_rejected(
        shard in arb_shard(),
        ops in arb_ops(20),
        pos in 0usize..100_000,
        bit in 0u32..6,
    ) {
        let mut ckpt = Checkpoint::new(CampaignSpec { shards: 3, ..CampaignSpec::default() });
        ckpt.completed.insert(2);
        ckpt.agg = shard;
        ckpt.telemetry = apply(&ops);
        ckpt.steals = 17;
        let good = ckpt.to_json();
        prop_assert!(Checkpoint::from_json(&good).is_ok(), "sanity: untouched doc loads");

        let mut bytes = good.clone().into_bytes();
        let i = pos % bytes.len();
        // Documents are ASCII, so flipping a low bit keeps the string
        // valid UTF-8 while guaranteeing the byte actually changed.
        bytes[i] ^= 1 << bit;
        let corrupt = String::from_utf8(bytes).expect("ascii stays utf8");
        prop_assert!(corrupt != good, "flip must change the document");
        prop_assert!(
            Checkpoint::from_json(&corrupt).is_err(),
            "flipped bit at byte {} must be rejected",
            i
        );
        prop_assert!(unseal(&corrupt).is_err() || Checkpoint::from_json(&corrupt).is_err());
    }
}

/// Reseal every structural edit of a sealed document's payload and
/// require `loads` to refuse it. Any byte after the seal other than
/// the trailing whitespace a stored file ends with is refused too.
fn refuses_every_edit(sealed: &str, salt: usize, loads: impl Fn(&str) -> bool) -> TestCaseResult {
    prop_assert!(loads(sealed), "sanity: the untouched document loads");
    for junk in json_edits::JUNK.iter().filter(|b| !b.is_ascii_whitespace()) {
        let trailing = format!("{sealed}{}", *junk as char);
        prop_assert!(
            !loads(&trailing),
            "loaded with {:?} after the seal",
            *junk as char
        );
    }
    let payload = unseal(sealed).expect("own seal");
    for (edit, doc) in json_edits::edits(&payload, &MAPS, salt) {
        prop_assert!(!loads(&seal(&doc)), "loaded after the edit: {}", edit);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A structural edit is an error at every depth. Delete a member
    /// of any fixed-key object, duplicate any member (map entries
    /// included) or append a byte after any value of a checkpoint or
    /// shard-state payload, reseal it, and the load fails: never a
    /// state that differs from the one saved, never a panic.
    #[test]
    fn resealed_structural_edits_are_rejected(
        shard in arb_shard_with(1..4, 1..3),
        ops in arb_ops(12),
        salt in 0usize..json_edits::JUNK.len(),
    ) {
        let mut ckpt = Checkpoint::new(CampaignSpec {
            shards: 3,
            gaps_us: vec![0, 50],
            ..CampaignSpec::default()
        });
        ckpt.completed.insert(2);
        ckpt.agg = shard.clone();
        ckpt.telemetry = apply(&ops);
        ckpt.steals = 5;
        refuses_every_edit(&ckpt.to_json(), salt, |t| Checkpoint::from_json(t).is_ok())?;
        let state = ShardState {
            shard: 2,
            shards: 3,
            agg: shard,
            telemetry: ckpt.telemetry,
            steals: 5,
        };
        refuses_every_edit(&state.to_json(), salt, |t| ShardState::from_json(t).is_ok())?;
    }
}
