//! Property test for the `Measurement` line reader: every line
//! `to_json` writes reads back to the same report, and a structural
//! edit of the line at any depth (a member deleted or duplicated, a
//! byte appended after a value) is an error, never a different report
//! and never a panic.

#[path = "support/json_edits.rs"]
mod json_edits;

use proptest::prelude::*;
use reorder_core::metrics::ReorderEstimate;
use reorder_core::{IpidVerdict, Measurement, TestKind};

fn arb_est() -> impl Strategy<Value = ReorderEstimate> {
    (0usize..500, 0usize..500).prop_map(|(a, b)| ReorderEstimate {
        reordered: a.min(b),
        total: a.max(b),
    })
}

fn arb_measurement() -> impl Strategy<Value = Measurement> {
    (
        (0usize..5, 0usize..4),
        (arb_est(), arb_est()),
        (0usize..1_000, 0usize..100),
        (any::<bool>(), arb_est()),
        proptest::collection::vec((0u64..1_000, arb_est()), 0..4),
    )
        .prop_map(
            |((kind, verdict), (fwd, rev), (samples, discarded), (baseline, est), gap_points)| {
                Measurement {
                    kind: TestKind::all()[kind],
                    verdict: [
                        IpidVerdict::Amenable,
                        IpidVerdict::ConstantZero,
                        IpidVerdict::NonMonotonic,
                    ]
                    .get(verdict)
                    .copied(),
                    fwd,
                    rev,
                    samples,
                    discarded,
                    baseline_rev: baseline.then_some(est),
                    gap_points,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn measurement_lines_refuse_structural_edits(
        m in arb_measurement(),
        salt in 0usize..json_edits::JUNK.len(),
    ) {
        let line = m.to_json();
        prop_assert_eq!(Measurement::from_json(&line), Ok(m));
        for &junk in json_edits::JUNK {
            let trailing = format!("{line}{}", junk as char);
            prop_assert!(
                Measurement::from_json(&trailing).is_err(),
                "loaded with {:?} after the line",
                junk as char
            );
        }
        for (edit, doc) in json_edits::edits(&line, &[], salt) {
            prop_assert!(Measurement::from_json(&doc).is_err(), "loaded after the edit: {}", edit);
        }
    }
}
