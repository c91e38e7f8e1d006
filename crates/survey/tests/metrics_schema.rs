//! Pinned golden of the `reorder.metrics/1` JSON document: a
//! deterministic hand-built [`CampaignTelemetry`] rendered with a
//! pinned `wall_s`, compared byte-for-byte against
//! `tests/metrics_schema.txt`. Any key rename, reordering, or float
//! formatting change shows up as a reviewable golden diff (and should
//! come with a schema version bump).
//!
//! On an intended change, regenerate with
//!
//! ```sh
//! REORDER_API_BLESS=1 cargo test -p reorder-survey --test metrics_schema
//! ```

use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};
use reorder_survey::metrics::CampaignTelemetry;
use std::fs;
use std::path::Path;

/// A worker's plausible end-of-campaign state, scaled so the two
/// workers differ (merge must actually do work in the golden).
fn worker(mode: TelemetryMode, scale: u64) -> WorkerTelemetry {
    let mut tel = WorkerTelemetry::new();
    tel.count("netsim.events", 1_000 * scale);
    tel.count("netsim.cut_through_hops", 2_000 * scale);
    tel.count("netsim.sink_arrivals", 400 * scale);
    tel.count("pool.hits", 10 * scale - 1);
    tel.count("pool.misses", 1);
    tel.count("sched.tasks", 10 * scale);
    tel.count("sched.steals", scale - 1);
    for i in 0..10 * scale {
        tel.record_span("host", mode, 0.001 + 0.0005 * i as f64);
    }
    tel.record_span("amenability", mode, 0.0002);
    tel.record_span("measure", mode, 0.0015);
    tel
}

fn document(mode: TelemetryMode) -> String {
    let tel = CampaignTelemetry {
        mode,
        per_worker: vec![worker(mode, 1), worker(mode, 2)],
        campaign: {
            let mut c = WorkerTelemetry::new();
            c.count("agg.absorbs", 30);
            c.count("agg.merges", 1);
            c
        },
    };
    tel.to_json(30, 77, 3_000, 1, 1.5)
}

#[test]
fn metrics_document_matches_schema_golden() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/metrics_schema.txt");
    let current = format!(
        "# reorder.metrics/1 golden: deterministic telemetry, wall_s pinned at 1.5.\n\
         # Regenerate: REORDER_API_BLESS=1 cargo test -p reorder-survey --test metrics_schema\n\
         {}\n{}\n",
        document(TelemetryMode::Summary),
        document(TelemetryMode::Full),
    );
    if std::env::var_os("REORDER_API_BLESS").is_some() {
        fs::write(&golden_path, &current).expect("write golden file");
        return;
    }
    let golden = fs::read_to_string(&golden_path).unwrap_or_default();
    assert!(
        golden == current,
        "the metrics document's shape changed.\n\
         If intended, bump METRICS_SCHEMA if keys moved, regenerate with\n\
         REORDER_API_BLESS=1 cargo test -p reorder-survey --test metrics_schema\n\
         and commit tests/metrics_schema.txt with the change.\n\n\
         --- expected (tests/metrics_schema.txt) ---\n{golden}\n\
         --- actual ---\n{current}"
    );
}

#[test]
fn golden_inputs_cover_both_modes() {
    // Self-check: the Summary document must not carry quantiles, the
    // Full one must — so the golden actually pins both shapes.
    let summary = document(TelemetryMode::Summary);
    let full = document(TelemetryMode::Full);
    assert!(!summary.contains("\"p50_s\""), "{summary}");
    assert!(full.contains("\"p50_s\""), "{full}");
    assert!(full.contains("\"p99_s\""), "{full}");
}
