//! Every metric the benchmark prints: name, unit, direction, and for a
//! per-layer metric the end-to-end metric and workload it should move.
//! `BENCHMARK.json` declares the same names (a test holds them equal).

use std::collections::BTreeMap;

/// Measured values by metric name.
pub type Measured = BTreeMap<&'static str, f64>;

/// An end-to-end metric: what a user of the CLI sees, per workload,
/// with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The CLI's own `reorder.metrics/1` document (`--telemetry full`).
    Cli,
    /// Benchmark-side spans around library calls ([`crate::probe`]).
    Probe,
    /// The benchmark's own run: tracing overhead and the noise guard.
    Bench,
}

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

pub const E2E: [E2e; 4] = [
    E2e {
        name: "hosts_per_sec",
        unit: "hosts/s",
        better: "higher",
        bound: 0.25,
    },
    E2e {
        name: "cpu_ms_per_host",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.1,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Source::{Bench, Cli, Probe};

pub const PER_LAYER: [Layer; 46] = [
    layer(
        "survey.pipeline.host_us_p50",
        "us",
        "lower",
        Cli,
        "hosts_per_sec on every workload",
    ),
    layer(
        "survey.pipeline.host_us_p99",
        "us",
        "lower",
        Cli,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "survey.pipeline.host_self_us_mean",
        "us",
        "lower",
        Cli,
        "hosts_per_sec on amenability_scan",
    ),
    layer(
        "core.amenability_us_mean",
        "us",
        "lower",
        Cli,
        "hosts_per_sec on amenability_scan",
    ),
    layer(
        "core.amenability_share",
        "share",
        "lower",
        Cli,
        "hosts_per_sec on amenability_scan",
    ),
    layer(
        "core.measure_share",
        "share",
        "lower",
        Cli,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "core.baseline_share",
        "share",
        "lower",
        Cli,
        "hosts_per_sec on survey_default",
    ),
    layer(
        "core.gap_sweep_share",
        "share",
        "lower",
        Cli,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "netsim.events_per_host",
        "count",
        "lower",
        Cli,
        "hosts_per_sec and cpu_ms_per_host on every workload",
    ),
    layer(
        "netsim.ns_per_event",
        "ns",
        "lower",
        Cli,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "netsim.calendar_overflow_per_khost",
        "count",
        "lower",
        Cli,
        "hosts_per_sec on gap_sweep and campaign_chaos_resume",
    ),
    layer(
        "core.scenario.pool_hit_frac",
        "share",
        "higher",
        Cli,
        "peak_rss_mb, and hosts_per_sec on amenability_scan",
    ),
    layer(
        "survey.scheduler.busy_frac",
        "share",
        "higher",
        Cli,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "campaign.orchestrator.overhead_frac",
        "share",
        "lower",
        Cli,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "campaign.output_bytes_per_host",
        "bytes",
        "lower",
        Cli,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "survey.outcome.failed_frac",
        "share",
        "lower",
        Cli,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "survey.outcome.degraded_frac",
        "share",
        "lower",
        Cli,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "survey.population.host_ns",
        "ns",
        "lower",
        Probe,
        "hosts_per_sec on amenability_scan",
    ),
    layer(
        "core.scenario.build_us",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on amenability_scan",
    ),
    layer(
        "core.amenability.probe_us",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on amenability_scan",
    ),
    layer(
        "core.technique.dual_us_per_sample",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "core.technique.dual_events_per_sample",
        "count",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "core.technique.syn_us_per_sample",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "core.technique.syn_events_per_sample",
        "count",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "core.technique.transfer_us_per_object",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on survey_default",
    ),
    layer(
        "core.technique.transfer_events_per_object",
        "count",
        "lower",
        Probe,
        "hosts_per_sec on survey_default",
    ),
    layer(
        "netsim.path.dummynet_us_per_sample",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "netsim.path.striping_us_per_sample",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "netsim.path.multipath_us_per_sample",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "netsim.path.arq_us_per_sample",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "netsim.engine_ns_per_event",
        "ns",
        "lower",
        Probe,
        "hosts_per_sec on gap_sweep",
    ),
    layer(
        "wire.encode_ns_per_pkt",
        "ns",
        "lower",
        Probe,
        "hosts_per_sec on survey_default",
    ),
    layer(
        "wire.decode_ns_per_pkt",
        "ns",
        "lower",
        Probe,
        "hosts_per_sec on survey_default",
    ),
    layer(
        "wire.checksum_ns_per_kib",
        "ns",
        "lower",
        Probe,
        "hosts_per_sec on survey_default",
    ),
    layer(
        "tcpstack.segments_per_transfer",
        "count",
        "lower",
        Probe,
        "hosts_per_sec on survey_default",
    ),
    layer(
        "survey.aggregate.absorb_ns",
        "ns",
        "lower",
        Probe,
        "hosts_per_sec on amenability_scan",
    ),
    layer(
        "survey.aggregate.merge_us",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on campaign_chaos_resume (the resume call)",
    ),
    layer(
        "survey.aggregate.json_roundtrip_us",
        "us",
        "lower",
        Probe,
        "hosts_per_sec on campaign_chaos_resume (the resume call)",
    ),
    layer(
        "survey.report.jsonl_ns_per_host",
        "ns",
        "lower",
        Probe,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "survey.report.jsonl_bytes_per_host",
        "bytes",
        "lower",
        Probe,
        "hosts_per_sec on campaign_chaos_resume",
    ),
    layer(
        "campaign.checkpoint.load_ms",
        "ms",
        "lower",
        Probe,
        "hosts_per_sec on campaign_chaos_resume (the resume call)",
    ),
    layer(
        "campaign.checkpoint.store_ms",
        "ms",
        "lower",
        Probe,
        "hosts_per_sec on campaign_chaos_resume (the resume call)",
    ),
    layer(
        "campaign.checkpoint.bytes",
        "bytes",
        "lower",
        Probe,
        "hosts_per_sec on campaign_chaos_resume (the resume call)",
    ),
    layer(
        "bench.trace_overhead_frac",
        "share",
        "lower",
        Bench,
        "nothing: traced over untraced wall time, minus one",
    ),
    layer(
        "bench.calib_ms",
        "ms",
        "lower",
        Bench,
        "nothing: a fixed CPU kernel, timed once per round",
    ),
    layer(
        "bench.calib_iqr_frac",
        "share",
        "lower",
        Bench,
        "nothing: above 0.1 the run prints NOISY",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match doc.get(key) {
            Some(Value::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no `{key}` list"),
        }
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry has no `{key}`"))
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn printed_metrics_equal_the_declared_ones() {
        let doc = declared();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), E2E.len());
        for (d, m) in e2e.iter().zip(E2E) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit);
            assert_eq!(field(d, "better"), m.better);
            assert_eq!(
                d.get("bound").and_then(Value::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (d, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(d, "name"), m.name);
            assert_eq!(field(d, "unit"), m.unit);
            assert_eq!(field(d, "better"), m.better);
        }
        let workloads = entries(&doc, "workloads");
        assert_eq!(workloads.len(), crate::workload::WORKLOADS.len());
        for (d, w) in workloads.iter().zip(crate::workload::WORKLOADS) {
            assert_eq!(field(d, "name"), w.name);
            assert_eq!(field(d, "why"), w.why);
        }
    }

    #[test]
    fn names_units_and_bounds_follow_the_rules() {
        let mut names: Vec<&str> = E2E
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "bad name in {names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        assert!(E2E.len() <= 16 && PER_LAYER.len() <= 128);
        let units = E2E
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(!u.is_empty() && u.len() <= 16, "{u}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        let better = E2E
            .iter()
            .map(|m| m.better)
            .chain(PER_LAYER.iter().map(|m| m.better));
        assert!(better.into_iter().all(|b| b == "higher" || b == "lower"));
        assert!(E2E.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = E2E
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            E2E.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }
}
