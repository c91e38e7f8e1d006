//! Per-layer metrics read from the CLI's own `reorder.metrics/1`
//! documents, written by the traced rep (`--telemetry full`).

use crate::json::{self, Value};
use crate::registry::Measured;
use crate::stats::supported_percentile;
use crate::workload::Rep;

/// Host-pipeline phases the CLI times inside each host span.
const PHASES: [&str; 4] = ["amenability", "measure", "baseline", "gap_sweep"];

/// Derive the CLI-sourced per-layer metrics of a traced rep that
/// surveyed `hosts` hosts with `parallelism` busy workers. The last
/// document covers the whole run (a resumed campaign's checkpoint
/// carries every completed shard's telemetry). Notes about thin
/// samples are appended to `notes`.
pub fn measure(
    traced: &Rep,
    hosts: usize,
    parallelism: usize,
    notes: &mut Vec<String>,
) -> Result<Measured, String> {
    let text = traced
        .metrics_docs
        .last()
        .ok_or("the traced rep wrote no metrics document")?;
    let doc = json::parse(text).map_err(|e| format!("metrics document: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("reorder.metrics/1") {
        return Err("metrics document has an unknown schema".into());
    }
    let merged = doc
        .get("merged")
        .ok_or("metrics document has no `merged`")?;
    let counter = |k: &str| {
        merged
            .path(&["counters", k])
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let span = |name: &str, stat: &str| merged.path(&["spans", name, stat]).and_then(Value::as_f64);
    let host_total = span("host", "total_s")
        .filter(|t| *t > 0.0)
        .ok_or("no host spans recorded")?;
    let host_count = span("host", "count").unwrap_or(0.0);
    if host_count != hosts as f64 {
        return Err(format!("host spans cover {host_count} of {hosts} hosts"));
    }
    let outcomes = |prefix: &str| -> f64 {
        merged
            .get("counters")
            .map_or(&[][..], Value::members)
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| v.as_f64())
            .fold(0.0, |a, b| a + b)
    };
    let (complete, degraded, failed) = (
        outcomes("host.outcome.complete"),
        outcomes("host.outcome.degraded/"),
        outcomes("host.outcome.failed/"),
    );
    if complete + degraded + failed != hosts as f64 {
        return Err(format!(
            "outcome counters account for {} of {hosts} hosts",
            complete + degraded + failed
        ));
    }
    if supported_percentile(hosts).is_none_or(|p| p < 99.0) {
        notes.push(format!(
            "host_us_p99 rests on fewer than 10 of {hosts} spans beyond it"
        ));
    }

    let hosts_f = hosts as f64;
    let events = counter("netsim.events");
    let phase_total = PHASES
        .iter()
        .filter_map(|p| span(p, "total_s"))
        .fold(0.0, |a, b| a + b);
    let mut m = Measured::new();
    m.insert(
        "survey.pipeline.host_us_p50",
        span("host", "p50_s").ok_or("no host p50")? * 1e6,
    );
    m.insert(
        "survey.pipeline.host_us_p99",
        span("host", "p99_s").ok_or("no host p99")? * 1e6,
    );
    m.insert(
        "survey.pipeline.host_self_us_mean",
        (host_total - phase_total) / hosts_f * 1e6,
    );
    m.insert(
        "core.amenability_us_mean",
        span("amenability", "mean_s").ok_or("no amenability spans")? * 1e6,
    );
    for (phase, name) in PHASES.into_iter().zip([
        "core.amenability_share",
        "core.measure_share",
        "core.baseline_share",
        "core.gap_sweep_share",
    ]) {
        m.insert(name, span(phase, "total_s").unwrap_or(0.0) / host_total);
    }
    m.insert("netsim.events_per_host", events / hosts_f);
    m.insert("netsim.ns_per_event", host_total * 1e9 / events.max(1.0));
    m.insert(
        "netsim.calendar_overflow_per_khost",
        counter("netsim.calendar_overflow") * 1e3 / hosts_f,
    );
    let (hits, misses) = (counter("pool.hits"), counter("pool.misses"));
    m.insert(
        "core.scenario.pool_hit_frac",
        hits / (hits + misses).max(1.0),
    );
    m.insert(
        "survey.scheduler.busy_frac",
        counter("sched.busy_ns") / counter("sched.wall_ns").max(1.0),
    );
    m.insert(
        "campaign.orchestrator.overhead_frac",
        1.0 - host_total / (parallelism as f64 * traced.wall_s),
    );
    m.insert(
        "campaign.output_bytes_per_host",
        traced.out_bytes as f64 / hosts_f,
    );
    m.insert("survey.outcome.failed_frac", failed / hosts_f);
    m.insert("survey.outcome.degraded_frac", degraded / hosts_f);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(doc: &str) -> Rep {
        Rep {
            wall_s: 0.5,
            cpu_s: 0.5,
            maxrss_kb: 1,
            digest: 0,
            out_bytes: 400,
            resume_wall_s: None,
            metrics_docs: vec![doc.to_string()],
        }
    }

    const DOC: &str = r#"{"schema":"reorder.metrics/1","mode":"full","hosts":4,"merged":{
        "counters":{"host.outcome.complete":3,"host.outcome.failed/refused":1,
        "netsim.events":4000,"netsim.calendar_overflow":2,"pool.hits":3,"pool.misses":1,
        "sched.busy_ns":300,"sched.wall_ns":400},
        "spans":{"host":{"count":4,"total_s":0.4,"mean_s":0.1,"p50_s":0.09,"p99_s":0.2},
        "amenability":{"count":4,"total_s":0.1,"mean_s":0.025},
        "measure":{"count":3,"total_s":0.2,"mean_s":0.0667}}},"per_worker":[]}"#;

    #[test]
    fn derives_layer_metrics_from_a_document() {
        let mut notes = Vec::new();
        let m = measure(&rep(DOC), 4, 1, &mut notes).expect("valid");
        let close = |k: &str, v: f64| assert!((m[k] - v).abs() < 1e-9, "{k} = {} want {v}", m[k]);
        close("survey.pipeline.host_us_p50", 90_000.0);
        close("survey.pipeline.host_self_us_mean", 25_000.0);
        close("core.measure_share", 0.5);
        close("core.baseline_share", 0.0);
        close("netsim.events_per_host", 1000.0);
        close("netsim.ns_per_event", 100_000.0);
        close("core.scenario.pool_hit_frac", 0.75);
        close("survey.scheduler.busy_frac", 0.75);
        close("campaign.orchestrator.overhead_frac", 0.2);
        close("campaign.output_bytes_per_host", 100.0);
        close("survey.outcome.failed_frac", 0.25);
        assert_eq!(notes.len(), 1, "4 spans cannot support a p99");
    }

    #[test]
    fn rejects_documents_that_miss_hosts() {
        let mut notes = Vec::new();
        assert!(
            measure(&rep(DOC), 5, 1, &mut notes).is_err(),
            "span count must match"
        );
        let lost = DOC.replace("\"host.outcome.failed/refused\":1,", "");
        assert!(
            measure(&rep(&lost), 4, 1, &mut notes).is_err(),
            "outcomes must cover every host"
        );
        assert!(measure(&rep("{}"), 4, 1, &mut notes).is_err());
    }
}
