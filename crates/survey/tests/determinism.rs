//! The campaign engine's headline guarantee: a campaign's output is a
//! pure function of its config — the worker count changes wall-clock
//! time, never a byte of the report.

use reorder_netsim::rng::derive_seed;
use reorder_survey::pipeline::survey_host;
use reorder_survey::report::jsonl_line;
use reorder_survey::{run_campaign, CampaignConfig, HostJob, TechniqueChoice};

fn campaign_jsonl(hosts: usize, workers: usize, seed: u64) -> (Vec<u8>, String) {
    let cfg = CampaignConfig {
        hosts,
        workers,
        seed,
        samples: 4,
        technique: TechniqueChoice::Auto,
        baseline: true,
        ..CampaignConfig::default()
    };
    let mut buf = Vec::new();
    let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
    assert_eq!(out.reports.len(), hosts);
    (buf, out.summary.render())
}

/// A 200-host campaign with `--workers 8` produces a byte-identical
/// JSONL report (and summary) to `--workers 1` under the same master
/// seed.
#[test]
fn workers_8_matches_workers_1_byte_for_byte() {
    let (serial, serial_summary) = campaign_jsonl(200, 1, 1);
    let (parallel, parallel_summary) = campaign_jsonl(200, 8, 1);
    assert_eq!(serial.len(), parallel.len());
    assert!(
        serial == parallel,
        "JSONL reports differ between worker counts"
    );
    assert_eq!(serial_summary, parallel_summary);
    assert_eq!(serial.iter().filter(|&&b| b == b'\n').count(), 200);
}

/// Reruns with the same seed are identical; a different seed is not.
#[test]
fn seed_controls_the_report() {
    let (a, _) = campaign_jsonl(40, 3, 9);
    let (b, _) = campaign_jsonl(40, 3, 9);
    let (c, _) = campaign_jsonl(40, 3, 10);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// The `--shard K/N` contract: concatenating the JSONL outputs of
/// shards 1..=N (in shard order) is byte-identical to the unsharded
/// campaign — N processes can split one master seed's id space and
/// `cat` their reports back together.
#[test]
fn concatenated_shards_equal_the_unsharded_report() {
    let run = |shard: Option<(usize, usize)>| -> Vec<u8> {
        let cfg = CampaignConfig {
            hosts: 31, // deliberately not divisible by the shard count
            workers: 2,
            seed: 5,
            samples: 3,
            technique: TechniqueChoice::Auto,
            baseline: false,
            shard,
            ..CampaignConfig::default()
        };
        let mut buf = Vec::new();
        run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
        buf
    };
    let whole = run(None);
    let mut stitched = Vec::new();
    for k in 1..=4 {
        stitched.extend(run(Some((k, 4))));
    }
    assert_eq!(
        whole, stitched,
        "shard concatenation must reproduce the unsharded JSONL byte-for-byte"
    );
    // A single shard covering everything is also the whole report.
    assert_eq!(whole, run(Some((1, 1))));
}

/// The simulator pool only recycles allocations: a campaign on pooled
/// (reset) simulators is byte-identical to building every host on a
/// new `Simulator` — `Simulator::reset`'s contract, asserted end to
/// end. The reference is per-host `survey_host` (whose throwaway pool
/// builds fresh) rendered through `jsonl_line`, against pooled
/// campaigns across worker counts and stitched shards.
#[test]
fn pooled_and_fresh_construction_are_byte_identical() {
    let (hosts, seed, samples) = (60usize, 12u64, 4usize);
    let job = HostJob {
        samples,
        ..HostJob::default()
    };
    let model = CampaignConfig::default().model;
    let mut fresh = Vec::new();
    for id in 0..hosts as u64 {
        let spec = model.host(id, seed);
        let host_seed = derive_seed(seed, &format!("survey.run.{id}"));
        fresh.extend(jsonl_line(&survey_host(id, &spec, host_seed, &job)).into_bytes());
        fresh.push(b'\n');
    }
    let run = |workers: usize, shard: Option<(usize, usize)>| -> Vec<u8> {
        let cfg = CampaignConfig {
            hosts,
            workers,
            seed,
            samples,
            shard,
            ..CampaignConfig::default()
        };
        let mut buf = Vec::new();
        run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
        buf
    };
    // Serial: every host after the worker's first rides a reset
    // simulator.
    assert_eq!(run(1, None), fresh, "pooled vs fresh (1 worker)");
    // Parallel: each worker recycles its own pool.
    assert_eq!(run(4, None), fresh, "pooled vs fresh (4 workers)");
    // Sharded: concatenated pooled shards equal the fresh whole.
    let mut stitched = Vec::new();
    for k in 1..=3 {
        stitched.extend(run(2, Some((k, 3))));
    }
    assert_eq!(stitched, fresh, "pooled shards vs fresh whole");
}

/// FNV-1a 64 over a byte stream — the pinned-golden fingerprint.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The pinned smoke: the report bytes for a reference config are
/// pinned by hash, not merely compared run-to-run. The JSONL pin was
/// captured before the sharded-aggregation refactor, so it proves the
/// funnel rework did not move a byte; the summary pin is the stdout of
/// `reorder survey --hosts 40 --workers 2 --seed 1`. Re-bless
/// deliberately, never casually: these constants are what makes a
/// report from one build comparable to another's.
#[test]
fn pinned_smoke_reproduces_historical_bytes() {
    // Re-blessed at the hostile-host landing: every JSONL line gained
    // an `"outcome"` field (complete/degraded/failed classification)
    // — a declared output break. Measurement bytes (verdicts, rates,
    // samples) did not move; only the new field landed.
    const PINNED_JSONL_FNV1A: u64 = 0x5834_53a5_b0b1_1bf7;
    const PINNED_SUMMARY_FNV1A: u64 = 0xc36a_7952_5db8_fd2c;
    let cfg = CampaignConfig {
        hosts: 40,
        workers: 2,
        seed: 1,
        ..CampaignConfig::default()
    };
    let mut buf = Vec::new();
    let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
    assert_eq!(
        fnv1a64(&buf),
        PINNED_JSONL_FNV1A,
        "JSONL bytes moved — if this is an intended declared break, \
         re-bless the pinned hash"
    );
    assert_eq!(
        fnv1a64(out.summary.render().as_bytes()),
        PINNED_SUMMARY_FNV1A,
        "summary bytes moved — if this is an intended declared break, \
         re-bless the pinned hash"
    );
}

/// A sink-free run (no JSONL, `keep_reports: false` — no ordered
/// consumer, no id-order reorder buffer) must render the same summary
/// as a sink-attached run, for every worker count. Both fold per-worker
/// `ShardAggregator`s and merge them at the end; summary state is a
/// commutative monoid, so neither the consumer nor the nondeterministic
/// work-stealing partition can leak into the output.
#[test]
fn funnel_free_summary_matches_ordered_path_across_workers() {
    let run = |workers: usize, keep_reports: bool| -> String {
        let cfg = CampaignConfig {
            hosts: 48,
            workers,
            seed: 14,
            samples: 4,
            keep_reports,
            ..CampaignConfig::default()
        };
        let out = if keep_reports {
            run_campaign(&cfg, Some(&mut Vec::new())).expect("in-memory sink")
        } else {
            run_campaign(&cfg, None::<&mut Vec<u8>>).expect("no sink")
        };
        assert_eq!(out.reports.len(), if keep_reports { 48 } else { 0 });
        assert_eq!(out.summary.hosts, 48);
        out.summary.render()
    };
    let ordered = run(1, true);
    for workers in [1, 2, 8] {
        for keep_reports in [false, true] {
            assert_eq!(
                run(workers, keep_reports),
                ordered,
                "summary diverged (workers {workers}, sink attached: {keep_reports})"
            );
        }
    }
}

/// Shard campaigns merge: running K/N shards separately and folding
/// their summaries through `CampaignSummary::merge` reproduces the
/// unsharded summary — the associative-merge contract at the process
/// level (N machines can split a campaign and combine summaries).
#[test]
fn merged_shard_summaries_equal_the_unsharded_summary() {
    let run = |shard: Option<(usize, usize)>| {
        let cfg = CampaignConfig {
            hosts: 31,
            workers: 2,
            seed: 5,
            samples: 3,
            keep_reports: false,
            shard,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg, None::<&mut Vec<u8>>)
            .expect("no sink")
            .summary
    };
    let whole = run(None);
    // Fold shards out of order — merge is commutative, not just
    // associative.
    let mut merged = run(Some((3, 4)));
    for k in [1, 4, 2] {
        merged.merge(&run(Some((k, 4))));
    }
    assert_eq!(merged.render(), whole.render());
    assert_eq!(merged.hosts, whole.hosts);
}

/// Telemetry observes, never participates: the pinned reference bytes
/// must not move under `Full` instrumentation — the strongest form of
/// the "`--metrics` changes no output byte" contract, checked against
/// the pinned hash rather than a sibling run.
#[test]
fn full_telemetry_reproduces_the_pinned_bytes() {
    use reorder_survey::TelemetryMode;
    let cfg = CampaignConfig {
        hosts: 40,
        workers: 2,
        seed: 1,
        telemetry: TelemetryMode::Full,
        ..CampaignConfig::default()
    };
    let mut buf = Vec::new();
    let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
    assert_eq!(
        fnv1a64(&buf),
        0x5834_53a5_b0b1_1bf7,
        "telemetry must not change a byte of the report"
    );
    // And it did actually record: every host leaves a span.
    assert_eq!(
        out.telemetry.merged().span_stats("host").map(|s| s.count()),
        Some(40)
    );
}
