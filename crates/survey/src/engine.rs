//! The campaign engine: population → sharded scheduler → per-host
//! pipeline → per-worker streaming aggregation, plus the ordered sinks.
//!
//! Determinism invariants (asserted by `tests/determinism.rs`):
//!
//! * host `i`'s spec and measurement seed depend only on `(model,
//!   master seed, i)` — never on the worker that ran it;
//! * each worker absorbs the hosts it ran into its own
//!   [`ShardAggregator`], and every summary field merges exactly (a
//!   commutative monoid), so the host→worker assignment cannot move a
//!   bit of the summary;
//! * the JSONL sink and the report vector receive reports in host-id
//!   order via the scheduler's reorder buffer;
//! * therefore campaign output is byte-identical across reruns *and*
//!   worker counts.

use crate::aggregate::{CampaignSummary, ShardAggregator};
use crate::metrics::{progress_line, CampaignTelemetry};
use crate::pipeline::{survey_host_traced, HostJob, HostReport, TechniqueChoice};
use crate::population::PopulationModel;
use crate::report::jsonl_line;
use crate::scheduler::{self, resolve_workers, PoolStats, RunProbe};
use reorder_core::scenario::ScenarioPool;
use reorder_core::telemetry::{intern_label, TelemetryMode, WorkerTelemetry};
use reorder_core::Budget;
use reorder_netsim::rng as simrng;
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Everything a campaign needs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Hosts to survey.
    pub hosts: usize,
    /// Worker threads (0 = all available cores).
    pub workers: usize,
    /// Master seed; every host seed derives from it.
    pub seed: u64,
    /// Samples per technique run.
    pub samples: usize,
    /// Measurement rounds per host.
    pub rounds: usize,
    /// Technique selection (default: the paper's auto protocol).
    pub technique: TechniqueChoice,
    /// Take the data-transfer reverse-path baseline.
    pub baseline: bool,
    /// Amenability verdicts only, no measurement (§IV-B survey mode).
    pub amenability_only: bool,
    /// Inter-packet gaps (µs) for a campaign-level gap profile.
    pub gaps_us: Vec<u64>,
    /// Retain per-host [`HostReport`]s in [`CampaignOutcome::reports`].
    /// On by default (library callers inspect them); the CLI turns it
    /// off unless `--per-host` asks for the table. The vector fills
    /// through the scheduler's ordered consumer, which also feeds a
    /// JSONL sink; when it is off **and** no sink is attached, no
    /// consumer runs — no reorder buffer, no consuming thread, no
    /// O(hosts) report vector. The summary is the same either way.
    pub keep_reports: bool,
    /// Telemetry mode: `Off` (default) measures nothing; `Summary`
    /// collects counters and phase-span moments; `Full` adds
    /// [`reorder_core::stats::QuantileSketch`] latency distributions.
    /// Telemetry observes and never participates — campaign output is
    /// byte-identical in every mode.
    pub telemetry: TelemetryMode,
    /// Print a throttled heartbeat line to stderr while the campaign
    /// runs (hosts done, hosts/sec, ETA, per-worker utilization).
    /// Never touches stdout, so JSONL piping stays clean.
    pub progress: bool,
    /// Run only shard `k` of `n` (1-based `Some((k, n))`): the
    /// contiguous host-id slice [`shard_bounds`] computes. `None` runs
    /// everything. Concatenating the JSONL outputs of shards 1..=n (in
    /// shard order) is byte-identical to the unsharded campaign, so N
    /// processes or machines can split one master seed's id space.
    pub shard: Option<(usize, usize)>,
    /// Population distributions.
    pub model: PopulationModel,
    /// Per-host probe budget: deadline, retry count and backoff. The
    /// default (two simulated minutes, no retries) spares cooperative
    /// hosts except SYN-test hosts on a long gap sweep, which it cuts
    /// short (see [`Budget::default`]).
    pub budget: Budget,
}

/// The contiguous id range `[lo, hi)` of shard `k` of `n` (1-based)
/// over `hosts` ids. Slices concatenate exactly: shard boundaries are
/// `floor(k * hosts / n)`, so every id lands in exactly one shard and
/// shard order equals id order.
///
/// # Panics
///
/// When `n == 0`, `k == 0` or `k > n` — an invalid shard spec is a
/// configuration bug worth failing loudly on (the CLI validates its
/// `--shard K/N` input before building a config).
pub fn shard_bounds(hosts: usize, k: usize, n: usize) -> (usize, usize) {
    assert!(
        n >= 1 && (1..=n).contains(&k),
        "invalid shard {k}/{n}: want 1 <= K <= N"
    );
    (hosts * (k - 1) / n, hosts * k / n)
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            hosts: 50,
            workers: 0,
            seed: 77,
            samples: 15,
            rounds: 1,
            technique: TechniqueChoice::Auto,
            baseline: true,
            amenability_only: false,
            gaps_us: Vec::new(),
            keep_reports: true,
            telemetry: TelemetryMode::Off,
            progress: false,
            shard: None,
            model: PopulationModel::default(),
            budget: Budget::default(),
        }
    }
}

/// What a finished campaign hands back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-host reports, in host-id order (O(hosts) memory). Empty
    /// when [`CampaignConfig::keep_reports`] is off.
    pub reports: Vec<HostReport>,
    /// Streaming aggregates.
    pub summary: CampaignSummary,
    /// Scheduler counters (workers used, cross-shard steals).
    pub stats: PoolStats,
    /// Total simulator events dispatched across every host — with wall
    /// time this gives the events/sec figure `exp_scale` records in
    /// `BENCH_campaign.json`.
    pub events: u64,
    /// Campaign telemetry: per-worker counters and span stats,
    /// exactly mergeable ([`CampaignTelemetry::merged`]). Empty when
    /// [`CampaignConfig::telemetry`] was [`TelemetryMode::Off`].
    pub telemetry: CampaignTelemetry,
}

/// Run a campaign. When `jsonl` is given, one JSON line per host is
/// written to it, in host-id order, as results stream in. The only
/// error source is the sink; its first write failure aborts the
/// campaign (remaining hosts are not simulated) and is returned here.
/// A campaign without a sink cannot fail.
///
/// Every campaign takes one path: each worker folds its hosts into a
/// local [`ShardAggregator`] and [`WorkerTelemetry`], and the shard
/// states merge associatively at the end. The JSONL sink and the
/// [`CampaignConfig::keep_reports`] vector attach as the scheduler's
/// ordered consumer, which sees reports in host-id order; with neither
/// attached there is no reorder buffer and no consuming thread.
pub fn run_campaign<W: Write>(
    cfg: &CampaignConfig,
    jsonl: Option<&mut W>,
) -> io::Result<CampaignOutcome> {
    let job = HostJob {
        samples: cfg.samples.max(1),
        rounds: cfg.rounds.max(1),
        technique: cfg.technique,
        baseline: cfg.baseline,
        amenability_only: cfg.amenability_only,
        gaps_us: cfg.gaps_us.clone(),
        telemetry: cfg.telemetry,
        budget: cfg.budget,
    };
    // Host ids this process measures. Specs and seeds key on the
    // absolute id, so a shard's slice of the report is byte-identical
    // to the same lines of the unsharded run.
    let (lo, hi) = match cfg.shard {
        Some((k, n)) => shard_bounds(cfg.hosts, k, n),
        None => (0, cfg.hosts),
    };
    let jobs = hi - lo;
    let mode = cfg.telemetry;

    // The per-host step: a pure function of (config, master seed,
    // absolute id) — never of the worker that runs it. Each worker
    // keeps one simulator pool (recycled allocations, never shared
    // results; simulations are !Send anyway) and folds the report into
    // its own aggregator. Telemetry observes into the worker's `tel`
    // and never feeds back into the report; outcome counters ride it
    // too, so they merge partition-invariantly and surface in the
    // `reorder.metrics/1` export.
    let job = &job;
    let step = |pool: &mut ScenarioPool,
                (agg, tel): &mut (ShardAggregator, WorkerTelemetry),
                i: usize|
     -> HostReport {
        let id = (lo + i) as u64;
        let spec = cfg.model.host(id, cfg.seed);
        let host_seed = simrng::derive_seed(cfg.seed, &format!("survey.run.{id}"));
        let report = survey_host_traced(id, &spec, host_seed, job, pool, tel);
        agg.absorb(&report);
        if mode.is_enabled() {
            let key = intern_label(&format!("host.outcome.{}", report.outcome.label()));
            tel.count(key, 1);
            tel.count("agg.absorbs", 1);
        }
        report
    };

    // The ordered consumer, attached only when something reads reports
    // in host-id order.
    let mut sink = jsonl;
    let mut reports: Vec<HostReport> = Vec::with_capacity(if cfg.keep_reports { jobs } else { 0 });
    let mut sink_err: Option<io::Error> = None;
    let ordered = (sink.is_some() || cfg.keep_reports).then_some(|_, report: HostReport| {
        if let Some(w) = sink.as_mut() {
            let line = jsonl_line(&report);
            if let Err(e) = w
                .write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
            {
                // A dead sink (full disk, closed pipe) aborts the
                // campaign instead of burning the remaining hosts'
                // simulation time on a report that will be Err anyway.
                sink_err = Some(e);
                return ControlFlow::Break(());
            }
        }
        if cfg.keep_reports {
            reports.push(report);
        }
        ControlFlow::Continue(())
    });

    // Live observation surface: `done` always counts completed hosts;
    // timing (busy/idle splits, live utilization) turns on when either
    // telemetry or the progress heartbeat needs it. One slot per worker
    // the scheduler will start.
    let probe = RunProbe::new(
        mode.is_enabled() || cfg.progress,
        resolve_workers(cfg.workers).min(jobs.max(1)),
    );
    let (shards, stats) = with_heartbeat(cfg.progress, &probe, jobs, || {
        scheduler::run(
            jobs,
            cfg.workers,
            |_| {
                (
                    ScenarioPool::new(),
                    (ShardAggregator::default(), WorkerTelemetry::new()),
                )
            },
            step,
            ordered,
            &probe,
        )
    });

    // Merge the shard aggregators in worker order (any order gives the
    // same bits).
    let mut merged = ShardAggregator::default();
    let mut telemetry = CampaignTelemetry {
        mode,
        ..CampaignTelemetry::default()
    };
    for (agg, tel) in shards {
        merged.merge(&agg);
        if mode.is_enabled() {
            telemetry.campaign.count("agg.merges", 1);
            telemetry.per_worker.push(tel);
        }
    }
    attach_scheduler_counters(&mut telemetry, &stats);
    match sink_err {
        Some(e) => Err(e),
        None => Ok(CampaignOutcome {
            reports,
            summary: merged.summary,
            stats,
            events: merged.events,
            telemetry,
        }),
    }
}

/// Run `f`, with a watcher thread printing a throttled `--progress`
/// heartbeat from `probe` to stderr while it runs when `on`. stderr
/// only — stdout belongs to pinned report bytes — and nothing here
/// feeds back into the campaign, so output stays byte-identical with
/// the flag on.
fn with_heartbeat<T>(on: bool, probe: &RunProbe, total: usize, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    // reorder-lint: allow(wall-clock, progress heartbeat timing; stderr-only and never feeds report bytes)
    let started = Instant::now();
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut last = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                let elapsed = started.elapsed().as_secs_f64();
                if elapsed - last >= 0.5 {
                    last = elapsed;
                    let busy: Vec<u64> = (0..probe.slots()).map(|w| probe.busy_ns(w)).collect();
                    let done = probe.done.load(Ordering::Relaxed);
                    eprintln!("{}", progress_line(done, total as u64, elapsed, &busy));
                }
            }
        });
        let result = f();
        stop.store(true, Ordering::Relaxed);
        result
    })
}

/// Fold the scheduler's per-worker counters ([`crate::scheduler::WorkerStats`])
/// into the matching worker's telemetry, under `sched.*` keys. No-op
/// when telemetry is off.
fn attach_scheduler_counters(tel: &mut CampaignTelemetry, stats: &PoolStats) {
    if !tel.mode.is_enabled() {
        return;
    }
    for (tel_w, ws) in tel.per_worker.iter_mut().zip(&stats.per_worker) {
        tel_w.count("sched.tasks", ws.tasks);
        tel_w.count("sched.steal_attempts", ws.steal_attempts);
        tel_w.count("sched.steals", ws.steals);
        tel_w.count("sched.busy_ns", ws.busy_ns);
        tel_w.count("sched.idle_ns", ws.idle_ns);
        tel_w.count("sched.wall_ns", ws.wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(hosts: usize, workers: usize) -> (Vec<u8>, CampaignOutcome) {
        let cfg = CampaignConfig {
            hosts,
            workers,
            seed: 11,
            samples: 4,
            baseline: false,
            ..CampaignConfig::default()
        };
        let mut buf = Vec::new();
        let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
        (buf, out)
    }

    #[test]
    fn reports_arrive_in_id_order() {
        let (buf, out) = quick(12, 3);
        assert_eq!(out.reports.len(), 12);
        assert!(out
            .reports
            .iter()
            .enumerate()
            .all(|(k, r)| r.id == k as u64));
        assert_eq!(out.summary.hosts, 12);
        assert_eq!(
            buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(),
            12
        );
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let (a, _) = quick(10, 1);
        let (b, _) = quick(10, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn dead_sink_aborts_early() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "sink full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = CampaignConfig {
            hosts: 64,
            workers: 2,
            seed: 4,
            samples: 3,
            baseline: false,
            amenability_only: true,
            ..CampaignConfig::default()
        };
        // 2 writes per host (line + newline): fail inside host 2's line.
        let mut sink = FailAfter(5);
        let err = run_campaign(&cfg, Some(&mut sink)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for hosts in [0usize, 1, 7, 100, 101] {
            for n in [1usize, 2, 3, 7] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for k in 1..=n {
                    let (lo, hi) = shard_bounds(hosts, k, n);
                    assert_eq!(lo, prev_hi, "shards must be contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(prev_hi, hosts, "last shard must end at hosts");
                assert_eq!(covered, hosts, "every id in exactly one shard");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn shard_zero_of_n_rejected() {
        shard_bounds(10, 0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn shard_k_above_n_rejected() {
        shard_bounds(10, 5, 4);
    }

    #[test]
    fn sharded_campaign_reports_only_its_slice() {
        let cfg = CampaignConfig {
            hosts: 10,
            workers: 2,
            seed: 21,
            samples: 3,
            baseline: false,
            amenability_only: true,
            shard: Some((2, 3)),
            ..CampaignConfig::default()
        };
        let out = run_campaign(&cfg, None::<&mut Vec<u8>>).expect("no sink");
        let (lo, hi) = shard_bounds(10, 2, 3);
        assert_eq!(out.reports.len(), hi - lo);
        assert!(out
            .reports
            .iter()
            .enumerate()
            .all(|(k, r)| r.id == (lo + k) as u64));
        assert_eq!(out.summary.hosts, (hi - lo) as u64);
    }

    #[test]
    fn telemetry_never_changes_output() {
        // Telemetry observes; campaign bytes must be identical across
        // every mode (and with the progress heartbeat armed).
        let base = CampaignConfig {
            hosts: 8,
            workers: 2,
            seed: 31,
            samples: 4,
            baseline: false,
            ..CampaignConfig::default()
        };
        let mut runs = Vec::new();
        for (telemetry, progress) in [
            (TelemetryMode::Off, false),
            (TelemetryMode::Summary, false),
            (TelemetryMode::Full, true),
        ] {
            let cfg = CampaignConfig {
                telemetry,
                progress,
                ..base.clone()
            };
            let mut buf = Vec::new();
            let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
            runs.push((buf, out.summary.render()));
        }
        assert_eq!(runs[0], runs[1], "Summary mode changed output");
        assert_eq!(runs[0], runs[2], "Full mode + progress changed output");
    }

    #[test]
    fn telemetry_counters_are_worker_count_invariant() {
        // The mergeable-monoid contract end to end: however hosts are
        // partitioned across workers (and whether or not reports are
        // kept), the merged counters are identical.
        let run = |workers: usize, keep_reports: bool| {
            let cfg = CampaignConfig {
                hosts: 12,
                workers,
                seed: 5,
                samples: 4,
                baseline: false,
                keep_reports,
                telemetry: TelemetryMode::Summary,
                ..CampaignConfig::default()
            };
            run_campaign(&cfg, None::<&mut Vec<u8>>).expect("no sink")
        };
        let baseline = run(1, true);
        let merged = baseline.telemetry.merged();
        assert_eq!(merged.counter("netsim.events"), baseline.events);
        assert_eq!(merged.counter("agg.absorbs"), 12);
        assert_eq!(merged.counter("sched.tasks"), 12);
        assert!(merged.counter("pool.hits") > 0, "pooled run must recycle");
        assert!(merged.counter("netsim.cut_through_hops") > 0);
        assert!(merged.counter("netsim.sink_arrivals") > 0);
        for workers in [2, 4] {
            for keep_reports in [true, false] {
                let out = run(workers, keep_reports);
                let m = out.telemetry.merged();
                for key in [
                    "netsim.events",
                    "netsim.calendar_overflow",
                    "netsim.cut_through_hops",
                    "netsim.sink_arrivals",
                    "pool.hits",
                    "pool.misses",
                    "agg.absorbs",
                    "sched.tasks",
                ] {
                    // Pool misses are per-worker first builds, so they
                    // scale with the worker count — but hits + misses
                    // (total checkouts) must not.
                    if key == "pool.misses" || key == "pool.hits" {
                        continue;
                    }
                    assert_eq!(
                        m.counter(key),
                        merged.counter(key),
                        "{key} must be partition-invariant (workers={workers}, keep={keep_reports})"
                    );
                }
                assert_eq!(
                    m.counter("pool.hits") + m.counter("pool.misses"),
                    merged.counter("pool.hits") + merged.counter("pool.misses"),
                    "total checkouts invariant (workers={workers})"
                );
                let span = m.span_stats("host").expect("host span recorded");
                assert_eq!(span.count(), 12, "one host span per host");
                // Absorbs are counted on the workers that ran the hosts
                // and one merge per worker, with or without kept reports.
                let absorbs: Vec<u64> = out
                    .telemetry
                    .per_worker
                    .iter()
                    .map(|t| t.counter("agg.absorbs"))
                    .collect();
                assert_eq!(absorbs.len(), out.stats.workers);
                assert_eq!(absorbs.iter().sum::<u64>(), 12);
                assert_eq!(m.counter("agg.merges"), out.stats.workers as u64);
            }
        }
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let cfg = CampaignConfig {
            hosts: 4,
            workers: 2,
            seed: 9,
            samples: 3,
            baseline: false,
            ..CampaignConfig::default()
        };
        let out = run_campaign(&cfg, None::<&mut Vec<u8>>).expect("no sink");
        assert_eq!(out.telemetry, crate::metrics::CampaignTelemetry::disabled());
        assert!(out.telemetry.merged().is_empty());
    }

    #[test]
    fn summary_matches_reports() {
        let (_, out) = quick(10, 2);
        let reachable = out.reports.iter().filter(|r| r.reachable).count() as u64;
        assert_eq!(out.summary.reachable, reachable);
        let techniques: u64 = out.summary.by_technique.values().map(|g| g.hosts).sum();
        assert_eq!(techniques, 10);
    }
}
