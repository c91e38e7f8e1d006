//! Per-layer probes: the benchmark's own calls into each layer's public
//! functions, on every k-th host of the workload's population, each
//! wrapped in a [`Tracer`] span.
//!
//! None of these calls select an arm the ROADMAP is deleting (the v1
//! replay sampler, non-reusing sessions, unpooled scenarios, the old
//! JSON reader), so the probes keep measuring what ships.

use crate::registry::Measured;
use crate::trace::Tracer;
use reorder_campaign::{CampaignSpec, Checkpoint};
use reorder_core::scenario::{self, ScenarioPool};
use reorder_core::telemetry::WorkerTelemetry;
use reorder_core::{technique, Budget, IpidVerdict, Measurer, Session, TestConfig, TestKind};
use reorder_netsim::rng::derive_seed;
use reorder_netsim::{Ctx as SimCtx, Device, LinkParams, Port, SimTime, Simulator};
use reorder_survey::pipeline::survey_host_pooled;
use reorder_survey::report::jsonl_line;
use reorder_survey::{HostJob, HostReport, PopulationModel, ShardAggregator};
use reorder_wire::{checksum, Ipv4Addr4, Packet, PacketBuilder, TcpFlags};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Duration;

/// Probed hosts per workload, at least (all of them when it has fewer).
const MIN_PROBE_HOSTS: usize = 512;
/// Probed hosts whose scenario is also built with capture taps, for the
/// wire and tcpstack probes.
const TAPPED_HOSTS: usize = 16;
/// Shards the aggregate-merge and checkpoint probes split reports into.
const SHARDS: usize = 16;
/// Repetitions of each whole-input probe (wire, engine, aggregate,
/// report, checkpoint); their spans are summed.
const REPS: usize = 5;

/// The library configuration a workload's CLI flags select.
#[derive(Debug, Clone)]
pub struct Plan {
    pub job: HostJob,
    pub model: PopulationModel,
}

/// Map CLI plan flags onto the pipeline job and population model they
/// configure. A flag this does not know is an error, so a workload can
/// never silently probe a different plan than its CLI calls run.
pub fn plan_from_flags(flags: &[&str]) -> Result<Plan, String> {
    let mut job = HostJob::default();
    let mut model = PopulationModel::default();
    let mut budget = Budget::default();
    let mut it = flags.iter();
    while let Some(&flag) = it.next() {
        let mut value = || {
            it.next()
                .copied()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag {
            "--workers" => {
                value()?;
            }
            "--samples" => {
                let v = value()?;
                job.samples = v.parse().map_err(|_| bad(v))?;
            }
            "--no-baseline" => job.baseline = false,
            "--amenability-only" => job.amenability_only = true,
            "--gaps-us" => {
                let v = value()?;
                job.gaps_us = v
                    .split(',')
                    .map(|g| g.parse().map_err(|_| bad(v)))
                    .collect::<Result<_, _>>()?;
            }
            "--chaos" => {
                let v = value()?;
                let pct: f64 = v
                    .strip_suffix('%')
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| bad(v))?;
                model.chaos_ppm = (pct * 1e4).round() as u32;
            }
            "--host-deadline-ms" => {
                let v = value()?;
                budget.deadline = Duration::from_millis(v.parse().map_err(|_| bad(v))?);
            }
            "--host-retries" => {
                let v = value()?;
                budget.max_retries = v.parse().map_err(|_| bad(v))?;
            }
            other => return Err(format!("the probes do not know the plan flag {other}")),
        }
    }
    job.budget = budget;
    Ok(Plan { job, model })
}

/// Inputs of one probe pass.
pub struct Probe<'a> {
    pub plan: &'a Plan,
    pub seed: u64,
    /// Hosts in the workload's population.
    pub hosts: usize,
    /// Directory the checkpoint probe may write into.
    pub scratch: &'a Path,
    /// The traced campaign's directory, when the workload is a campaign:
    /// its `checkpoint.json` feeds the checkpoint probe and its
    /// `campaign.jsonl` must hold the probed hosts' report lines.
    pub campaign_dir: Option<PathBuf>,
}

/// Ping-pong device: bounces every packet back out of its port.
struct Echo;
impl Device for Echo {
    fn on_packet(&mut self, ctx: &mut SimCtx<'_>, port: Port, mut pkt: Packet) {
        std::mem::swap(&mut pkt.ip.src, &mut pkt.ip.dst);
        ctx.transmit(port, pkt);
    }
}

/// Counts what the echo sends back.
struct Sink(Rc<Cell<usize>>);
impl Device for Sink {
    fn on_packet(&mut self, _: &mut SimCtx<'_>, _: Port, _: Packet) {
        self.0.set(self.0.get() + 1);
    }
}

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("the probes measured no {what}"))
}

/// The paper's rule: the dual-connection test where the IPID space
/// validated, the SYN test otherwise.
fn primary(verdict: IpidVerdict) -> TestKind {
    if verdict == IpidVerdict::Amenable {
        TestKind::DualConnection
    } else {
        TestKind::Syn
    }
}

/// The span name a technique's runs are recorded under.
fn technique_span(kind: TestKind) -> &'static str {
    match kind {
        TestKind::DualConnection => "core.technique.dual",
        TestKind::Syn => "core.technique.syn",
        _ => "core.technique.transfer",
    }
}

impl Probe<'_> {
    /// Run every probe, recording spans into `tr`.
    pub fn run(&self, tr: &mut Tracer) -> Result<Measured, String> {
        let mut m = Measured::new();
        let job = &self.plan.job;
        let stride = (self.hosts / MIN_PROBE_HOSTS).max(1);
        let ids: Vec<u64> = (0..self.hosts as u64).step_by(stride).collect();
        let mut pool = ScenarioPool::new();
        let mut reports: Vec<HostReport> = Vec::with_capacity(ids.len());
        let mut mechanism: BTreeMap<u64, &'static str> = BTreeMap::new();
        // events and work per technique span name
        let mut events: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for &id in &ids {
            let host = tr.enter("probe.host", Some(id));
            let s = tr.enter("survey.population.host", Some(id));
            let spec = self.plan.model.host(id, self.seed);
            tr.exit(s, 1);
            mechanism.insert(id, spec.mechanism.label());
            let host_seed = derive_seed(self.seed, &format!("survey.run.{id}"));

            let s = tr.enter("core.scenario.build", Some(id));
            let mut sc = pool.internet_host(&spec, derive_seed(host_seed, "session"));
            tr.exit(s, 1);
            {
                let mut session = Session::new(&mut sc.prober, sc.target, 80)
                    .with_reuse(true)
                    .with_budget(job.budget);
                let s = tr.enter("core.amenability.probe", Some(id));
                let verdict = technique(TestKind::DualConnection, TestConfig::samples(5))
                    .probe_amenability(&mut session);
                tr.exit(s, 1);
                if let Ok(v) = verdict {
                    for (kind, cfg) in [
                        (primary(v), TestConfig::samples(job.samples)),
                        (TestKind::DataTransfer, TestConfig::default()),
                    ] {
                        let name = technique_span(kind);
                        let before = session.prober().sim.events_processed();
                        let s = tr.enter(name, Some(id));
                        let run = Measurer::new(kind).with_config(cfg).run(&mut session);
                        let work = match (&run, kind) {
                            (Ok(_), TestKind::DataTransfer) => 1,
                            (Ok(meas), _) => meas.samples as u64,
                            (Err(_), _) => 0,
                        };
                        tr.exit(s, work);
                        if work > 0 {
                            let e = events.entry(name).or_default();
                            e.0 += session.prober().sim.events_processed() - before;
                            e.1 += work;
                        }
                    }
                }
            }
            let s = tr.enter("core.scenario.recycle", Some(id));
            pool.recycle(sc);
            tr.exit(s, 1);

            let s = tr.enter("survey.pipeline.host", Some(id));
            reports.push(survey_host_pooled(id, &spec, host_seed, job, &mut pool));
            tr.exit(s, 1);
            tr.exit(host, 0);
        }

        m.insert(
            "survey.population.host_ns",
            need(tr.mean_ns("survey.population.host"), "population draw")?,
        );
        let build = need(tr.mean_ns("core.scenario.build"), "scenario build")?;
        let recycle = need(tr.mean_ns("core.scenario.recycle"), "scenario recycle")?;
        m.insert("core.scenario.build_us", (build + recycle) / 1e3);
        m.insert(
            "core.amenability.probe_us",
            need(tr.mean_ns("core.amenability.probe"), "amenability probe")? / 1e3,
        );
        for (span, per_work, events_per_work) in [
            (
                "core.technique.dual",
                "core.technique.dual_us_per_sample",
                "core.technique.dual_events_per_sample",
            ),
            (
                "core.technique.syn",
                "core.technique.syn_us_per_sample",
                "core.technique.syn_events_per_sample",
            ),
            (
                "core.technique.transfer",
                "core.technique.transfer_us_per_object",
                "core.technique.transfer_events_per_object",
            ),
        ] {
            m.insert(per_work, need(tr.ns_per_work(span), span)? / 1e3);
            let (ev, work) = events.get(span).copied().unwrap_or_default();
            m.insert(events_per_work, ev as f64 / work.max(1) as f64);
        }
        // Dual and SYN samples grouped by the host's path mechanism.
        let mut by_path: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in tr
            .named("core.technique.dual")
            .chain(tr.named("core.technique.syn"))
        {
            if let (Some(h), true) = (s.host, s.work > 0) {
                let e = by_path.entry(mechanism[&h]).or_default();
                e.0 += s.dur_ns();
                e.1 += s.work;
            }
        }
        for (path, name) in [
            ("dummynet", "netsim.path.dummynet_us_per_sample"),
            ("striping", "netsim.path.striping_us_per_sample"),
            ("multipath", "netsim.path.multipath_us_per_sample"),
            ("arq", "netsim.path.arq_us_per_sample"),
        ] {
            let (ns, work) = by_path.get(path).copied().unwrap_or_default();
            if work == 0 {
                return Err(format!("no probed host measured a {path} path"));
            }
            m.insert(name, ns as f64 / work as f64 / 1e3);
        }

        self.tapped(tr, &ids, &mut m)?;
        self.engine(tr, &mut m)?;
        let merged = self.aggregate(tr, &reports, &mut m)?;
        self.jsonl(tr, &ids, &reports, &mut m)?;
        self.checkpoint(tr, merged, &mut m)?;
        Ok(m)
    }

    /// Build the first probed hosts with capture taps, rerun their
    /// measurements, and time the wire codec on every captured packet.
    fn tapped(&self, tr: &mut Tracer, ids: &[u64], m: &mut Measured) -> Result<(), String> {
        let job = &self.plan.job;
        let mut packets: Vec<Packet> = Vec::new();
        let (mut segments, mut transfers) = (0usize, 0usize);
        for &id in ids.iter().take(TAPPED_HOSTS) {
            let spec = self.plan.model.host(id, self.seed);
            let host_seed = derive_seed(self.seed, &format!("survey.run.{id}"));
            let mut sc = scenario::internet_host(&spec, derive_seed(host_seed, "session"));
            {
                let mut session = Session::new(&mut sc.prober, sc.target, 80)
                    .with_reuse(true)
                    .with_budget(job.budget);
                let verdict = technique(TestKind::DualConnection, TestConfig::samples(5))
                    .probe_amenability(&mut session);
                if let Ok(v) = verdict {
                    let _ = Measurer::new(primary(v))
                        .with_config(TestConfig::samples(job.samples))
                        .run(&mut session);
                    let sent = |sc_tx: &[reorder_netsim::TraceHandle]| -> usize {
                        sc_tx.iter().map(|t| t.borrow().len()).sum()
                    };
                    let before = sent(&sc.server_tx);
                    if Measurer::new(TestKind::DataTransfer)
                        .run(&mut session)
                        .is_ok()
                    {
                        segments += sent(&sc.server_tx) - before;
                        transfers += 1;
                    }
                }
            }
            for trace in sc
                .server_rx
                .iter()
                .chain(&sc.server_tx)
                .chain([&sc.prober_rx])
            {
                packets.extend(trace.borrow().iter().map(|r| r.pkt.clone()));
            }
        }
        if packets.is_empty() || transfers == 0 {
            return Err("tapped hosts captured no packets or completed no transfer".into());
        }
        m.insert(
            "tcpstack.segments_per_transfer",
            segments as f64 / transfers as f64,
        );

        let n = packets.len() as u64;
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        for _ in 0..REPS {
            let s = tr.enter("wire.encode", None);
            encoded = packets.iter().map(|p| black_box(p).encode()).collect();
            tr.exit(s, n);
            let s = tr.enter("wire.decode", None);
            let ok = encoded
                .iter()
                .filter(|b| Packet::decode(black_box(b)).is_ok())
                .count();
            tr.exit(s, n);
            if ok != encoded.len() {
                return Err(format!(
                    "{} captured packets failed to decode",
                    encoded.len() - ok
                ));
            }
            let bytes: usize = encoded.iter().map(Vec::len).sum();
            let s = tr.enter("wire.checksum", None);
            for b in &encoded {
                black_box(checksum::internet(black_box(b)));
            }
            tr.exit(s, bytes as u64);
        }
        for (p, b) in packets.iter().zip(&encoded) {
            if Packet::decode(b).as_ref() != Ok(p) {
                return Err("a captured packet does not survive encode/decode".into());
            }
        }
        m.insert(
            "wire.encode_ns_per_pkt",
            need(tr.ns_per_work("wire.encode"), "encode")?,
        );
        m.insert(
            "wire.decode_ns_per_pkt",
            need(tr.ns_per_work("wire.decode"), "decode")?,
        );
        m.insert(
            "wire.checksum_ns_per_kib",
            need(tr.ns_per_work("wire.checksum"), "checksum")? * 1024.0,
        );
        Ok(())
    }

    /// A synthetic echo through the bare event engine.
    fn engine(&self, tr: &mut Tracer, m: &mut Measured) -> Result<(), String> {
        const PACKETS: u16 = 500;
        for rep in 0..REPS * 4 {
            let mut sim = Simulator::new(self.seed ^ rep as u64);
            let seen = Rc::new(Cell::new(0usize));
            let sink = sim.add_node(Box::new(Sink(seen.clone())));
            let echo = sim.add_node(Box::new(Echo));
            sim.connect(sink, Port(0), echo, Port(0), LinkParams::lan());
            let s = tr.enter("netsim.engine.echo", None);
            for i in 0..PACKETS {
                let pkt = PacketBuilder::tcp()
                    .src(Ipv4Addr4::new(10, 0, 0, 1), 1000)
                    .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
                    .seq(u32::from(i))
                    .flags(TcpFlags::ACK)
                    .ipid(i)
                    .build();
                sim.transmit_from(sink, Port(0), pkt);
            }
            sim.run_until_idle(SimTime::from_secs(10));
            tr.exit(s, sim.events_processed());
            if seen.get() != usize::from(PACKETS) {
                return Err(format!(
                    "engine echo returned {} of {PACKETS} packets",
                    seen.get()
                ));
            }
        }
        m.insert(
            "netsim.engine_ns_per_event",
            need(tr.ns_per_work("netsim.engine.echo"), "engine events")?,
        );
        Ok(())
    }

    /// Absorb, shard-merge and JSON round-trip the probed reports.
    /// Returns the merged aggregate.
    fn aggregate(
        &self,
        tr: &mut Tracer,
        reports: &[HostReport],
        m: &mut Measured,
    ) -> Result<ShardAggregator, String> {
        let n = reports.len() as u64;
        let mut whole = ShardAggregator::default();
        for _ in 0..REPS {
            let s = tr.enter("survey.aggregate.absorb", None);
            whole = ShardAggregator::default();
            for r in reports {
                whole.absorb(black_box(r));
            }
            tr.exit(s, n);
        }
        let mut shards = vec![ShardAggregator::default(); SHARDS];
        for (i, r) in reports.iter().enumerate() {
            shards[i * SHARDS / reports.len()].absorb(r);
        }
        let mut merged = ShardAggregator::default();
        for _ in 0..REPS {
            let s = tr.enter("survey.aggregate.merge", None);
            merged = ShardAggregator::default();
            for shard in &shards {
                merged.merge(black_box(shard));
            }
            tr.exit(s, SHARDS as u64);
        }
        let text = merged.to_json();
        if text != whole.to_json() {
            return Err("merging shard aggregates differs from absorbing every report".into());
        }
        for _ in 0..REPS {
            let s = tr.enter("survey.aggregate.json_roundtrip", None);
            let back = ShardAggregator::from_json(&black_box(merged.to_json()))?;
            tr.exit(s, 1);
            if back.to_json() != text {
                return Err("the aggregate does not survive its JSON round trip".into());
            }
        }
        m.insert(
            "survey.aggregate.absorb_ns",
            need(tr.ns_per_work("survey.aggregate.absorb"), "absorb")?,
        );
        m.insert(
            "survey.aggregate.merge_us",
            need(tr.ns_per_work("survey.aggregate.merge"), "merge")? / 1e3,
        );
        m.insert(
            "survey.aggregate.json_roundtrip_us",
            need(
                tr.ns_per_work("survey.aggregate.json_roundtrip"),
                "JSON round trip",
            )? / 1e3,
        );
        Ok(merged)
    }

    /// Render the probed reports as JSONL; a campaign's report must hold
    /// exactly these lines at the probed ids.
    fn jsonl(
        &self,
        tr: &mut Tracer,
        ids: &[u64],
        reports: &[HostReport],
        m: &mut Measured,
    ) -> Result<(), String> {
        let mut lines = Vec::new();
        for _ in 0..REPS {
            let s = tr.enter("survey.report.jsonl", None);
            lines = reports
                .iter()
                .map(|r| jsonl_line(black_box(r)))
                .collect::<Vec<_>>();
            tr.exit(s, reports.len() as u64);
        }
        let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
        m.insert(
            "survey.report.jsonl_ns_per_host",
            need(tr.ns_per_work("survey.report.jsonl"), "JSONL lines")?,
        );
        m.insert(
            "survey.report.jsonl_bytes_per_host",
            bytes as f64 / lines.len().max(1) as f64,
        );
        if let Some(dir) = &self.campaign_dir {
            let path = dir.join("campaign.jsonl");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let cli: Vec<&str> = text.lines().collect();
            for (&id, line) in ids.iter().zip(&lines) {
                if cli.get(id as usize) != Some(&line.as_str()) {
                    return Err(format!(
                        "campaign.jsonl line {id} differs from the library pipeline's report"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Store and load a checkpoint: the traced campaign's own, or for a
    /// survey workload one holding the probed aggregate under its plan.
    fn checkpoint(
        &self,
        tr: &mut Tracer,
        merged: ShardAggregator,
        m: &mut Measured,
    ) -> Result<(), String> {
        let ckpt = match &self.campaign_dir {
            Some(dir) => {
                Checkpoint::load(&dir.join("checkpoint.json")).map_err(|e| e.to_string())?
            }
            None => {
                let job = &self.plan.job;
                Checkpoint {
                    spec: CampaignSpec {
                        hosts: self.hosts,
                        seed: self.seed,
                        samples: job.samples,
                        baseline: job.baseline,
                        amenability_only: job.amenability_only,
                        gaps_us: job.gaps_us.clone(),
                        chaos_ppm: self.plan.model.chaos_ppm,
                        shards: SHARDS,
                        ..CampaignSpec::default()
                    },
                    completed: (1..=SHARDS).collect(),
                    agg: merged,
                    telemetry: WorkerTelemetry::new(),
                    steals: 0,
                }
            }
        };
        let path = self.scratch.join("checkpoint-probe.json");
        let want = ckpt.to_json();
        for _ in 0..REPS {
            let s = tr.enter("campaign.checkpoint.store", None);
            ckpt.store(&path)
                .map_err(|e| format!("storing {}: {e}", path.display()))?;
            tr.exit(s, 1);
            let s = tr.enter("campaign.checkpoint.load", None);
            let back = Checkpoint::load(&path).map_err(|e| e.to_string())?;
            tr.exit(s, 1);
            if back.to_json() != want {
                return Err("the checkpoint does not survive store and load".into());
            }
        }
        let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
        m.insert(
            "campaign.checkpoint.store_ms",
            need(tr.mean_ns("campaign.checkpoint.store"), "store")? / 1e6,
        );
        m.insert(
            "campaign.checkpoint.load_ms",
            need(tr.mean_ns("campaign.checkpoint.load"), "load")? / 1e6,
        );
        m.insert("campaign.checkpoint.bytes", bytes as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_map_onto_the_pipeline_plan() {
        let p = plan_from_flags(&[
            "--workers",
            "1",
            "--no-baseline",
            "--samples",
            "30",
            "--gaps-us",
            "0,25",
        ])
        .expect("known flags");
        assert_eq!(p.job.samples, 30);
        assert!(!p.job.baseline);
        assert_eq!(p.job.gaps_us, vec![0, 25]);
        let p = plan_from_flags(&[
            "--chaos",
            "20%",
            "--host-deadline-ms",
            "45000",
            "--host-retries",
            "1",
        ])
        .expect("campaign plan");
        assert_eq!(p.model.chaos_ppm, 200_000);
        assert_eq!(p.job.budget.deadline, Duration::from_secs(45));
        assert_eq!(p.job.budget.max_retries, 1);
        assert!(
            plan_from_flags(&["--rounds", "2"]).is_err(),
            "unknown flags are refused"
        );
        assert!(plan_from_flags(&["--samples"]).is_err());
    }

    /// A tiny probe pass on the library alone: no CLI binary involved.
    #[test]
    fn tiny_probe_pass_measures_every_probe_metric() {
        let scratch =
            std::env::temp_dir().join(format!("reorder_benchmark_probe_{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let plan = plan_from_flags(&["--samples", "5"]).unwrap();
        let probe = Probe {
            plan: &plan,
            seed: 3,
            hosts: 120,
            scratch: &scratch,
            campaign_dir: None,
        };
        let mut tr = Tracer::default();
        let m = probe.run(&mut tr).expect("probe pass");
        for d in crate::registry::PER_LAYER
            .iter()
            .filter(|d| d.source == crate::registry::Source::Probe)
        {
            let v = m
                .get(d.name)
                .unwrap_or_else(|| panic!("{} not measured", d.name));
            assert!(v.is_finite() && *v > 0.0, "{} = {v}", d.name);
        }
        assert_eq!(
            m.len(),
            crate::registry::PER_LAYER
                .iter()
                .filter(|d| d.source == crate::registry::Source::Probe)
                .count(),
            "every probe metric is declared"
        );
        assert_eq!(tr.named("probe.host").count(), 120);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
