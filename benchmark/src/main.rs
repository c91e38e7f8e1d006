//! End-to-end and per-layer benchmark of the `reorder` CLI.
//!
//! Builds the CLI from the checkout, then runs each chosen workload as
//! closed-loop CLI invocations (the next starts when the previous one
//! exits) in rounds whose workload order rotates, so machine drift hits
//! every workload alike. Prints every metric with its unit, checks the
//! outputs, and ends with one JSON result line per workload. With
//! `--trace 1` it adds one traced rep and the library probes, and
//! prints the per-layer metrics instead. See README.md.

mod child;
mod docs;
mod json;
mod probe;
mod registry;
mod stats;
mod trace;
mod workload;

use json::quote;
use registry::{Measured, E2E, PER_LAYER};
use stats::{iqr_frac, median, quartiles, supported_percentile};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Ctx, Rep, Workload, WORKLOADS};

const USAGE: &str =
    "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-file FILE] [--quick]";

/// Timed reps every workload gets at least, however short `--seconds`.
const MIN_REPS: usize = 5;
/// 1-host invocations per workload per round; `setup_s` is their median.
const SETUP_PER_ROUND: usize = 2;
/// Calibration IQR share above which the run is flagged NOISY.
const NOISY_IQR: f64 = 0.10;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    /// Timed wall seconds each workload accumulates, at least.
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
    /// Host counts divided by ten, for a smoke run in seconds.
    quick: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: f64::NAN,
        trace: false,
        trace_file: None,
        quick: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => o.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                o.workloads = vec![Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!(
                        "unknown workload `{value}` (accepted: all, {})",
                        names.join(", ")
                    )
                })?]
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-file" => o.trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if o.seconds.is_nan() {
        o.seconds = if o.quick { 2.0 } else { 18.0 };
    }
    Ok(o)
}

/// A fixed CPU kernel, timed once per round: if its own time spreads,
/// the machine was noisy during the run.
fn calib_ms() -> f64 {
    let started = Instant::now();
    let (mut x, mut h) = (0x9e37_79b9_7f4a_7c15u64, json::FNV_OFFSET);
    for _ in 0..black_box(5_000_000u32) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
    black_box(h);
    started.elapsed().as_secs_f64() * 1e3
}

/// Build the CLI in release mode and return the binary's path.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "reorder-cli",
            "--bin",
            "reorder",
        ])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the reorder CLI failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    Ok(target.join("release").join("reorder"))
}

/// Everything measured for one workload.
struct Tally {
    w: Workload,
    hosts: usize,
    setup_s: Vec<f64>,
    setup_digests: Vec<u64>,
    reps: Vec<Rep>,
    /// Invocations that failed; they abort the workload.
    failed_reps: usize,
    errors: Vec<String>,
    digests: Vec<(String, u64)>,
}

impl Tally {
    fn timed_s(&self) -> f64 {
        self.reps.iter().map(|r| r.wall_s).sum()
    }

    fn done(&self, seconds: f64) -> bool {
        !self.errors.is_empty() || (self.reps.len() >= MIN_REPS && self.timed_s() >= seconds)
    }

    /// One timed rep, then this round's 1-host set-up invocations, so
    /// set-up is sampled across the same machine conditions as the reps.
    fn rep(&mut self, ctx: &Ctx) {
        match self.w.rep(ctx, false) {
            Ok(r) => self.reps.push(r),
            Err(e) => {
                self.failed_reps += 1;
                return self.errors.push(e);
            }
        }
        for _ in 0..SETUP_PER_ROUND {
            match self.w.setup_once(ctx) {
                Ok((wall, digest)) => {
                    self.setup_s.push(wall);
                    self.setup_digests.push(digest);
                }
                Err(e) => return self.errors.push(e),
            }
        }
    }

    /// Every rep must print the same bytes, and so must every 1-host
    /// set-up invocation.
    fn digest_check(&mut self) -> Result<(), String> {
        let first = self.reps.first().ok_or("no rep completed")?.digest;
        if let Some(i) = self.reps.iter().position(|r| r.digest != first) {
            return Err(format!(
                "rep {} output digest {:016x} != rep 0's {first:016x}",
                i, self.reps[i].digest
            ));
        }
        let setup = *self
            .setup_digests
            .first()
            .ok_or("no set-up run completed")?;
        if self.setup_digests.iter().any(|&d| d != setup) {
            return Err(format!(
                "1-host set-up output differs across {} runs",
                self.setup_digests.len()
            ));
        }
        self.digests
            .push((format!("output over {} reps", self.reps.len()), first));
        self.digests.push((
            format!(
                "1-host set-up output over {} runs",
                self.setup_digests.len()
            ),
            setup,
        ));
        Ok(())
    }

    fn walls(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.wall_s).collect()
    }

    fn e2e(&self) -> Result<Measured, String> {
        let walls = self.walls();
        let wall = median(&walls).ok_or("no timed rep")?;
        let hosts_done = (self.hosts * self.reps.len()) as f64;
        let mut m = Measured::new();
        m.insert("hosts_per_sec", self.hosts as f64 / wall);
        m.insert(
            "cpu_ms_per_host",
            self.reps.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3 / hosts_done,
        );
        m.insert("setup_s", median(&self.setup_s).ok_or("no setup run")?);
        let rss = self.reps.iter().map(|r| r.maxrss_kb).max().unwrap_or(0);
        m.insert("peak_rss_mb", rss as f64 / 1024.0);
        Ok(m)
    }
}

/// Describe a timing sample: median, quartiles, count, and the highest
/// percentile with at least ten samples beyond it.
fn spread(values: &[f64], unit: &str) -> String {
    let mut s = format!("median {:.4} {unit}", median(values).unwrap_or(f64::NAN));
    if let Some((q1, q3)) = quartiles(values) {
        let _ = write!(s, ", q1 {q1:.4} q3 {q3:.4}");
    }
    if let Some(p) = supported_percentile(values.len()) {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        let _ = write!(s, ", p{p} {:.4}", v[idx]);
    }
    let _ = write!(s, ", n={}", values.len());
    s
}

/// The result line: the declared metrics, in declaration order.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Order `measured` as the registry declares it, refusing any missing,
/// undeclared or non-finite value.
fn declared<'a>(
    measured: &Measured,
    defs: impl Iterator<Item = (&'a str, &'a str)>,
) -> Result<Vec<(&'a str, &'a str, f64)>, String> {
    let out: Vec<_> = defs
        .map(|(name, unit)| match measured.get(name) {
            Some(v) if v.is_finite() => Ok((name, unit, *v)),
            Some(v) => Err(format!("{name} measured as {v}")),
            None => Err(format!("{name} was not measured")),
        })
        .collect::<Result<_, _>>()?;
    if out.len() != measured.len() {
        return Err("a measured metric is not declared in the registry".into());
    }
    Ok(out)
}

fn run(o: &Options) -> Result<bool, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .ok_or("the benchmark package has no parent directory")?
        .to_path_buf();
    let exe = build_cli(&root)?;
    let work = root
        .join(".bench_work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        exe,
        work: work.clone(),
        seed: o.seed,
        scale: if o.quick { 10 } else { 1 },
    };
    let result = measure_all(o, &ctx, &root);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure_all(o: &Options, ctx: &Ctx, root: &Path) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "benchmark: seed {}, {} workload(s), >= {} s and >= {MIN_REPS} reps each, {cores} core(s) available",
        o.seed,
        o.workloads.len(),
        o.seconds
    );
    let mut tallies: Vec<Tally> = o
        .workloads
        .iter()
        .map(|&w| Tally {
            w,
            hosts: w.hosts(ctx),
            setup_s: Vec::new(),
            setup_digests: Vec::new(),
            reps: Vec::new(),
            failed_reps: 0,
            errors: Vec::new(),
            digests: Vec::new(),
        })
        .collect();

    // Rounds: every unfinished workload runs once per round, starting
    // one later in the list each round.
    let mut calib = Vec::new();
    let mut round = 0;
    while tallies.iter().any(|t| !t.done(o.seconds)) {
        calib.push(calib_ms());
        let n = tallies.len();
        for k in 0..n {
            let t = &mut tallies[(k + round) % n];
            if !t.done(o.seconds) {
                t.rep(ctx);
            }
        }
        round += 1;
    }
    let calib_med = median(&calib).unwrap_or(f64::NAN);
    let calib_iqr = iqr_frac(&calib).unwrap_or(0.0);
    println!(
        "bench.calib_ms {calib_med:.4} ms (iqr {:.1}%, {})",
        calib_iqr * 100.0,
        spread(&calib, "ms")
    );
    if calib_iqr > NOISY_IQR {
        println!(
            "NOISY: the calibration kernel's IQR is {:.1}% of its median (> {:.0}%)",
            calib_iqr * 100.0,
            NOISY_IQR * 100.0
        );
    }

    let calib = (calib_med, calib_iqr);
    let mut trace_doc = Vec::new();
    let mut all_correct = true;
    for t in &mut tallies {
        all_correct &= report(t, o, ctx, calib, &mut trace_doc);
    }

    if o.trace {
        let path = o.trace_file.clone().unwrap_or_else(|| {
            let names: Vec<_> = o.workloads.iter().map(|w| w.name).collect();
            root.join(".bench_work")
                .join(format!("trace-{}-seed{}.json", names.join("+"), o.seed))
        });
        let text = format!(
            "{{\"schema\":\"reorder.benchmark.trace/1\",\"seed\":{},\"workloads\":[{}]}}\n",
            o.seed,
            trace_doc.join(",")
        );
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("benchmark: spans written to {}", path.display());
    }
    Ok(all_correct)
}

/// Check one workload's outputs and print its metrics and result line,
/// after its traced rep and probes when tracing. Returns whether every
/// check passed.
fn report(
    t: &mut Tally,
    o: &Options,
    ctx: &Ctx,
    calib: (f64, f64),
    trace_doc: &mut Vec<String>,
) -> bool {
    if t.errors.is_empty() {
        if let Err(e) = t.digest_check() {
            t.errors.push(format!("determinism: {e}"));
        }
    }
    if t.errors.is_empty() {
        match t.w.cross_check(ctx) {
            Ok(d) => t.digests.extend(d),
            Err(e) => t.errors.push(format!("cross-check: {e}")),
        }
    }
    println!(
        "workload {}: {} hosts per rep, {} reps. {}",
        t.w.name,
        t.hosts,
        t.reps.len(),
        t.w.why
    );
    let walls = t.walls();
    println!("  wall per rep: {}", spread(&walls, "s"));
    if let Some(resumes) = t
        .reps
        .iter()
        .map(|r| r.resume_wall_s)
        .collect::<Option<Vec<f64>>>()
    {
        println!("  of which --resume: {}", spread(&resumes, "s"));
    }
    println!("  1-host set-up: {}", spread(&t.setup_s, "s"));

    let mut attempted = t.hosts * (t.reps.len() + t.failed_reps);
    let mut metrics = Measured::new();
    if t.errors.is_empty() {
        match t.e2e() {
            Ok(m) => metrics = m,
            Err(e) => t.errors.push(e),
        }
    }
    for d in E2E.iter() {
        if let Some(v) = metrics.get(d.name) {
            println!(
                "  {:<18} {v:>14.4} {:<8} {} is better; a regression past {:.0}%",
                d.name,
                d.unit,
                d.better,
                d.bound * 100.0
            );
        }
    }
    if o.trace && t.errors.is_empty() {
        attempted += t.hosts;
        match traced(t, ctx, calib) {
            Ok((m, doc)) => {
                metrics = m;
                trace_doc.push(doc);
            }
            Err(e) => {
                t.failed_reps += 1;
                t.errors.push(format!("traced rep: {e}"));
            }
        }
    }
    for (label, d) in &t.digests {
        println!("  digest fnv1a64 {d:016x}  {label}");
    }
    let listed = if o.trace {
        declared(&metrics, PER_LAYER.iter().map(|d| (d.name, d.unit)))
    } else {
        declared(&metrics, E2E.iter().map(|d| (d.name, d.unit)))
    };
    let listed = match listed {
        Ok(l) => l,
        Err(e) => {
            if t.errors.is_empty() {
                t.errors.push(e);
            }
            Vec::new()
        }
    };
    for e in &t.errors {
        println!("  CHECK FAILED: {e}");
    }
    let correct = t.errors.is_empty();
    println!(
        "{}",
        result_line(correct, attempted, t.hosts * t.failed_reps, &listed)
    );
    correct
}

/// The traced rep and the library probes of one workload: per-layer
/// metrics, and the workload's entry of the trace file.
fn traced(t: &mut Tally, ctx: &Ctx, calib: (f64, f64)) -> Result<(Measured, String), String> {
    let rep = t.w.rep(ctx, true)?;
    let first = t.reps.first().map(|r| r.digest);
    if first != Some(rep.digest) {
        return Err(format!(
            "traced output digest {:016x} differs from the untraced reps'",
            rep.digest
        ));
    }
    t.digests.push(("traced rep output".into(), rep.digest));
    let mut notes = Vec::new();
    let mut m = docs::measure(&rep, t.hosts, t.w.parallelism(), &mut notes)?;
    let plan = probe::plan_from_flags(t.w.plan_flags())?;
    let probe = probe::Probe {
        plan: &plan,
        seed: ctx.seed,
        hosts: t.hosts,
        scratch: &ctx.work,
        campaign_dir: t.w.last_campaign_dir(ctx),
    };
    let mut tracer = trace::Tracer::default();
    m.extend(probe.run(&mut tracer)?);
    let untraced = median(&t.walls()).ok_or("no untraced rep")?;
    m.insert("bench.trace_overhead_frac", rep.wall_s / untraced - 1.0);
    m.insert("bench.calib_ms", calib.0);
    m.insert("bench.calib_iqr_frac", calib.1);
    for note in notes {
        println!("  note: {note}");
    }
    for d in PER_LAYER.iter() {
        if let Some(v) = m.get(d.name) {
            println!(
                "  {:<44} {v:>14.4} {:<6} {:<6} {:?}: moves {}",
                d.name, d.unit, d.better, d.source, d.moves
            );
        }
    }
    let self_ns: Vec<String> = tracer
        .self_ns()
        .into_iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    let doc = format!(
        "{{\"name\":{},\"cli_metrics\":[{}],\"spans\":{},\"self_ns\":{{{}}}}}",
        quote(t.w.name),
        rep.metrics_docs
            .iter()
            .map(|d| d.trim())
            .collect::<Vec<_>>()
            .join(","),
        tracer.spans_json(),
        self_ns.join(",")
    );
    Ok((m, doc))
}

fn main() -> ExitCode {
    let o = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&o) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Options, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn options_parse_the_driver_interface() {
        let o = parse("--workload gap_sweep --seed 7 --seconds 20 --trace 1").expect("valid");
        assert_eq!(o.workloads.len(), 1);
        assert_eq!(o.workloads[0].name, "gap_sweep");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20.0, true));
        let o = parse("").expect("defaults");
        assert_eq!(o.workloads.len(), WORKLOADS.len());
        assert_eq!(o.seconds, 18.0);
        assert_eq!(parse("--quick").expect("quick").seconds, 2.0);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` must be refused");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("hosts_per_sec", "hosts/s", 1234.5678)]);
        let v = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            v.path(&["metrics", "hosts_per_sec", "value"]),
            Some(&json::Value::Num(1234.5678))
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn declared_refuses_missing_extra_and_non_finite_values() {
        let defs = || E2E.iter().map(|d| (d.name, d.unit));
        let mut m: Measured = E2E.iter().map(|d| (d.name, 1.0)).collect();
        assert_eq!(declared(&m, defs()).map(|l| l.len()), Ok(E2E.len()));
        m.insert("setup_s", f64::NAN);
        assert!(declared(&m, defs()).is_err());
        m.insert("setup_s", 1.0);
        m.insert("bench.calib_ms", 1.0);
        assert!(declared(&m, defs()).is_err());
        m.remove("bench.calib_ms");
        m.remove("peak_rss_mb");
        assert!(declared(&m, defs()).is_err());
    }
}
