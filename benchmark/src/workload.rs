//! The four workloads, as the `reorder` CLI invocations users run, and
//! the output checks each invocation must pass.

use crate::child::{self, Outcome};
use crate::json::{fnv1a64, fnv1a64_extend};
use std::fs;
use std::path::{Path, PathBuf};

/// How a workload drives the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `reorder survey` call with these flags after `--hosts`/`--seed`.
    Survey(&'static [&'static str]),
    /// `reorder campaign` interrupted after half its shards by fault
    /// injection, then `--resume`d.
    Campaign,
}

/// One workload: what it runs and why it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Hosts per invocation, sized so one invocation takes about two
    /// seconds on a 2-core box.
    pub hosts: usize,
    pub kind: Kind,
}

/// Every workload, in the order a full set starts its first round.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "survey_default",
        why: "The paper's live-host survey as users run it; the transfer baseline is about two thirds of wall time, so tcpstack, wire and the transfer technique dominate.",
        hosts: 10_000,
        kind: Kind::Survey(&["--workers", "1"]),
    },
    Workload {
        name: "gap_sweep",
        why: "The gap profile: no baseline and six dual or SYN runs per host, so the netsim calendar and pipes carry the load and the transfer path sits idle.",
        hosts: 3_500,
        kind: Kind::Survey(&[
            "--workers",
            "1",
            "--no-baseline",
            "--samples",
            "30",
            "--gaps-us",
            "0,25,50,100,200",
        ]),
    },
    Workload {
        name: "amenability_scan",
        why: "IPID amenability only, about 230 events per host: fixed per-host costs dominate (population draw, scenario pool, validation, aggregate absorb).",
        hosts: 50_000,
        kind: Kind::Survey(&["--workers", "1", "--amenability-only"]),
    },
    Workload {
        name: "campaign_chaos_resume",
        why: "The write side and parallelism: 2 worker processes, 20% hostile hosts, JSONL parts, sealed shard states and checkpoints, a crash after 8 of 16 shards, resume and finalize.",
        hosts: 24_000,
        kind: Kind::Campaign,
    },
];

/// Shard plan of the campaign workload and the shard it crashes after.
const SHARDS: usize = 16;
const FAIL_AFTER: usize = 8;

/// Population and budget flags of the campaign plan, which `reorder
/// survey` takes too.
const CAMPAIGN_PLAN: [&str; 6] = [
    "--chaos",
    "20%",
    "--host-deadline-ms",
    "45000",
    "--host-retries",
    "1",
];

/// Runtime flags of every campaign call: two shard workers of one
/// thread each, so the load fits two cores.
const CAMPAIGN_RUNTIME: [&str; 4] = ["--inflight", "2", "--workers", "1"];

/// Where and how the CLI is invoked.
pub struct Ctx {
    /// The `reorder` binary.
    pub exe: PathBuf,
    /// Scratch directory for campaign directories, JSONL files and
    /// captured output; emptied by the caller.
    pub work: PathBuf,
    pub seed: u64,
    /// Host counts are divided by this (1 for a full set, 10 for `--quick`).
    pub scale: usize,
}

/// One timed invocation of a workload (two CLI calls for the campaign).
#[derive(Debug, Clone)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub maxrss_kb: u64,
    /// FNV-1a over stdout (and, for the campaign, `campaign.jsonl`).
    pub digest: u64,
    /// Bytes written: stdout plus every file in the campaign directory.
    pub out_bytes: u64,
    /// Wall time of the `--resume` call (campaign only).
    pub resume_wall_s: Option<f64>,
    /// `reorder.metrics/1` documents the calls wrote (traced reps only).
    pub metrics_docs: Vec<String>,
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn expect_ok(what: &str, o: &Outcome) -> Result<(), String> {
    if o.code() == Some(0) {
        Ok(())
    } else {
        Err(format!("{what} failed: {}", o.describe()))
    }
}

/// Total size of every file under `dir`.
fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    match fs::remove_dir_all(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("clearing {}: {e}", path.display())),
    }
}

/// Host count and outcome split from a rendered campaign summary:
/// `(hosts, complete, degraded, failed)`.
pub fn summary_counts(text: &str) -> Result<(u64, u64, u64, u64), String> {
    let number_after = |text: &str, prefix: &str| -> Result<u64, String> {
        let at = text
            .find(prefix)
            .ok_or_else(|| format!("summary has no `{prefix}`"))?;
        text[at + prefix.len()..]
            .split_whitespace()
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("summary has no number after `{prefix}`"))
    };
    let outcomes = text
        .lines()
        .find(|l| l.starts_with("host outcomes:"))
        .ok_or("summary has no `host outcomes:` line")?;
    Ok((
        number_after(text, "campaign summary:")?,
        number_after(outcomes, "complete")?,
        number_after(outcomes, "degraded")?,
        number_after(outcomes, "failed")?,
    ))
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// Hosts per invocation at the context's scale.
    pub fn hosts(&self, ctx: &Ctx) -> usize {
        (self.hosts / ctx.scale).max(1)
    }

    /// Worker threads or processes the CLI keeps busy.
    pub fn parallelism(&self) -> usize {
        match self.kind {
            Kind::Survey(_) => 1,
            Kind::Campaign => 2,
        }
    }

    /// The flags that select what each host's pipeline does.
    pub fn plan_flags(&self) -> &'static [&'static str] {
        match self.kind {
            Kind::Survey(flags) => flags,
            Kind::Campaign => &CAMPAIGN_PLAN,
        }
    }

    fn survey_args(&self, flags: &[&str], hosts: usize, ctx: &Ctx) -> Vec<String> {
        let mut args = strings(&["survey", "--hosts"]);
        args.push(hosts.to_string());
        args.push("--seed".into());
        args.push(ctx.seed.to_string());
        args.extend(strings(flags));
        args
    }

    fn campaign_args(&self, dir: &Path, hosts: usize, shards: usize, ctx: &Ctx) -> Vec<String> {
        let mut args = strings(&["campaign", "--dir"]);
        args.push(dir.display().to_string());
        for (flag, value) in [("--hosts", hosts), ("--shards", shards)] {
            args.push(flag.into());
            args.push(value.to_string());
        }
        args.push("--seed".into());
        args.push(ctx.seed.to_string());
        args.extend(strings(&CAMPAIGN_PLAN));
        args.push("--jsonl".into());
        args.extend(strings(&CAMPAIGN_RUNTIME));
        args
    }

    fn campaign_dir(ctx: &Ctx) -> PathBuf {
        ctx.work.join("campaign")
    }

    /// Run the workload once at full size. `traced` adds `--telemetry
    /// full --metrics FILE` to every call and returns the documents.
    pub fn rep(&self, ctx: &Ctx, traced: bool) -> Result<Rep, String> {
        let hosts = self.hosts(ctx);
        let metrics_path = |i: usize| ctx.work.join(format!("metrics-{i}.json"));
        let with_metrics = |mut args: Vec<String>, i: usize| {
            if traced {
                args.extend(strings(&["--telemetry", "full", "--metrics"]));
                args.push(metrics_path(i).display().to_string());
            }
            args
        };
        let (calls, digest, out_bytes) = match self.kind {
            Kind::Survey(flags) => {
                let o = child::run(
                    &ctx.exe,
                    &with_metrics(self.survey_args(flags, hosts, ctx), 0),
                    &ctx.work,
                )?;
                expect_ok(self.name, &o)?;
                let digest = fnv1a64(&o.stdout);
                let bytes = o.stdout.len() as u64;
                (vec![o], digest, bytes)
            }
            Kind::Campaign => {
                let dir = Self::campaign_dir(ctx);
                fresh_dir(&dir)?;
                let mut start = self.campaign_args(&dir, hosts, SHARDS, ctx);
                start.push("--fail-after-shards".into());
                start.push(FAIL_AFTER.to_string());
                let first = child::run(&ctx.exe, &with_metrics(start, 0), &ctx.work)?;
                if first.code() != Some(1)
                    || !first.stderr.contains("interrupted by fault injection")
                {
                    return Err(format!(
                        "interrupted campaign start did not stop as injected: {}",
                        first.describe()
                    ));
                }
                let mut resume = strings(&["campaign", "--resume"]);
                resume.push(dir.display().to_string());
                resume.extend(strings(&CAMPAIGN_RUNTIME));
                let second = child::run(&ctx.exe, &with_metrics(resume, 1), &ctx.work)?;
                expect_ok("campaign --resume", &second)?;
                let done = format!("{SHARDS}/{SHARDS} shard(s) done");
                if !second.stderr.contains(&done) || second.stderr.contains("FAILED") {
                    return Err(format!(
                        "campaign shards did not all complete: {}",
                        second.describe()
                    ));
                }
                let jsonl = read(&dir.join("campaign.jsonl"))?;
                let stdout_len = (first.stdout.len() + second.stdout.len()) as u64;
                let digest = fnv1a64_extend(
                    fnv1a64(&[first.stdout.as_slice(), &second.stdout].concat()),
                    &jsonl,
                );
                (vec![first, second], digest, stdout_len + tree_bytes(&dir))
            }
        };
        let summary = &calls[calls.len() - 1].stdout;
        let (total, complete, degraded, failed) =
            summary_counts(&String::from_utf8_lossy(summary))?;
        if total != hosts as u64 || complete + degraded + failed != total {
            return Err(format!(
                "{}: summary accounts for {complete}+{degraded}+{failed} of {total} hosts, wanted {hosts}",
                self.name
            ));
        }
        let metrics_docs = if traced {
            (0..calls.len())
                .map(|i| {
                    fs::read_to_string(metrics_path(i))
                        .map_err(|e| format!("reading metrics document: {e}"))
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok(Rep {
            wall_s: calls.iter().map(|c| c.wall_s).sum(),
            cpu_s: calls.iter().map(|c| c.cpu_s).sum(),
            maxrss_kb: calls.iter().map(|c| c.maxrss_kb).max().unwrap_or(0),
            digest,
            out_bytes,
            resume_wall_s: (calls.len() == 2).then(|| calls[1].wall_s),
            metrics_docs,
        })
    }

    /// One cold 1-host invocation (a fresh 1-shard campaign directory
    /// for the campaign): the fixed cost every invocation pays. Returns
    /// the wall time and the stdout digest.
    pub fn setup_once(&self, ctx: &Ctx) -> Result<(f64, u64), String> {
        let args = match self.kind {
            Kind::Survey(flags) => self.survey_args(flags, 1, ctx),
            Kind::Campaign => {
                let dir = ctx.work.join("campaign-setup");
                fresh_dir(&dir)?;
                self.campaign_args(&dir, 1, 1, ctx)
            }
        };
        let o = child::run(&ctx.exe, &args, &ctx.work)?;
        expect_ok(&format!("{} 1-host setup", self.name), &o)?;
        Ok((o.wall_s, fnv1a64(&o.stdout)))
    }

    /// Output checks that need more than one rep's bytes. For the
    /// campaign: the resumed `summary.txt` and `campaign.jsonl` (left by
    /// the last rep) must equal an uninterrupted campaign's byte for
    /// byte, and that JSONL must equal `reorder survey --jsonl` of the
    /// same plan. Returns `(label, digest)` lines to print.
    pub fn cross_check(&self, ctx: &Ctx) -> Result<Vec<(String, u64)>, String> {
        if self.kind != Kind::Campaign {
            return Ok(Vec::new());
        }
        let hosts = self.hosts(ctx);
        let resumed = Self::campaign_dir(ctx);
        let whole = ctx.work.join("campaign-whole");
        fresh_dir(&whole)?;
        let o = child::run(
            &ctx.exe,
            &self.campaign_args(&whole, hosts, SHARDS, ctx),
            &ctx.work,
        )?;
        expect_ok("uninterrupted campaign", &o)?;
        let mut digests = Vec::new();
        for file in ["summary.txt", "campaign.jsonl"] {
            let (a, b) = (read(&resumed.join(file))?, read(&whole.join(file))?);
            if a != b {
                return Err(format!(
                    "resumed {file} differs from the uninterrupted campaign's"
                ));
            }
            digests.push((format!("resumed == uninterrupted {file}"), fnv1a64(&a)));
        }
        let survey_jsonl = ctx.work.join("survey.jsonl");
        let mut args = self.survey_args(&CAMPAIGN_PLAN, hosts, ctx);
        args.extend(strings(&["--workers", "2", "--jsonl"]));
        args.push(survey_jsonl.display().to_string());
        let o = child::run(&ctx.exe, &args, &ctx.work)?;
        expect_ok("survey --jsonl of the campaign plan", &o)?;
        if read(&survey_jsonl)? != read(&whole.join("campaign.jsonl"))? {
            return Err(
                "campaign.jsonl differs from `reorder survey --jsonl` of the same plan".into(),
            );
        }
        if o.stdout != read(&whole.join("summary.txt"))? {
            return Err("campaign summary.txt differs from `reorder survey`'s summary".into());
        }
        digests.push((
            "survey --jsonl == campaign.jsonl".into(),
            fnv1a64(&read(&survey_jsonl)?),
        ));
        fresh_dir(&whole)?;
        Ok(digests)
    }

    /// The campaign directory the last rep left behind (campaign only).
    pub fn last_campaign_dir(&self, ctx: &Ctx) -> Option<PathBuf> {
        (self.kind == Kind::Campaign).then(|| Self::campaign_dir(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_reads_the_rendered_footer() {
        let text = "campaign summary: 10 hosts\n---\nreachable: 9\n\
                    failure taxonomy         hosts  failed degraded\n\
                    unreachable                  3       1        2\n\
                    host outcomes: complete 7  degraded 2  failed 1   failed rounds: 1\n";
        assert_eq!(summary_counts(text), Ok((10, 7, 2, 1)));
        assert!(summary_counts("campaign summary: 10 hosts\n").is_err());
    }

    #[test]
    fn workload_names_are_unique_and_plans_are_probeable() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(Workload::by_name("nope").is_none());
        for w in WORKLOADS {
            crate::probe::plan_from_flags(w.plan_flags())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
