//! End-to-end orchestrator tests: the headline contract is that a
//! campaign interrupted by the fault-injection hook and then resumed
//! produces **byte-identical** outputs — merged summary and
//! concatenated JSONL — to an uninterrupted run of the same plan, and
//! both match a plain unsharded survey of the same spec. Around that:
//! transient shard failures are retried to success, exhausted retries
//! surface in `CampaignReport::failed` (and the directory stays
//! resumable), and a directory is never silently reused for a
//! different plan.

use reorder_campaign::{
    checkpoint_path, part_path, resume, start, CampaignOptions, CampaignSpec, Checkpoint,
    InProcessRunner, ShardRunner,
};
use reorder_core::telemetry::TelemetryMode;
use reorder_survey::{run_shard, ShardState};
use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reorder_resume_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A quick plan that still exercises every moving part: multiple
/// shards, JSONL parts, real measurement.
fn quick_spec() -> CampaignSpec {
    CampaignSpec {
        hosts: 30,
        shards: 5,
        samples: 3,
        baseline: false,
        jsonl: true,
        ..CampaignSpec::default()
    }
}

fn runner() -> InProcessRunner {
    InProcessRunner {
        workers: 1,
        telemetry: TelemetryMode::Summary,
    }
}

fn opts() -> CampaignOptions {
    CampaignOptions {
        inflight: 2,
        backoff_ms: 1,
        ..CampaignOptions::default()
    }
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn interrupted_campaign_resumes_to_identical_bytes() {
    let spec = quick_spec();

    // Reference: one uninterrupted orchestrated run.
    let dir_a = tmpdir("clean");
    let a = start(&dir_a, spec.clone(), &opts(), &runner()).expect("clean run");
    assert!(!a.interrupted && a.failed.is_empty());
    assert_eq!(a.checkpoint.completed.len(), spec.shards);
    let summary_a = read(&a.summary_path.clone().expect("summary written"));
    let jsonl_a = read(&a.jsonl_path.clone().expect("jsonl written"));
    for shard in 1..=spec.shards {
        assert!(part_path(&dir_a, shard).exists(), "part {shard} persisted");
    }

    // The campaign outputs are the plain survey's outputs: an
    // unsharded run of the same spec renders the same summary and
    // emits the same JSONL as the 5-shard concatenation.
    let mut unsharded = Vec::new();
    let state = run_shard(
        &spec.config(1, TelemetryMode::Off),
        1,
        1,
        Some(&mut unsharded),
    )
    .expect("unsharded run");
    assert_eq!(summary_a, state.agg.summary.render().as_bytes());
    assert_eq!(jsonl_a, unsharded);

    // Crash after 2 checkpoint writes, then resume.
    let dir_b = tmpdir("crash");
    let crash_opts = CampaignOptions {
        fail_after_shards: Some(2),
        ..opts()
    };
    let b1 = start(&dir_b, spec.clone(), &crash_opts, &runner()).expect("interrupted run");
    assert!(b1.interrupted, "fault injection must trip");
    assert_eq!(b1.completed_now, 2);
    assert!(b1.summary_path.is_none() && b1.jsonl_path.is_none());
    let durable = Checkpoint::load(&checkpoint_path(&dir_b)).expect("resumable checkpoint");
    assert_eq!(
        durable.completed.len(),
        2,
        "exactly the checkpointed shards survive"
    );

    let b2 = resume(&dir_b, &opts(), &runner()).expect("resumed run");
    assert!(!b2.interrupted && b2.failed.is_empty());
    assert_eq!(b2.resumed, 2);
    assert_eq!(b2.completed_now, spec.shards - 2);
    assert_eq!(
        summary_a,
        read(&b2.summary_path.expect("summary after resume"))
    );
    assert_eq!(jsonl_a, read(&b2.jsonl_path.expect("jsonl after resume")));

    // Resuming a finished campaign is an idempotent re-finalize.
    let b3 = resume(&dir_b, &opts(), &runner()).expect("resume of finished campaign");
    assert_eq!(b3.resumed, spec.shards);
    assert_eq!(b3.completed_now, 0);
    assert_eq!(
        summary_a,
        read(&b3.summary_path.expect("summary still there"))
    );

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// Fails the first attempt of every odd shard, then delegates.
struct Flaky {
    inner: InProcessRunner,
    tripped: Mutex<HashSet<usize>>,
}

impl ShardRunner for Flaky {
    fn run(
        &self,
        spec: &CampaignSpec,
        shard: usize,
        part: Option<&Path>,
    ) -> Result<ShardState, String> {
        if shard % 2 == 1 && self.tripped.lock().unwrap().insert(shard) {
            return Err(format!("injected transient fault on shard {shard}"));
        }
        self.inner.run(spec, shard, part)
    }
}

#[test]
fn transient_failures_are_retried_to_identical_bytes() {
    let spec = quick_spec();
    let dir_a = tmpdir("retry_ref");
    let a = start(&dir_a, spec.clone(), &opts(), &runner()).expect("clean run");

    let dir_b = tmpdir("retry");
    let flaky = Flaky {
        inner: runner(),
        tripped: Mutex::new(HashSet::new()),
    };
    let b = start(&dir_b, spec.clone(), &opts(), &flaky).expect("flaky run");
    assert!(b.failed.is_empty(), "retries must absorb transient faults");
    assert_eq!(b.retries, 3, "shards 1, 3, 5 each fail once");
    assert_eq!(
        read(&a.summary_path.expect("reference summary")),
        read(&b.summary_path.expect("flaky summary")),
    );
    assert_eq!(
        read(&a.jsonl_path.expect("reference jsonl")),
        read(&b.jsonl_path.expect("flaky jsonl")),
    );

    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

/// One shard fails every attempt; the rest delegate.
struct Doomed {
    inner: InProcessRunner,
    bad: usize,
}

impl ShardRunner for Doomed {
    fn run(
        &self,
        spec: &CampaignSpec,
        shard: usize,
        part: Option<&Path>,
    ) -> Result<ShardState, String> {
        if shard == self.bad {
            return Err(format!("shard {shard} is doomed"));
        }
        self.inner.run(spec, shard, part)
    }
}

#[test]
fn exhausted_retries_surface_and_stay_resumable() {
    let spec = quick_spec();
    let dir = tmpdir("doomed");
    let doomed = Doomed {
        inner: runner(),
        bad: 3,
    };
    let few_retries = CampaignOptions {
        retries: 1,
        ..opts()
    };
    let report = start(&dir, spec.clone(), &few_retries, &doomed).expect("run with failure");
    assert_eq!(report.failed.len(), 1, "exactly the doomed shard fails");
    assert_eq!(report.failed[0].0, 3);
    assert!(
        report.failed[0].1.contains("doomed"),
        "{}",
        report.failed[0].1
    );
    assert_eq!(report.retries, 1, "one re-attempt before giving up");
    assert!(
        report.summary_path.is_none() && report.jsonl_path.is_none(),
        "an incomplete campaign must not finalize outputs"
    );
    let durable = Checkpoint::load(&checkpoint_path(&dir)).expect("directory stays resumable");
    assert_eq!(durable.completed.len(), spec.shards - 1);
    assert!(!durable.completed.contains(&3));

    // Once the fault clears, a plain resume completes the campaign.
    let recovered = resume(&dir, &opts(), &runner()).expect("recovery resume");
    assert!(recovered.failed.is_empty());
    assert_eq!(recovered.resumed, spec.shards - 1);
    assert_eq!(recovered.completed_now, 1);
    assert!(recovered.summary_path.is_some() && recovered.jsonl_path.is_some());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn start_refuses_a_directory_holding_a_different_plan() {
    let dir = tmpdir("refuse");
    let spec = quick_spec();
    start(&dir, spec.clone(), &opts(), &runner()).expect("first run");

    let other = CampaignSpec {
        hosts: spec.hosts + 1,
        ..spec.clone()
    };
    let err = start(&dir, other, &opts(), &runner()).expect_err("different plan must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert!(err.to_string().contains("different campaign"), "{err}");

    // Same plan: starting again is a safe no-op resume.
    let again = start(&dir, spec.clone(), &opts(), &runner()).expect("same plan restarts");
    assert_eq!(again.resumed, spec.shards);
    assert_eq!(again.completed_now, 0);

    let _ = fs::remove_dir_all(&dir);
}

/// Copy a committed fixture directory tree into `dst`.
fn copy_tree(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        let to = dst.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_tree(&path, &to);
        } else {
            fs::copy(&path, &to).unwrap();
        }
    }
}

/// A crashed chaos campaign written by an earlier build of the same
/// schemas — `reorder campaign --hosts 40 --shards 4 --samples 3
/// --seed 1 --chaos 20% --jsonl --workers 1 --inflight 1 --telemetry
/// summary --fail-after-shards 2`, so a checkpoint with shards 1 and 2
/// completed and a populated failure taxonomy, plus three JSONL parts
/// — resumes to the bytes of a fresh run of the same plan. A reader
/// change that refuses or misreads what an earlier build wrote fails
/// here.
#[test]
fn a_checkpoint_an_earlier_build_wrote_resumes_to_identical_bytes() {
    let spec = CampaignSpec {
        hosts: 40,
        shards: 4,
        samples: 3,
        seed: 1,
        chaos_ppm: 200_000,
        jsonl: true,
        ..CampaignSpec::default()
    };
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_chaos_crash");
    let stored = Checkpoint::load(&checkpoint_path(&fixture)).expect("the fixture loads");
    assert_eq!(stored.spec, spec);
    assert_eq!(stored.completed.iter().copied().collect::<Vec<_>>(), [1, 2]);
    assert!(!stored.agg.summary.failure_taxonomy.is_empty());

    let dir = tmpdir("fixture");
    copy_tree(&fixture, &dir);
    let resumed = resume(&dir, &opts(), &runner()).expect("resume of the fixture");
    assert!(!resumed.interrupted && resumed.failed.is_empty());
    assert_eq!((resumed.resumed, resumed.completed_now), (2, 2));

    let fresh_dir = tmpdir("fixture_fresh");
    let fresh = start(&fresh_dir, spec, &opts(), &runner()).expect("fresh run");
    for (what, a, b) in [
        ("summary.txt", &resumed.summary_path, &fresh.summary_path),
        ("campaign.jsonl", &resumed.jsonl_path, &fresh.jsonl_path),
    ] {
        let (a, b) = (a.as_deref().expect(what), b.as_deref().expect(what));
        assert!(
            read(a) == read(b),
            "{what} differs after resuming the fixture"
        );
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&fresh_dir);
}
