//! Running one CLI invocation and accounting for it.
//!
//! CPU time is the growth of this process's reaped-children time
//! (`cutime + cstime` in `/proc/self/stat`), which covers the child and
//! every descendant it reaped in turn, the campaign's worker processes
//! included. Peak memory is the largest `VmHWM` of any process in the
//! child's tree, polled from `/proc` while it runs. (The kernel's own
//! `ru_maxrss` is no substitute: a child spawned without copying memory
//! inherits this process's high-water mark until it execs, so it would
//! report the benchmark's footprint whenever that is the larger.)

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How often the process tree's memory is sampled.
const POLL: Duration = Duration::from_millis(10);
/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// What one finished invocation cost and printed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub status: ExitStatus,
    /// Spawn to reap.
    pub wall_s: f64,
    /// User plus system CPU of the process tree.
    pub cpu_s: f64,
    /// Largest resident-set high-water mark seen in the process tree, KiB.
    pub maxrss_kb: u64,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

impl Outcome {
    /// The exit code, or `None` when a signal ended the process.
    pub fn code(&self) -> Option<i32> {
        self.status.code()
    }

    /// A one-line reason for a failed expectation, with stderr's tail.
    pub fn describe(&self) -> String {
        let tail: Vec<&str> = self.stderr.lines().rev().take(2).collect();
        format!(
            "{} (stderr: {})",
            self.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        )
    }
}

/// The fields of a `/proc/<pid>/stat` line after the command name, which
/// may itself hold spaces and parentheses.
fn stat_fields(stat: &str) -> Vec<&str> {
    stat.rsplit_once(')')
        .map_or_else(Vec::new, |(_, rest)| rest.split_whitespace().collect())
}

/// CPU seconds of this process's reaped children so far.
fn reaped_children_cpu_s() -> Result<f64, String> {
    let stat = fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields 16 and 17 of the line, counted from the pid, are cutime
    // and cstime; the slice starts at field 3.
    let f = stat_fields(&stat);
    let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<u64>().ok());
    match (ticks(13), ticks(14)) {
        (Some(u), Some(s)) => Ok((u + s) as f64 / USER_HZ),
        _ => Err("unreadable /proc/self/stat".into()),
    }
}

/// Parent pid from a process's `/proc/<pid>/stat`; `None` once it has gone.
fn parent_of(pid: u32) -> Option<u32> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    stat_fields(&stat).get(1)?.parse().ok()
}

/// Every pid in `/proc`, ascending, so parents come before children.
fn pids() -> Vec<u32> {
    let mut pids: Vec<u32> = fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect();
    pids.sort_unstable();
    pids
}

/// `VmHWM` of `pid` in KiB; 0 once it has gone.
fn vm_hwm_kb(pid: u32) -> u64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// Sample the tree under `root` every [`POLL`] until `stop` hangs up;
/// return the largest `VmHWM` seen. Each pid's parent is read once,
/// when it first appears, so a sample costs a directory listing plus
/// one read per process in the tree.
fn watch_peak_rss(root: u32, stop: &mpsc::Receiver<()>) -> u64 {
    let mut in_tree = BTreeMap::from([(root, true)]);
    let mut peak = 0;
    loop {
        for pid in pids() {
            if !in_tree.contains_key(&pid) {
                let member = parent_of(pid).is_some_and(|pp| in_tree.get(&pp) == Some(&true));
                in_tree.insert(pid, member);
            }
        }
        for (&pid, _) in in_tree.iter().filter(|(_, &member)| member) {
            peak = peak.max(vm_hwm_kb(pid));
        }
        if stop.recv_timeout(POLL) != Err(RecvTimeoutError::Timeout) {
            return peak;
        }
    }
}

/// Run `exe args` to completion with stdout and stderr captured in
/// files under `scratch` (so no pipe can fill up and stall the child),
/// and account for it.
pub fn run(exe: &Path, args: &[String], scratch: &Path) -> Result<Outcome, String> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    let create = |p: &Path| File::create(p).map_err(|e| format!("creating {}: {e}", p.display()));
    let (out, err) = (create(&out_path)?, create(&err_path)?);
    let cpu_before = reaped_children_cpu_s()?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let pid = child.id();
    let (stop, stopped) = mpsc::channel::<()>();
    let (status, wall_s, maxrss_kb) = std::thread::scope(|s| {
        let watcher = s.spawn(move || watch_peak_rss(pid, &stopped));
        let status = child.wait();
        let wall_s = started.elapsed().as_secs_f64();
        drop(stop);
        (status, wall_s, watcher.join())
    });
    let status = status.map_err(|e| format!("waiting for {}: {e}", exe.display()))?;
    let maxrss_kb = maxrss_kb.map_err(|_| "the memory watcher panicked".to_string())?;
    let cpu_s = reaped_children_cpu_s()? - cpu_before;
    let read = |p: &Path| fs::read(p).map_err(|e| format!("reading {}: {e}", p.display()));
    let stdout = read(&out_path)?;
    let stderr = String::from_utf8_lossy(&read(&err_path)?).into_owned();
    Ok(Outcome {
        status,
        wall_s,
        cpu_s,
        maxrss_kb,
        stdout,
        stderr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_skip_a_command_name_with_spaces() {
        let f = stat_fields("42 (a b) c) S 7 42 42 0 -1");
        assert_eq!(f[..2], ["S", "7"]);
        assert!(stat_fields("garbage").is_empty());
    }

    #[test]
    fn accounts_for_a_child_and_its_descendants() {
        let dir =
            std::env::temp_dir().join(format!("reorder_benchmark_child_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // The shell forks a grandchild that burns CPU and lives long
        // enough to be sampled; its time and memory must count.
        let args = [
            "-c".to_string(),
            "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done & wait; echo done; exit 3"
                .to_string(),
        ];
        let out = run(Path::new("/bin/sh"), &args, &dir).expect("runs");
        assert_eq!(out.code(), Some(3));
        assert_eq!(out.stdout, b"done\n");
        assert!(out.cpu_s > 0.0, "grandchild CPU is counted: {}", out.cpu_s);
        assert!(out.maxrss_kb > 0);
        assert!(
            out.wall_s + 0.02 >= out.cpu_s,
            "{} vs {}",
            out.wall_s,
            out.cpu_s
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn this_process_is_visible_in_proc() {
        let me = std::process::id();
        assert!(pids().contains(&me));
        assert!(parent_of(me).is_some());
        assert!(vm_hwm_kb(me) > 0);
        assert_eq!(vm_hwm_kb(u32::MAX), 0);
        assert_eq!(parent_of(u32::MAX), None);
    }
}
