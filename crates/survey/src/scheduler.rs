//! Layer 2: the sharded, work-stealing scheduler.
//!
//! Hosts are dealt round-robin across one shard (a deque) per worker.
//! Each worker drains its own shard from the front; when empty it
//! steals from the *back* of the other shards, so a shard that drew
//! several slow scenarios (wide load balancers, long transfers) is
//! relieved by idle workers instead of straggling the campaign.
//!
//! Simulations are single-threaded and `!Send`, so a job receives only
//! its *index* and builds everything it needs on its worker.
//!
//! One entry point, [`run`]. Every worker folds each job into a
//! worker-local state, and the states come back in worker-index order
//! once the run ends — correct only when the fold is order-independent
//! (the aggregation layer's commutative-monoid contract), because work
//! stealing makes the job→worker assignment nondeterministic. An
//! optional ordered consumer also receives every job's result **in
//! job-index order**, regardless of completion order, via a reorder
//! buffer on the calling thread — required when an ordered sink (JSONL,
//! per-host tables, a gap sweep's rows) is attached. Without one there
//! is no channel, no reorder buffer and no consuming thread.
//!
//! Every run reports per-worker counters ([`WorkerStats`]: tasks,
//! steal attempts/successes, busy vs idle nanoseconds) and accepts a
//! [`RunProbe`] — the live observation surface a progress heartbeat
//! reads while the run is in flight. Timing is opt-in via the probe:
//! an untimed run never reads a clock in the worker loop.

use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::panic;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

/// One worker's scheduler counters for a finished run. Integer state:
/// summing any partition of workers gives the same totals, matching
/// the telemetry layer's mergeable-monoid contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed (own shard + stolen).
    pub tasks: u64,
    /// Steal probes: locked peeks at another worker's shard, whether
    /// or not a job came back.
    pub steal_attempts: u64,
    /// Jobs executed after being stolen from another worker's shard.
    pub steals: u64,
    /// Nanoseconds spent executing jobs (zero when the run's
    /// [`RunProbe`] was untimed).
    pub busy_ns: u64,
    /// Wall nanoseconds minus busy nanoseconds: lock waits, steal
    /// probes and channel sends (zero when untimed).
    pub idle_ns: u64,
    /// Worker-thread wall nanoseconds, spawn to exit (zero when
    /// untimed).
    pub wall_ns: u64,
}

/// Counters the pool reports after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed after being stolen from another worker's shard
    /// (the sum of [`WorkerStats::steals`]).
    pub steals: u64,
    /// True when the ordered consumer broke the run off early; trailing
    /// jobs were skipped or discarded.
    pub aborted: bool,
    /// Per-worker counters, in worker-index order.
    pub per_worker: Vec<WorkerStats>,
}

/// Live observation surface for an in-flight run, shared between the
/// workers and whoever watches them (the `--progress` heartbeat).
/// Workers bump [`RunProbe::done`] after every job; a *timed* probe
/// additionally makes each worker read the clock around every job,
/// publish its running busy time, and report busy/idle/wall splits in
/// its [`WorkerStats`]. [`RunProbe::disabled`] costs one relaxed
/// atomic increment per job and never a syscall.
#[derive(Debug)]
pub struct RunProbe {
    timed: bool,
    /// Jobs completed so far, across all workers.
    pub done: AtomicU64,
    busy_ns: Vec<AtomicU64>,
}

impl RunProbe {
    /// A probe for up to `workers` workers. `timed` turns on per-job
    /// clock reads (busy/idle accounting and live utilization).
    pub fn new(timed: bool, workers: usize) -> RunProbe {
        RunProbe {
            timed,
            done: AtomicU64::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The no-observation probe: untimed, no per-worker slots.
    pub fn disabled() -> RunProbe {
        RunProbe::new(false, 0)
    }

    /// Whether workers time their jobs.
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// Worker `w`'s published busy nanoseconds so far (0 when untimed
    /// or out of range).
    pub fn busy_ns(&self, w: usize) -> u64 {
        self.busy_ns
            .get(w)
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Per-worker slots allocated.
    pub fn slots(&self) -> usize {
        self.busy_ns.len()
    }

    fn publish_busy(&self, w: usize, ns: u64) {
        if let Some(slot) = self.busy_ns.get(w) {
            slot.store(ns, Ordering::Relaxed);
        }
    }
}

/// Resolve a requested worker count: 0 means "all available cores".
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Lock a shard. No job runs under a shard lock, so a poisoned lock
/// still guards a consistent deque; recover it rather than panic.
fn lock(shard: &Mutex<VecDeque<usize>>) -> MutexGuard<'_, VecDeque<usize>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Pop the next job index for worker `w`: own shard first (front),
/// then steal from the other shards (back), counting probes and
/// successes into `st`.
fn next_job(w: usize, shards: &[Mutex<VecDeque<usize>>], st: &mut WorkerStats) -> Option<usize> {
    if let Some(i) = lock(&shards[w]).pop_front() {
        return Some(i);
    }
    let workers = shards.len();
    for v in 1..workers {
        st.steal_attempts += 1;
        let got = lock(&shards[(w + v) % workers]).pop_back();
        if got.is_some() {
            st.steals += 1;
            return got;
        }
    }
    None
}

/// Deal job indices round-robin: shard w holds indices ≡ w (mod workers).
fn deal_shards(jobs: usize, workers: usize) -> Vec<Mutex<VecDeque<usize>>> {
    let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    for i in 0..jobs {
        deques[i % workers].push_back(i);
    }
    deques.into_iter().map(Mutex::new).collect()
}

/// Run `jobs` indices on `workers` threads (0 = all cores; never more
/// threads than jobs), folding every job into a **worker-local** state.
///
/// `mk_worker` runs once on each worker thread — receiving the worker
/// index — and returns `(local, state)`: `local` is worker-local
/// scratch that never leaves the thread (e.g. a `!Send`
/// [`reorder_core::scenario::ScenarioPool`]), `state` is the fold
/// accumulator handed back at the end. `step` executes job `i`, folds
/// it into `state` and returns its result. The result must stay a pure
/// function of the index — worker state may only affect *how fast* it
/// is produced, never *what* it is — or the order-independence
/// guarantee means nothing; the campaign determinism suite asserts this
/// by comparing pooled, fresh, sharded and differently-parallel runs
/// byte for byte.
///
/// With `ordered` attached, every result is also fed to it **in index
/// order**; it may return [`ControlFlow::Break`] to abort the run early
/// (e.g. a failed sink): queued shards are drained, the workers stop,
/// and remaining results are discarded. Without it each result is
/// dropped on its worker. `probe` is the live observation surface (see
/// [`RunProbe`]).
///
/// Returns the states in worker-index order plus the pool counters,
/// including per-worker [`WorkerStats`]. A panicking job panics here
/// with its own payload once the other workers have stopped.
pub fn run<L, S, R, F, G, C>(
    jobs: usize,
    workers: usize,
    mk_worker: F,
    step: G,
    ordered: Option<C>,
    probe: &RunProbe,
) -> (Vec<S>, PoolStats)
where
    S: Send,
    R: Send,
    F: Fn(usize) -> (L, S) + Sync,
    G: Fn(&mut L, &mut S, usize) -> R + Sync,
    C: FnMut(usize, R) -> ControlFlow<()>,
{
    let workers = resolve_workers(workers).min(jobs.max(1));
    let shards = deal_shards(jobs, workers);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let tx = ordered.is_some().then_some(tx);

    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tx = tx.clone();
                let (shards, mk_worker, step) = (&shards, &mk_worker, &step);
                s.spawn(move || {
                    let (mut local, mut state) = mk_worker(w);
                    let mut st = WorkerStats::default();
                    // reorder-lint: allow(wall-clock, worker busy/idle accounting; scheduler telemetry never feeds report bytes)
                    let born = probe.timed().then(Instant::now);
                    while let Some(i) = next_job(w, shards, &mut st) {
                        let r = if born.is_some() {
                            // reorder-lint: allow(wall-clock, per-task busy-time sample; telemetry-only)
                            let t = Instant::now();
                            let r = step(&mut local, &mut state, i);
                            st.busy_ns += t.elapsed().as_nanos() as u64;
                            probe.publish_busy(w, st.busy_ns);
                            r
                        } else {
                            step(&mut local, &mut state, i)
                        };
                        st.tasks += 1;
                        probe.done.fetch_add(1, Ordering::Relaxed);
                        if let Some(tx) = &tx {
                            if tx.send((i, r)).is_err() {
                                break;
                            }
                        }
                    }
                    if let Some(t0) = born {
                        st.wall_ns = t0.elapsed().as_nanos() as u64;
                        st.idle_ns = st.wall_ns.saturating_sub(st.busy_ns);
                    }
                    (state, st)
                })
            })
            .collect();
        drop(tx);

        let aborted = ordered.is_some_and(|consume| consume_in_order(rx, consume, &shards));

        let mut states = Vec::with_capacity(workers);
        let mut per_worker = Vec::with_capacity(workers);
        for handle in handles {
            match handle.join() {
                Ok((state, st)) => {
                    states.push(state);
                    per_worker.push(st);
                }
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        let stats = PoolStats {
            workers,
            steals: per_worker.iter().map(|s| s.steals).sum(),
            aborted,
            per_worker,
        };
        (states, stats)
    })
}

/// Release results, which arrive in completion order, to `consume` in
/// index order. The pending buffer is bounded by the in-flight
/// disorder window — O(jobs) worst case, O(workers) typical. Returns
/// whether `consume` broke the run off.
fn consume_in_order<R>(
    rx: mpsc::Receiver<(usize, R)>,
    mut consume: impl FnMut(usize, R) -> ControlFlow<()>,
    shards: &[Mutex<VecDeque<usize>>],
) -> bool {
    let mut pending: BTreeMap<usize, R> = BTreeMap::new();
    let mut next = 0usize;
    for (i, r) in &rx {
        pending.insert(i, r);
        while let Some(r) = pending.remove(&next) {
            next += 1;
            if consume(next - 1, r).is_break() {
                // Stop the workers promptly: drain the queued shards
                // (so nothing further is popped); dropping `rx` on
                // return makes in-flight sends fail.
                for shard in shards {
                    lock(shard).clear();
                }
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// No ordered consumer (`None` still needs a concrete closure type).
    fn unordered<R>() -> Option<fn(usize, R) -> ControlFlow<()>> {
        None
    }

    /// Run `jobs` jobs returning their index through an ordered
    /// consumer that records what it saw.
    fn ordered_indices(jobs: usize, workers: usize) -> (Vec<(usize, usize)>, PoolStats) {
        let mut seen = Vec::new();
        let (_, stats) = run(
            jobs,
            workers,
            |_| ((), ()),
            |_, _, i| i * 3,
            Some(|i, r| {
                seen.push((i, r));
                ControlFlow::Continue(())
            }),
            &RunProbe::disabled(),
        );
        (seen, stats)
    }

    #[test]
    fn consumes_every_job_in_order() {
        for workers in [1, 2, 4, 7] {
            let (seen, stats) = ordered_indices(100, workers);
            assert_eq!(seen.len(), 100);
            assert!(seen
                .iter()
                .enumerate()
                .all(|(k, &(i, r))| k == i && r == i * 3));
            assert!(stats.workers <= workers.max(1));
            assert!(!stats.aborted);
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let (states, stats) = run(
            0,
            4,
            |_| ((), 7u64),
            |_, _, _| panic!("no jobs"),
            Some(|_, _: ()| -> ControlFlow<()> { panic!("no jobs to consume") }),
            &RunProbe::disabled(),
        );
        assert_eq!(states, vec![7]);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn workers_cap_at_job_count() {
        let (_, stats) = ordered_indices(2, 16);
        assert_eq!(stats.workers, 2);
    }

    /// 40 jobs over 2 workers where every even index sleeps 2 ms. With
    /// round-robin dealing, shard 0 gets all the slow jobs, so worker 1
    /// must steal some of them.
    fn straggler_steals(ordered: bool) -> PoolStats {
        let (_, stats) = run(
            40,
            2,
            |_| ((), ()),
            |_, _, i| {
                if i % 2 == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            },
            ordered.then_some(|_, ()| ControlFlow::Continue(())),
            &RunProbe::disabled(),
        );
        stats
    }

    #[test]
    fn stealing_relieves_a_straggling_shard() {
        let stats = straggler_steals(true);
        if stats.workers == 2 {
            assert!(stats.steals > 0, "expected steals, got {stats:?}");
        }
    }

    #[test]
    fn break_aborts_promptly() {
        // Break on the third result: the pool must stop without
        // consuming or running the rest, and report the abort. Running
        // all 500 one-millisecond jobs would take 4 workers ~125 ms,
        // far longer than the break needs to reach them.
        let mut consumed = 0usize;
        let (_, stats) = run(
            500,
            4,
            |_| ((), ()),
            |_, _, i| {
                std::thread::sleep(Duration::from_millis(1));
                i
            },
            Some(|_, _| {
                consumed += 1;
                if consumed == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }),
            &RunProbe::disabled(),
        );
        assert!(stats.aborted);
        assert_eq!(consumed, 3);
        let tasks: u64 = stats.per_worker.iter().map(|s| s.tasks).sum();
        assert!(tasks < 500, "workers ran all {tasks} jobs after the break");
    }

    #[test]
    #[should_panic(expected = "job 5 exploded")]
    fn panicking_job_reraises_its_own_payload() {
        run(
            20,
            2,
            |_| ((), ()),
            |_, _, i| {
                if i == 5 {
                    panic!("job {i} exploded");
                }
                i
            },
            Some(|_, _| ControlFlow::Continue(())),
            &RunProbe::disabled(),
        );
    }

    #[test]
    fn resolve_workers_auto() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn per_worker_stats_account_for_every_job() {
        let probe = RunProbe::new(true, 3);
        let (_, stats) = run(
            60,
            3,
            |_| ((), ()),
            |_, _, i| i,
            Some(|_, _| ControlFlow::Continue(())),
            &probe,
        );
        assert_eq!(stats.per_worker.len(), stats.workers);
        let tasks: u64 = stats.per_worker.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, 60, "every job attributed to exactly one worker");
        let steals: u64 = stats.per_worker.iter().map(|s| s.steals).sum();
        assert_eq!(steals, stats.steals);
        assert_eq!(probe.done.load(Ordering::Relaxed), 60);
        for st in &stats.per_worker {
            assert!(st.wall_ns >= st.busy_ns, "wall covers busy: {st:?}");
            assert_eq!(st.idle_ns, st.wall_ns - st.busy_ns);
        }
    }

    #[test]
    fn untimed_probe_reports_zero_ns() {
        let (_, stats) = ordered_indices(20, 2);
        for st in &stats.per_worker {
            assert_eq!(st.busy_ns, 0);
            assert_eq!(st.wall_ns, 0);
        }
        // Task and steal counters are always on.
        assert_eq!(stats.per_worker.iter().map(|s| s.tasks).sum::<u64>(), 20);
    }

    #[test]
    fn mk_worker_receives_distinct_indices() {
        let seen: Vec<Mutex<u64>> = (0..4).map(|_| Mutex::new(0)).collect();
        let seen_ref = &seen;
        run(
            40,
            4,
            move |w| {
                *seen_ref[w].lock().unwrap() += 1;
                ((), ())
            },
            |_, _, i| i,
            unordered(),
            &RunProbe::disabled(),
        );
        let counts: Vec<u64> = seen.iter().map(|m| *m.lock().unwrap()).collect();
        assert!(counts.iter().all(|&c| c <= 1), "index reuse: {counts:?}");
    }

    #[test]
    fn folded_covers_every_job_exactly_once() {
        for workers in [1, 2, 4, 7] {
            let (states, stats) = run(
                100,
                workers,
                |_| ((), Vec::new()),
                |_, seen: &mut Vec<usize>, i| seen.push(i),
                unordered(),
                &RunProbe::disabled(),
            );
            assert_eq!(states.len(), stats.workers);
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
            assert!(!stats.aborted);
        }
    }

    #[test]
    fn ordered_run_still_folds_every_job_once() {
        for workers in [1, 2, 4, 7] {
            let mut consumed = Vec::new();
            let (states, stats) = run(
                100,
                workers,
                |_| ((), Vec::new()),
                |_, seen: &mut Vec<usize>, i| {
                    seen.push(i);
                    i
                },
                Some(|i, r| {
                    consumed.push((i, r));
                    ControlFlow::Continue(())
                }),
                &RunProbe::disabled(),
            );
            assert_eq!(states.len(), stats.workers);
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
            assert_eq!(consumed, (0..100).map(|i| (i, i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn folded_zero_jobs_returns_initial_states() {
        let (states, stats) = run(
            0,
            4,
            |_| ((), 7u64),
            |_, _, _| panic!("no jobs"),
            unordered::<()>(),
            &RunProbe::disabled(),
        );
        assert_eq!(states, vec![7]);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn folded_steals_relieve_stragglers() {
        let stats = straggler_steals(false);
        if stats.workers == 2 {
            assert!(stats.steals > 0, "expected steals, got {stats:?}");
        }
    }

    #[test]
    fn folded_order_independent_sum_matches_serial() {
        // An order-independent fold (integer sum) must be invariant
        // across worker counts — the aggregation contract in miniature.
        let serial: u64 = (0..500u64).map(|i| i * i).sum();
        for workers in [1, 3, 8] {
            let (states, _) = run(
                500,
                workers,
                |_| ((), 0u64),
                |_, acc, i| *acc += (i as u64) * (i as u64),
                unordered(),
                &RunProbe::disabled(),
            );
            assert_eq!(states.into_iter().sum::<u64>(), serial);
        }
    }

    #[test]
    fn folded_timed_probe_publishes_busy_ns() {
        let probe = RunProbe::new(true, 2);
        let (_, stats) = run(
            10,
            2,
            |_| ((), ()),
            |_, _, _| std::thread::sleep(Duration::from_micros(500)),
            unordered(),
            &probe,
        );
        let busy: u64 = stats.per_worker.iter().map(|s| s.busy_ns).sum();
        assert!(busy > 0, "timed run must accumulate busy time");
        let published: u64 = (0..probe.slots()).map(|w| probe.busy_ns(w)).sum();
        assert_eq!(published, busy, "final published busy matches stats");
    }
}
