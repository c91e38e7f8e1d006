//! Layer 4a: sharded, mergeable streaming aggregation.
//!
//! An aggregator absorbs [`HostReport`]s one at a time and keeps only
//! O(1) state per breakdown key: merged `(reordered, total)` counts,
//! order-independent mean/CI via [`reorder_core::stats::Moments`], and
//! a mergeable quantile sketch ([`reorder_core::stats::QuantileSketch`])
//! over per-host rates. Nothing per-sample is ever retained.
//!
//! Since the sharded-aggregation refactor every piece of summary state
//! is a **commutative monoid**: integer counters, integer-state
//! sketches, and fixed-point `Moments`. Absorbing reports in any order
//! — or folding disjoint subsets into separate [`ShardAggregator`]s
//! and merging — produces bit-identical state. That law is what lets
//! every campaign build its summary on the workers instead of through
//! the id-order reorder buffer (each worker folds the hosts it happened
//! to run; the final merge is associative), and it is the persistence
//! primitive for checkpoint/resume: a shard's summary can be
//! serialized, reloaded and merged losslessly.

use crate::pipeline::{HostOutcome, HostReport};
use reorder_core::jsonx::{self, Object};
use reorder_core::metrics::ReorderEstimate;
use reorder_core::stats::{Moments, QuantileSketch, SKETCH_RELATIVE_ERROR};
use reorder_core::techniques::IpidVerdict;
use reorder_core::telemetry::intern_label;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serialize a pooled estimate as the two-element array the checkpoint
/// format uses: `[reordered,total]`.
fn est_json(e: &ReorderEstimate) -> String {
    format!("[{},{}]", e.reordered, e.total)
}

/// Parse an [`est_json`] pair.
fn est_from_json(raw: &str) -> Result<ReorderEstimate, String> {
    let [reordered, total] = jsonx::ints(raw)?;
    estimate(reordered, total)
}

/// A restored estimate, rejecting `reordered > total` (the invariant
/// [`ReorderEstimate::new`] asserts) instead of panicking on corrupt
/// input.
fn estimate(reordered: usize, total: usize) -> Result<ReorderEstimate, String> {
    if reordered > total {
        return Err(format!("estimate {reordered}/{total} exceeds its total"));
    }
    Ok(ReorderEstimate { reordered, total })
}

/// Read a label-keyed map (a breakdown or a failure taxonomy), each
/// entry through `read`, interning the labels.
fn label_map<T>(
    raw: &str,
    read: impl Fn(&str) -> Result<T, String>,
) -> Result<BTreeMap<&'static str, T>, String> {
    let mut map = BTreeMap::new();
    for &(key, val) in Object::parse(raw)?.members() {
        map.insert(intern_label(key), read(val)?);
    }
    Ok(map)
}

/// Upper bucket bounds of [`RateHistogram`] (a first bucket catches
/// exact zero). Chosen to resolve the Fig. 5 range: most hosts near
/// zero, a tail out to tens of percent.
pub const RATE_BUCKETS: [f64; 8] = [0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0];

/// Fixed-bucket histogram over per-host reordering rates — the
/// streaming stand-in for the Fig. 5 CDF.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RateHistogram {
    zero: u64,
    counts: [u64; RATE_BUCKETS.len()],
    /// NaN inputs, quarantined: every `NaN <= bound` comparison is
    /// false, so without this counter a NaN rate would fall through
    /// the bucket scan into the top (25%, 100%] bucket and silently
    /// fatten the heavy-reordering tail.
    nan: u64,
}

impl RateHistogram {
    /// Fold in one host's rate. A NaN rate (no upstream caller
    /// produces one today — pushes are gated on `total > 0`) is
    /// counted in [`RateHistogram::nans`] rather than mis-bucketed.
    pub fn push(&mut self, rate: f64) {
        if rate.is_nan() {
            self.nan += 1;
            return;
        }
        if rate <= 0.0 {
            self.zero += 1;
            return;
        }
        for (i, &ub) in RATE_BUCKETS.iter().enumerate() {
            if rate <= ub {
                self.counts[i] += 1;
                return;
            }
        }
        self.counts[RATE_BUCKETS.len() - 1] += 1;
    }

    /// Total observations, including quarantined NaN inputs.
    pub fn total(&self) -> u64 {
        self.zero + self.nan + self.counts.iter().sum::<u64>()
    }

    /// Hosts with exactly zero measured reordering.
    pub fn zeros(&self) -> u64 {
        self.zero
    }

    /// NaN rates rejected by [`RateHistogram::push`] — never part of
    /// the bucket rows.
    pub fn nans(&self) -> u64 {
        self.nan
    }

    /// `(label, count)` rows, zero bucket first.
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![("0".to_string(), self.zero)];
        let mut lo = 0.0;
        for (i, &ub) in RATE_BUCKETS.iter().enumerate() {
            rows.push((
                format!("({:.1}%, {:.1}%]", lo * 100.0, ub * 100.0),
                self.counts[i],
            ));
            lo = ub;
        }
        rows
    }

    /// The compatibility view: derive the fixed-bucket histogram from a
    /// [`QuantileSketch`]. Each sketch bucket's count lands in the rate
    /// bucket containing its representative value, so a derived count
    /// can differ from a directly-pushed one only for observations
    /// within the sketch's ε of a bucket edge. The summary renders this
    /// view; the sketch is the source of truth that survives shard
    /// merges (fixed buckets cannot).
    pub fn from_sketch(sketch: &QuantileSketch) -> RateHistogram {
        // Negative rates cannot occur upstream, but [`RateHistogram::push`]
        // files `rate <= 0` under the zero bucket — the view keeps that
        // convention for any negative sketch mass.
        let neg = sketch.count()
            - sketch.zeros()
            - sketch.positive_buckets().map(|(_, c)| c).sum::<u64>();
        let mut h = RateHistogram {
            zero: sketch.zeros() + neg,
            counts: [0; RATE_BUCKETS.len()],
            nan: sketch.nans(),
        };
        'bucket: for (rep, count) in sketch.positive_buckets() {
            for (i, &ub) in RATE_BUCKETS.iter().enumerate() {
                if rep <= ub {
                    h.counts[i] += count;
                    continue 'bucket;
                }
            }
            h.counts[RATE_BUCKETS.len() - 1] += count;
        }
        h
    }
}

/// Per-breakdown-key accumulator. Every field is order-independent
/// (integer counts or fixed-point [`Moments`]), so group rows merge
/// exactly across shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupAgg {
    /// Hosts in the group.
    pub hosts: u64,
    /// Pooled forward estimate (sums of counts — order-independent).
    pub fwd: ReorderEstimate,
    /// Pooled reverse estimate.
    pub rev: ReorderEstimate,
    /// Order-independent stats over per-host forward rates.
    pub fwd_rates: Moments,
}

impl GroupAgg {
    fn absorb(&mut self, r: &HostReport) {
        self.hosts += 1;
        self.fwd = self.fwd.merge(&r.fwd);
        self.rev = self.rev.merge(&r.rev);
        if r.fwd.total > 0 {
            self.fwd_rates.push(r.fwd.rate());
        }
    }

    fn merge(&mut self, other: &GroupAgg) {
        self.hosts += other.hosts;
        self.fwd = self.fwd.merge(&other.fwd);
        self.rev = self.rev.merge(&other.rev);
        self.fwd_rates = self.fwd_rates.merge(&other.fwd_rates);
    }

    /// Serialize the exact group state (integer counts and fixed-point
    /// moments) for the campaign checkpoint format.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hosts\":{},\"fwd\":{},\"rev\":{},\"fwd_rates\":{}}}",
            self.hosts,
            est_json(&self.fwd),
            est_json(&self.rev),
            self.fwd_rates.to_json()
        )
    }

    /// Parse a [`GroupAgg::to_json`] document back bit-exactly.
    pub fn from_json(text: &str) -> Result<GroupAgg, String> {
        let obj = Object::parse(text)?;
        Ok(GroupAgg {
            hosts: obj.int("hosts")?,
            fwd: est_from_json(obj.raw("fwd")?)?,
            rev: est_from_json(obj.raw("rev")?)?,
            fwd_rates: Moments::from_json(obj.raw("fwd_rates")?)?,
        })
    }
}

/// Per-failure-class accumulator: how many hosts landed in one
/// [`HostErrorKind`] bucket, split by terminal severity and broken
/// down by path mechanism and OS personality. Integer counters only,
/// so shards merge exactly.
///
/// [`HostErrorKind`]: reorder_core::HostErrorKind
#[derive(Debug, Clone, Default)]
pub struct FailureAgg {
    /// Hosts classified under this failure kind (failed + degraded).
    pub hosts: u64,
    /// Hosts that produced no usable measurement at all.
    pub failed: u64,
    /// Hosts that completed with partial results.
    pub degraded: u64,
    /// Mechanism label → hosts of this failure kind on that mechanism.
    pub by_mechanism: BTreeMap<&'static str, u64>,
    /// Personality name → hosts of this failure kind with that stack.
    pub by_personality: BTreeMap<&'static str, u64>,
}

impl FailureAgg {
    fn absorb(&mut self, r: &HostReport, failed: bool) {
        self.hosts += 1;
        if failed {
            self.failed += 1;
        } else {
            self.degraded += 1;
        }
        *self
            .by_mechanism
            .entry(r.spec.mechanism.label())
            .or_default() += 1;
        *self
            .by_personality
            .entry(r.spec.personality.name)
            .or_default() += 1;
    }

    fn merge(&mut self, other: &FailureAgg) {
        self.hosts += other.hosts;
        self.failed += other.failed;
        self.degraded += other.degraded;
        for (&key, &n) in &other.by_mechanism {
            *self.by_mechanism.entry(key).or_default() += n;
        }
        for (&key, &n) in &other.by_personality {
            *self.by_personality.entry(key).or_default() += n;
        }
    }

    /// Serialize the exact state for the campaign checkpoint format.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"hosts\":{},\"failed\":{},\"degraded\":{}",
            self.hosts, self.failed, self.degraded
        );
        for (name, map) in [
            ("by_mechanism", &self.by_mechanism),
            ("by_personality", &self.by_personality),
        ] {
            let _ = write!(s, ",\"{name}\":{{");
            for (i, (key, n)) in map.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{key}\":{n}");
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Parse a [`FailureAgg::to_json`] document back bit-exactly.
    pub fn from_json(text: &str) -> Result<FailureAgg, String> {
        let obj = Object::parse(text)?;
        let count = |raw: &str| {
            raw.parse::<u64>()
                .map_err(|_| format!("bad host count `{raw}`"))
        };
        let agg = FailureAgg {
            hosts: obj.int("hosts")?,
            failed: obj.int("failed")?,
            degraded: obj.int("degraded")?,
            by_mechanism: label_map(obj.raw("by_mechanism")?, count)?,
            by_personality: label_map(obj.raw("by_personality")?, count)?,
        };
        if agg.failed.checked_add(agg.degraded) != Some(agg.hosts) {
            return Err(format!(
                "failure class counts {}+{} disagree with hosts {}",
                agg.failed, agg.degraded, agg.hosts
            ));
        }
        Ok(agg)
    }
}

/// Campaign-wide streaming summary.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Hosts surveyed.
    pub hosts: u64,
    /// Hosts with at least one successful measurement round (or, in
    /// amenability-only mode, a verdict).
    pub reachable: u64,
    /// Amenability tallies: amenable / constant-zero / non-monotonic /
    /// probe-failed.
    pub amenable: u64,
    /// Constant-zero IPID verdicts (paper: "likely Linux 2.4").
    pub constant_zero: u64,
    /// Non-monotonic IPID verdicts (paper: "likely load balancers").
    pub non_monotonic: u64,
    /// Amenability probes that failed outright.
    pub probe_failed: u64,
    /// Hosts whose measured fwd or rev rate was nonzero.
    pub reordering_hosts: u64,
    /// Order-independent stats over per-host forward rates.
    pub fwd_rates: Moments,
    /// Order-independent stats over per-host reverse rates.
    pub rev_rates: Moments,
    /// Pooled forward estimate over all samples of all hosts.
    pub fwd_pooled: ReorderEstimate,
    /// Pooled reverse estimate.
    pub rev_pooled: ReorderEstimate,
    /// Pooled reverse estimate of the transfer baseline.
    pub baseline_pooled: ReorderEstimate,
    /// Mergeable quantile sketch over per-host forward rates — the
    /// source of truth for the Fig. 5 CDF points and the rendered rate
    /// histogram (derived via [`RateHistogram::from_sketch`]).
    pub fwd_sketch: QuantileSketch,
    /// Breakdown by measuring technique.
    pub by_technique: BTreeMap<&'static str, GroupAgg>,
    /// Breakdown by OS personality.
    pub by_personality: BTreeMap<&'static str, GroupAgg>,
    /// Breakdown by path mechanism.
    pub by_mechanism: BTreeMap<&'static str, GroupAgg>,
    /// Campaign gap profile: gap µs → pooled forward estimate.
    pub gap_profile: BTreeMap<u64, ReorderEstimate>,
    /// Hosts whose outcome was `Failed` — no usable measurement.
    pub failed: u64,
    /// Hosts whose outcome was `Degraded` — partial results kept.
    pub degraded: u64,
    /// Total failed measurement rounds across all hosts (each host's
    /// JSONL `failures` counter, summed).
    pub failure_rounds: u64,
    /// Failure taxonomy: [`HostErrorKind`] label → per-class breakdown.
    /// Only failed/degraded hosts appear; a clean campaign's taxonomy
    /// is empty.
    ///
    /// [`HostErrorKind`]: reorder_core::HostErrorKind
    pub failure_taxonomy: BTreeMap<&'static str, FailureAgg>,
}

impl CampaignSummary {
    /// Fold in one host's report. Absorption is order-independent
    /// (every field is a commutative monoid), so workers may fold
    /// reports in completion order and still render a byte-identical
    /// summary — [`ShardAggregator`] and the determinism suite build
    /// on exactly this law.
    pub fn absorb(&mut self, r: &HostReport) {
        self.hosts += 1;
        if r.reachable {
            self.reachable += 1;
        }
        match r.verdict {
            Some(IpidVerdict::Amenable) => self.amenable += 1,
            Some(IpidVerdict::ConstantZero) => self.constant_zero += 1,
            Some(IpidVerdict::NonMonotonic) => self.non_monotonic += 1,
            None => self.probe_failed += 1,
        }
        if r.fwd.reordered > 0 || r.rev.reordered > 0 {
            self.reordering_hosts += 1;
        }
        if r.fwd.total > 0 {
            self.fwd_rates.push(r.fwd.rate());
            self.fwd_sketch.push(r.fwd.rate());
        }
        if r.rev.total > 0 {
            self.rev_rates.push(r.rev.rate());
        }
        self.fwd_pooled = self.fwd_pooled.merge(&r.fwd);
        self.rev_pooled = self.rev_pooled.merge(&r.rev);
        if let Some(b) = r.baseline_rev {
            self.baseline_pooled = self.baseline_pooled.merge(&b);
        }
        self.by_technique.entry(r.technique).or_default().absorb(r);
        self.by_personality
            .entry(r.spec.personality.name)
            .or_default()
            .absorb(r);
        self.by_mechanism
            .entry(r.spec.mechanism.label())
            .or_default()
            .absorb(r);
        for &(gap, est) in &r.gap_points {
            let e = self.gap_profile.entry(gap).or_default();
            *e = e.merge(&est);
        }
        self.failure_rounds += r.failures as u64;
        let failed = matches!(r.outcome, HostOutcome::Failed { .. });
        if failed {
            self.failed += 1;
        } else if matches!(r.outcome, HostOutcome::Degraded { .. }) {
            self.degraded += 1;
        }
        if let Some(class) = r.outcome.taxonomy() {
            self.failure_taxonomy
                .entry(class)
                .or_default()
                .absorb(r, failed);
        }
    }

    /// Fold another summary into this one — the associative merge that
    /// combines per-worker [`ShardAggregator`]s (and, cross-process,
    /// per-shard checkpoints) into the campaign total. Merging shard
    /// summaries is bit-identical to absorbing every report into one
    /// summary, in any order; the determinism suite asserts this end
    /// to end.
    pub fn merge(&mut self, other: &CampaignSummary) {
        self.hosts += other.hosts;
        self.reachable += other.reachable;
        self.amenable += other.amenable;
        self.constant_zero += other.constant_zero;
        self.non_monotonic += other.non_monotonic;
        self.probe_failed += other.probe_failed;
        self.reordering_hosts += other.reordering_hosts;
        self.fwd_rates = self.fwd_rates.merge(&other.fwd_rates);
        self.rev_rates = self.rev_rates.merge(&other.rev_rates);
        self.fwd_pooled = self.fwd_pooled.merge(&other.fwd_pooled);
        self.rev_pooled = self.rev_pooled.merge(&other.rev_pooled);
        self.baseline_pooled = self.baseline_pooled.merge(&other.baseline_pooled);
        self.fwd_sketch.merge(&other.fwd_sketch);
        for (&key, g) in &other.by_technique {
            self.by_technique.entry(key).or_default().merge(g);
        }
        for (&key, g) in &other.by_personality {
            self.by_personality.entry(key).or_default().merge(g);
        }
        for (&key, g) in &other.by_mechanism {
            self.by_mechanism.entry(key).or_default().merge(g);
        }
        for (&gap, est) in &other.gap_profile {
            let e = self.gap_profile.entry(gap).or_default();
            *e = e.merge(est);
        }
        self.failed += other.failed;
        self.degraded += other.degraded;
        self.failure_rounds += other.failure_rounds;
        for (&key, f) in &other.failure_taxonomy {
            self.failure_taxonomy.entry(key).or_default().merge(f);
        }
    }

    /// Serialize the exact summary state as one JSON object — every
    /// field an integer, fixed-point moments document, sketch document
    /// or map thereof, so [`CampaignSummary::from_json`] restores state
    /// that merges and renders bit-identically to the original. This is
    /// the `reorder.checkpoint/2` payload; the human table stays in
    /// [`CampaignSummary::render`].
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"hosts\":{},\"reachable\":{},\"amenable\":{},\"constant_zero\":{},\
             \"non_monotonic\":{},\"probe_failed\":{},\"reordering_hosts\":{},\
             \"fwd_rates\":{},\"rev_rates\":{},\"fwd_pooled\":{},\"rev_pooled\":{},\
             \"baseline_pooled\":{},\"fwd_sketch\":{}",
            self.hosts,
            self.reachable,
            self.amenable,
            self.constant_zero,
            self.non_monotonic,
            self.probe_failed,
            self.reordering_hosts,
            self.fwd_rates.to_json(),
            self.rev_rates.to_json(),
            est_json(&self.fwd_pooled),
            est_json(&self.rev_pooled),
            est_json(&self.baseline_pooled),
            self.fwd_sketch.to_json(),
        );
        for (name, map) in [
            ("by_technique", &self.by_technique),
            ("by_personality", &self.by_personality),
            ("by_mechanism", &self.by_mechanism),
        ] {
            let _ = write!(s, ",\"{name}\":{{");
            for (i, (key, g)) in map.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{key}\":{}", g.to_json());
            }
            s.push('}');
        }
        let _ = write!(
            s,
            ",\"failed\":{},\"degraded\":{},\"failure_rounds\":{},\"failure_taxonomy\":{{",
            self.failed, self.degraded, self.failure_rounds
        );
        for (i, (key, f)) in self.failure_taxonomy.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{key}\":{}", f.to_json());
        }
        s.push('}');
        s.push_str(",\"gap_profile\":[");
        for (i, (gap, est)) in self.gap_profile.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{gap},{},{}]", est.reordered, est.total);
        }
        s.push_str("]}");
        s
    }

    /// Parse a [`CampaignSummary::to_json`] document back into the
    /// exact state. Malformed documents are rejected field-by-field;
    /// nothing is defaulted, and counts that contradict each other
    /// are refused: `reachable` or `reordering_hosts` above `hosts`,
    /// verdict tallies that do not sum to `hosts`, `failed + degraded`
    /// above `hosts` or unequal to the failure taxonomy's host total,
    /// or a technique, personality or mechanism breakdown that does
    /// not sum to `hosts`.
    pub fn from_json(text: &str) -> Result<CampaignSummary, String> {
        let obj = Object::parse(text)?;
        let mut sum = CampaignSummary {
            hosts: obj.int("hosts")?,
            reachable: obj.int("reachable")?,
            amenable: obj.int("amenable")?,
            constant_zero: obj.int("constant_zero")?,
            non_monotonic: obj.int("non_monotonic")?,
            probe_failed: obj.int("probe_failed")?,
            reordering_hosts: obj.int("reordering_hosts")?,
            fwd_rates: Moments::from_json(obj.raw("fwd_rates")?)?,
            rev_rates: Moments::from_json(obj.raw("rev_rates")?)?,
            fwd_pooled: est_from_json(obj.raw("fwd_pooled")?)?,
            rev_pooled: est_from_json(obj.raw("rev_pooled")?)?,
            baseline_pooled: est_from_json(obj.raw("baseline_pooled")?)?,
            fwd_sketch: QuantileSketch::from_json(obj.raw("fwd_sketch")?)?,
            by_technique: label_map(obj.raw("by_technique")?, GroupAgg::from_json)?,
            by_personality: label_map(obj.raw("by_personality")?, GroupAgg::from_json)?,
            by_mechanism: label_map(obj.raw("by_mechanism")?, GroupAgg::from_json)?,
            failed: obj.int("failed")?,
            degraded: obj.int("degraded")?,
            failure_rounds: obj.int("failure_rounds")?,
            failure_taxonomy: label_map(obj.raw("failure_taxonomy")?, FailureAgg::from_json)?,
            gap_profile: BTreeMap::new(),
        };
        for row in jsonx::array(obj.raw("gap_profile")?)? {
            let [gap, reordered, total] = jsonx::ints(row)?;
            if sum
                .gap_profile
                .insert(gap as u64, estimate(reordered, total)?)
                .is_some()
            {
                return Err(format!("duplicate gap_profile row for {gap} us"));
            }
        }
        sum.check_counts()?;
        Ok(sum)
    }

    /// The count identities [`CampaignSummary::absorb`] and
    /// [`CampaignSummary::merge`] keep (listed on `from_json`). A
    /// restored summary breaking one was edited or corrupted, and
    /// `render` would subtract past zero on it. Sums are checked, so
    /// no count can wrap.
    fn check_counts(&self) -> Result<(), String> {
        fn sum(counts: impl IntoIterator<Item = u64>) -> Option<u64> {
            counts
                .into_iter()
                .try_fold(0u64, |acc, n| acc.checked_add(n))
        }
        let hosts = self.hosts;
        for (name, n) in [
            ("reachable", self.reachable),
            ("reordering_hosts", self.reordering_hosts),
        ] {
            if n > hosts {
                return Err(format!("{name} {n} exceeds hosts {hosts}"));
            }
        }
        let verdicts = sum([
            self.amenable,
            self.constant_zero,
            self.non_monotonic,
            self.probe_failed,
        ]);
        if verdicts != Some(hosts) {
            return Err(format!(
                "ipid verdicts {}+{}+{}+{} disagree with hosts {hosts}",
                self.amenable, self.constant_zero, self.non_monotonic, self.probe_failed
            ));
        }
        let unfinished = sum([self.failed, self.degraded]).filter(|&n| n <= hosts);
        let Some(unfinished) = unfinished else {
            return Err(format!(
                "failed {} + degraded {} exceed hosts {hosts}",
                self.failed, self.degraded
            ));
        };
        let classified = sum(self.failure_taxonomy.values().map(|f| f.hosts));
        if classified != Some(unfinished) {
            return Err(format!(
                "failure taxonomy hosts disagree with failed + degraded {unfinished}"
            ));
        }
        for (name, map) in [
            ("by_technique", &self.by_technique),
            ("by_personality", &self.by_personality),
            ("by_mechanism", &self.by_mechanism),
        ] {
            if sum(map.values().map(|g| g.hosts)) != Some(hosts) {
                return Err(format!("{name} host counts disagree with hosts {hosts}"));
            }
        }
        Ok(())
    }

    /// Render the summary table (deterministic: every map is a
    /// `BTreeMap`, every float printed with fixed precision).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let rule = "-".repeat(66);
        let _ = writeln!(s, "campaign summary: {} hosts", self.hosts);
        let _ = writeln!(s, "{rule}");
        let _ = writeln!(
            s,
            "reachable: {}   unreachable: {}   reordering observed: {}",
            self.reachable,
            self.hosts - self.reachable,
            self.reordering_hosts
        );
        let _ = writeln!(
            s,
            "ipid verdicts: amenable {}  constant-zero {}  non-monotonic {}  failed {}",
            self.amenable, self.constant_zero, self.non_monotonic, self.probe_failed
        );
        if self.fwd_rates.count() > 0 {
            let (lo, hi) = self.fwd_rates.ci(0.95);
            let _ = writeln!(
                s,
                "fwd rate/host: mean {:.4}% (95% CI [{:.4}%, {:.4}%], n={})   pooled {:.4}% ({}/{})",
                self.fwd_rates.mean() * 100.0,
                lo.max(0.0) * 100.0,
                hi * 100.0,
                self.fwd_rates.count(),
                self.fwd_pooled.rate() * 100.0,
                self.fwd_pooled.reordered,
                self.fwd_pooled.total,
            );
        }
        if self.rev_rates.count() > 0 {
            let _ = writeln!(
                s,
                "rev rate/host: mean {:.4}%   pooled {:.4}% ({}/{})   transfer baseline {:.4}% ({}/{})",
                self.rev_rates.mean() * 100.0,
                self.rev_pooled.rate() * 100.0,
                self.rev_pooled.reordered,
                self.rev_pooled.total,
                self.baseline_pooled.rate() * 100.0,
                self.baseline_pooled.reordered,
                self.baseline_pooled.total,
            );
        }
        if self.fwd_sketch.count() > 0 {
            // Fig. 5 CDF points, read from the sketch: exact to its
            // documented relative error instead of bucket-floor
            // granularity.
            let _ = writeln!(s, "{rule}");
            let mut line = format!(
                "fwd rate/host quantiles (sketch, rel err <= {:.2}%):",
                SKETCH_RELATIVE_ERROR * 100.0
            );
            for (label, q) in [
                ("p25", 0.25),
                ("p50", 0.50),
                ("p75", 0.75),
                ("p90", 0.90),
                ("p99", 0.99),
            ] {
                let v = self.fwd_sketch.quantile(q).unwrap_or(0.0);
                let _ = write!(line, "  {label} {:.4}%", v * 100.0);
            }
            let _ = writeln!(s, "{line}");
            let hist = RateHistogram::from_sketch(&self.fwd_sketch);
            let _ = writeln!(s, "fwd rate histogram (hosts)");
            let max = hist
                .rows()
                .iter()
                .map(|&(_, c)| c)
                .max()
                .unwrap_or(1)
                .max(1);
            for (label, count) in hist.rows() {
                let bar = "#".repeat((count * 40 / max) as usize);
                let _ = writeln!(s, "{label:>16} {count:>7}  {bar}");
            }
        }
        for (title, map) in [
            ("technique", &self.by_technique),
            ("personality", &self.by_personality),
            ("mechanism", &self.by_mechanism),
        ] {
            let _ = writeln!(s, "{rule}");
            let _ = writeln!(
                s,
                "{:<14} {:>7} {:>12} {:>12} {:>12}",
                format!("by {title}"),
                "hosts",
                "fwd pooled",
                "fwd mean",
                "rev pooled"
            );
            for (key, g) in map.iter() {
                let _ = writeln!(
                    s,
                    "{key:<14} {:>7} {:>11.4}% {:>11.4}% {:>11.4}%",
                    g.hosts,
                    g.fwd.rate() * 100.0,
                    g.fwd_rates.mean() * 100.0,
                    g.rev.rate() * 100.0,
                );
            }
        }
        if !self.gap_profile.is_empty() {
            let _ = writeln!(s, "{rule}");
            let _ = writeln!(s, "{:>8} {:>12} {:>12}", "gap(us)", "fwd pooled", "samples");
            for (gap, est) in &self.gap_profile {
                let _ = writeln!(
                    s,
                    "{gap:>8} {:>11.4}% {:>12}",
                    est.rate() * 100.0,
                    est.total
                );
            }
        }
        if !self.failure_taxonomy.is_empty() {
            let _ = writeln!(s, "{rule}");
            let _ = writeln!(
                s,
                "{:<22} {:>7} {:>7} {:>8}",
                "failure taxonomy", "hosts", "failed", "degraded"
            );
            for (class, f) in &self.failure_taxonomy {
                let _ = writeln!(
                    s,
                    "{class:<22} {:>7} {:>7} {:>8}",
                    f.hosts, f.failed, f.degraded
                );
                for (title, map) in [
                    ("mechanisms", &f.by_mechanism),
                    ("personalities", &f.by_personality),
                ] {
                    let mut line = format!("  {title}:");
                    for (key, n) in map.iter() {
                        let _ = write!(line, " {key} {n}");
                    }
                    let _ = writeln!(s, "{line}");
                }
            }
        }
        let _ = writeln!(s, "{rule}");
        let _ = writeln!(
            s,
            "host outcomes: complete {}  degraded {}  failed {}   failed rounds: {}",
            self.hosts - self.degraded - self.failed,
            self.degraded,
            self.failed,
            self.failure_rounds
        );
        s
    }
}

/// One worker's (or one process-shard's) aggregation state: a summary
/// plus the simulator event count of its hosts. Workers fold whichever
/// hosts the work-stealing scheduler
/// hands them; because every summary field merges exactly (see
/// [`CampaignSummary::merge`]), the final fold over shard aggregators
/// is independent of the nondeterministic host-to-worker assignment.
#[derive(Debug, Clone, Default)]
pub struct ShardAggregator {
    /// The shard's streaming summary.
    pub summary: CampaignSummary,
    /// Simulator events dispatched by this shard's hosts.
    pub events: u64,
}

impl ShardAggregator {
    /// Fold in one host's report.
    pub fn absorb(&mut self, r: &HostReport) {
        self.events += r.events;
        self.summary.absorb(r);
    }

    /// Fold another shard's state into this one (associative).
    pub fn merge(&mut self, other: &ShardAggregator) {
        self.events += other.events;
        self.summary.merge(&other.summary);
    }

    /// Serialize the exact shard state — the unit the campaign
    /// orchestrator checkpoints at every shard boundary.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"summary\":{}}}",
            self.events,
            self.summary.to_json()
        )
    }

    /// Parse a [`ShardAggregator::to_json`] document back bit-exactly:
    /// restored state merges and renders identically to the original
    /// (asserted by the checkpoint property suite).
    pub fn from_json(text: &str) -> Result<ShardAggregator, String> {
        let obj = Object::parse(text)?;
        Ok(ShardAggregator {
            events: obj.int("events")?,
            summary: CampaignSummary::from_json(obj.raw("summary")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{survey_host, HostJob};
    use reorder_core::scenario::HostSpec;
    use reorder_tcpstack::HostPersonality;

    #[test]
    fn histogram_rejects_nan_instead_of_top_bucketing() {
        // Regression: `NaN <= 0.0` and every `NaN <= bound` are false,
        // so a NaN rate used to fall through the scan into the top
        // (25%, 100%] bucket — a phantom heavy-reordering host.
        let mut h = RateHistogram::default();
        h.push(f64::NAN);
        assert_eq!(h.nans(), 1);
        assert_eq!(h.zeros(), 0);
        assert_eq!(h.total(), 1);
        assert!(
            h.rows().iter().all(|&(_, c)| c == 0),
            "NaN must not land in any bucket row: {:?}",
            h.rows()
        );
        // Real rates keep bucketing as before around the quarantine.
        h.push(0.5);
        assert_eq!(h.rows().last().unwrap().1, 1);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = RateHistogram::default();
        for r in [0.0, 0.0005, 0.004, 0.02, 0.3, 0.9, 0.0] {
            h.push(r);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.zeros(), 2);
        assert_eq!(h.nans(), 0);
        let rows = h.rows();
        assert_eq!(rows.len(), 1 + RATE_BUCKETS.len());
        assert_eq!(rows[0].1, 2); // zero bucket
        assert_eq!(rows[1].1, 1); // (0, 0.1%]
        assert_eq!(rows[2].1, 1); // (0.1%, 0.5%]
        assert_eq!(rows[4].1, 1); // (1%, 2.5%]
        assert_eq!(rows.last().unwrap().1, 2); // (25%, 100%]
        assert_eq!(rows.iter().map(|&(_, c)| c).sum::<u64>(), 7);
    }

    #[test]
    fn histogram_from_sketch_matches_direct_pushes() {
        // Away from bucket edges the derived view is exact; the rates
        // below sit mid-bucket, far beyond the sketch's 0.39% ε.
        let rates = [0.0, 0.0005, 0.004, 0.02, 0.3, 0.9, 0.0, f64::NAN, 0.07];
        let mut direct = RateHistogram::default();
        let mut sketch = QuantileSketch::new();
        for &r in &rates {
            direct.push(r);
            sketch.push(r);
        }
        let derived = RateHistogram::from_sketch(&sketch);
        assert_eq!(derived, direct);
        assert_eq!(derived.nans(), 1);
    }

    fn reports(n: usize, seed: u64) -> Vec<HostReport> {
        let job = HostJob {
            samples: 4,
            gaps_us: vec![0, 50],
            ..HostJob::default()
        };
        let personalities = [
            HostPersonality::freebsd4(),
            HostPersonality::openbsd3(),
            HostPersonality::linux24(),
        ];
        (0..n)
            .map(|i| {
                let spec = HostSpec {
                    fwd_reorder: 0.05 + 0.03 * (i % 4) as f64,
                    ..HostSpec::clean("agg", personalities[i % 3].clone())
                };
                survey_host(i as u64, &spec, seed + i as u64, &job)
            })
            .collect()
    }

    /// The sharded-merge law end to end: any partition of reports into
    /// shard aggregators, merged in any order, renders the same bytes
    /// as one summary absorbing everything in id order.
    #[test]
    fn shard_merge_renders_identically_to_single_absorb() {
        let rs = reports(18, 900);
        let mut whole = CampaignSummary::default();
        for r in &rs {
            whole.absorb(r);
        }
        for shards in [2usize, 3, 5] {
            let mut parts = vec![ShardAggregator::default(); shards];
            // Deal round-robin AND absorb within each shard in reverse,
            // so neither the partition nor the intra-shard order is the
            // id order.
            for (i, r) in rs.iter().enumerate().rev() {
                parts[i % shards].absorb(r);
            }
            let mut merged = ShardAggregator::default();
            for p in parts.iter().rev() {
                merged.merge(p);
            }
            assert_eq!(merged.summary.hosts, whole.hosts);
            assert_eq!(
                merged.summary.render(),
                whole.render(),
                "{shards} shards must render identically"
            );
            assert_eq!(
                merged.events,
                rs.iter().map(|r| r.events).sum::<u64>(),
                "events must merge"
            );
        }
    }

    /// The checkpoint round-trip law at the unit level: a serialized
    /// shard restores to state whose merge and render are bit-equal.
    #[test]
    fn shard_json_round_trips_exactly() {
        let rs = reports(16, 4242);
        let mut shard = ShardAggregator::default();
        for r in &rs {
            shard.absorb(r);
        }
        let restored =
            ShardAggregator::from_json(&shard.to_json()).expect("shard JSON must parse back");
        assert_eq!(restored.events, shard.events);
        assert_eq!(restored.to_json(), shard.to_json());
        assert_eq!(restored.summary.render(), shard.summary.render());
        // Merging a restored half equals merging the original half.
        let mut via_restored = ShardAggregator::default();
        via_restored.merge(&restored);
        via_restored.merge(&shard);
        let mut via_original = ShardAggregator::default();
        via_original.merge(&shard);
        via_original.merge(&shard);
        assert_eq!(via_restored.to_json(), via_original.to_json());
    }

    #[test]
    fn shard_json_rejects_corruption() {
        let mut shard = ShardAggregator::default();
        for r in reports(6, 77) {
            shard.absorb(&r);
        }
        let good = shard.to_json();
        assert!(ShardAggregator::from_json("{}").is_err());
        assert!(ShardAggregator::from_json(&good.replace("\"events\"", "\"evnts\"")).is_err());
        // An estimate whose reordered count exceeds its total must be
        // rejected, not silently merged (ReorderEstimate's invariant).
        let bad = "{\"events\":0,\"summary\":".to_string()
            + &CampaignSummary::default()
                .to_json()
                .replace("\"fwd_pooled\":[0,0]", "\"fwd_pooled\":[5,2]")
            + "}";
        assert!(ShardAggregator::from_json(&bad).is_err());
        // Two gap-profile rows for one gap: an error, not the last row
        // silently winning.
        let repeated = good.replacen("\"gap_profile\":[[0,", "\"gap_profile\":[[50,", 1);
        assert_ne!(repeated, good);
        assert!(ShardAggregator::from_json(&repeated).is_err());
    }

    /// A chaos campaign's summary nests `hosts` in every group and
    /// failure class and `failed` in every failure class, so a reader
    /// that looked keys up anywhere in the text loaded a nested count
    /// when the top-level member was gone. Each of these documents is
    /// refused instead.
    #[test]
    fn summary_json_refuses_missing_duplicated_and_trailing_members() {
        let cfg = crate::engine::CampaignConfig {
            hosts: 60,
            workers: 1,
            samples: 3,
            baseline: false,
            model: crate::population::PopulationModel {
                chaos_ppm: 300_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let sum = crate::engine::run_campaign(&cfg, None::<&mut Vec<u8>>)
            .expect("no sink")
            .summary;
        assert!(sum.failed > 0 && !sum.failure_taxonomy.is_empty());
        let good = sum.to_json();
        CampaignSummary::from_json(&good).expect("the intact document loads");
        let without_failed = good.replacen(
            &format!(",\"failed\":{},\"degraded\":{},", sum.failed, sum.degraded),
            &format!(",\"degraded\":{},", sum.degraded),
            1,
        );
        let without_hosts = good.replacen(&format!("{{\"hosts\":{},", sum.hosts), "{", 1);
        for (key, doc) in [("failed", &without_failed), ("hosts", &without_hosts)] {
            assert_ne!(doc, &good, "`{key}` was not deleted");
            assert!(doc.contains(&format!("\"{key}\":")), "`{key}` nests");
            let err = CampaignSummary::from_json(doc).expect_err(key);
            assert!(err.contains(&format!("missing `{key}`")), "{err}");
        }
        let duplicated = good.replacen("{\"hosts\":", "{\"failed\":0,\"hosts\":", 1);
        let err = CampaignSummary::from_json(&duplicated).unwrap_err();
        assert!(err.contains("duplicate `failed`"), "{err}");
        assert!(CampaignSummary::from_json(&format!("{good}}}")).is_err());
        assert!(CampaignSummary::from_json(&format!("{good}\n")).is_err());
    }

    /// Counts that contradict each other are refused at load, each
    /// identity on its own, and no sum wraps: a summary built by
    /// absorb and merge (failures included) loads, and the same
    /// summary with any one count pushed out of line does not.
    #[test]
    fn summary_json_refuses_contradictory_counts() {
        let cfg = crate::engine::CampaignConfig {
            hosts: 40,
            workers: 2,
            samples: 3,
            baseline: false,
            model: crate::population::PopulationModel {
                chaos_ppm: 300_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let sum = crate::engine::run_campaign(&cfg, None::<&mut Vec<u8>>)
            .expect("no sink")
            .summary;
        assert!(sum.failed + sum.degraded > 0 && sum.reachable > 0);
        sum.check_counts()
            .expect("absorb and merge keep the identities");
        CampaignSummary::from_json(&sum.to_json()).expect("the intact document loads");
        type Edit = fn(&mut CampaignSummary);
        let edits: [(&str, Edit); 11] = [
            ("reachable", |s| s.reachable = s.hosts + 1),
            ("reordering_hosts", |s| s.reordering_hosts = s.hosts + 1),
            ("ipid verdicts", |s| s.amenable += 1),
            ("ipid verdicts", |s| s.probe_failed = u64::MAX),
            ("exceed hosts", |s| s.failed = s.hosts + 1),
            ("exceed hosts", |s| s.degraded = u64::MAX),
            ("failure taxonomy", |s| s.degraded += 1),
            ("failure taxonomy", |s| s.failure_taxonomy.clear()),
            ("by_technique", |s| {
                s.by_technique.values_mut().for_each(|g| g.hosts += 1)
            }),
            ("by_personality", |s| s.by_personality.clear()),
            ("by_mechanism", |s| {
                s.by_mechanism.entry("dummynet").or_default().hosts = u64::MAX
            }),
        ];
        for (want, edit) in edits {
            let mut bad = sum.clone();
            edit(&mut bad);
            let err = CampaignSummary::from_json(&bad.to_json()).expect_err(want);
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    #[test]
    fn render_reads_quantiles_from_the_sketch() {
        let rs = reports(12, 41);
        let mut sum = CampaignSummary::default();
        for r in &rs {
            sum.absorb(r);
        }
        let rendered = sum.render();
        assert!(
            rendered.contains("fwd rate/host quantiles (sketch"),
            "{rendered}"
        );
        assert!(rendered.contains("p50"));
        assert!(rendered.contains("p99"));
    }

    /// Hostile reports land in the failure taxonomy with their
    /// mechanism/personality breakdowns, survive the checkpoint JSON
    /// round trip bit-exactly, and render both the per-class table and
    /// the always-on outcome footer.
    #[test]
    fn failure_taxonomy_absorbs_round_trips_and_renders() {
        use crate::pipeline::HostOutcome;
        use reorder_core::scenario::FaultClass;
        use reorder_core::HostErrorKind;
        let job = HostJob {
            samples: 5,
            ..HostJob::default()
        };
        let mut sum = CampaignSummary::default();
        // One cooperative host, one blackholed, one dead-mid-measurement.
        let clean = HostSpec::clean("coop", HostPersonality::freebsd4());
        sum.absorb(&survey_host(0, &clean, 31, &job));
        let dark = HostSpec {
            fault: Some(FaultClass::Blackhole),
            ..HostSpec::clean("dark", HostPersonality::freebsd4())
        };
        let blackholed = survey_host(1, &dark, 32, &job);
        assert!(matches!(blackholed.outcome, HostOutcome::Failed { .. }));
        sum.absorb(&blackholed);
        let dying = HostSpec {
            fault: Some(FaultClass::DeadAfter { packets: 50 }),
            ..HostSpec::clean("dying", HostPersonality::freebsd4())
        };
        let died = survey_host(2, &dying, 33, &HostJob::default());
        assert_eq!(
            died.outcome,
            HostOutcome::Degraded {
                kind: HostErrorKind::DiedMidMeasurement
            }
        );
        sum.absorb(&died);

        assert_eq!(sum.failed, 1);
        assert_eq!(sum.degraded, 1);
        assert!(sum.failure_rounds >= 1, "blackhole rounds count");
        let unreachable = &sum.failure_taxonomy[HostErrorKind::Unreachable.label()];
        assert_eq!((unreachable.hosts, unreachable.failed), (1, 1));
        assert_eq!(unreachable.by_mechanism["dummynet"], 1);
        assert_eq!(unreachable.by_personality["freebsd4"], 1);
        let dieds = &sum.failure_taxonomy[HostErrorKind::DiedMidMeasurement.label()];
        assert_eq!((dieds.hosts, dieds.degraded), (1, 1));

        let restored =
            CampaignSummary::from_json(&sum.to_json()).expect("taxonomy JSON must parse back");
        assert_eq!(restored.to_json(), sum.to_json());
        assert_eq!(restored.render(), sum.render());

        let rendered = sum.render();
        assert!(rendered.contains("failure taxonomy"), "{rendered}");
        assert!(rendered.contains("unreachable"), "{rendered}");
        assert!(rendered.contains("died-mid-measurement"), "{rendered}");
        assert!(
            rendered.contains("host outcomes: complete 1  degraded 1  failed 1"),
            "{rendered}"
        );
    }

    /// The taxonomy tables render in sorted key order regardless of
    /// insertion order — pinned here as a behavioral contract,
    /// independent of the reorder-lint rule that forbids the unsorted
    /// (HashMap-backed) form at the source level.
    #[test]
    fn failure_taxonomy_render_order_is_insertion_independent() {
        let build = |order: &[&'static str]| {
            let mut sum = CampaignSummary {
                hosts: order.len() as u64,
                ..Default::default()
            };
            for (i, &class) in order.iter().enumerate() {
                let agg = sum.failure_taxonomy.entry(class).or_default();
                agg.hosts = 1;
                agg.failed = 1;
                // Adversarial inner-map order too: rotate so each
                // class inserts mechanisms/personalities differently.
                let mechs = ["tc-netem", "dummynet", "nistnet"];
                let persos = ["winxp", "freebsd4", "linux24"];
                for k in 0..mechs.len() {
                    let j = (i + k) % mechs.len();
                    *agg.by_mechanism.entry(mechs[j]).or_default() += 1;
                    *agg.by_personality.entry(persos[j]).or_default() += 1;
                }
            }
            sum
        };
        let forward = build(&["blackhole", "tarpit", "unreachable"]);
        let reverse = build(&["unreachable", "tarpit", "blackhole"]);
        let rendered = forward.render();
        assert_eq!(
            rendered,
            reverse.render(),
            "taxonomy render must not depend on insertion order"
        );
        // The class rows and the inner mechanism/personality labels
        // appear lexicographically sorted in the rendered table.
        // (Search inside the taxonomy block only — labels like
        // "unreachable" also occur in the summary header above it.)
        let table = &rendered[rendered
            .find("failure taxonomy")
            .expect("taxonomy table present")..];
        for window in [
            ["blackhole", "tarpit", "unreachable"],
            ["dummynet", "nistnet", "tc-netem"],
            ["freebsd4", "linux24", "winxp"],
        ] {
            let at = |label: &str| {
                table
                    .find(label)
                    .unwrap_or_else(|| panic!("{label} missing from:\n{rendered}"))
            };
            assert!(
                at(window[0]) < at(window[1]) && at(window[1]) < at(window[2]),
                "expected sorted order {window:?} in:\n{rendered}"
            );
        }
        // JSON export shares the ordering contract: byte-identical
        // across insertion orders, so checkpoint merges stay exact.
        assert_eq!(forward.to_json(), reverse.to_json());
    }

    /// A clean campaign renders the outcome footer but no taxonomy
    /// table, and rejects checkpoints missing the failure fields
    /// (pre-taxonomy checkpoints must not silently load as zero).
    #[test]
    fn clean_summary_has_footer_but_no_taxonomy() {
        let mut sum = CampaignSummary::default();
        for r in reports(6, 55) {
            sum.absorb(&r);
        }
        assert_eq!(sum.failed + sum.degraded, 0);
        assert!(sum.failure_taxonomy.is_empty());
        let rendered = sum.render();
        assert!(!rendered.contains("failure taxonomy"));
        assert!(rendered.contains("host outcomes: complete 6"), "{rendered}");
        let json = sum.to_json();
        let stripped = json.replace(",\"failure_rounds\":0", "");
        assert!(
            CampaignSummary::from_json(&stripped).is_err(),
            "missing failure fields must be rejected, not defaulted"
        );
    }

    #[test]
    fn summary_absorbs_and_renders() {
        let job = HostJob {
            samples: 5,
            ..HostJob::default()
        };
        let mut sum = CampaignSummary::default();
        for (i, p) in [
            HostPersonality::freebsd4(),
            HostPersonality::openbsd3(),
            HostPersonality::linux24(),
        ]
        .into_iter()
        .enumerate()
        {
            let spec = HostSpec {
                fwd_reorder: 0.2,
                ..HostSpec::clean("agg", p)
            };
            sum.absorb(&survey_host(i as u64, &spec, 700 + i as u64, &job));
        }
        assert_eq!(sum.hosts, 3);
        assert_eq!(sum.amenable, 1);
        assert_eq!(sum.non_monotonic, 1);
        assert_eq!(sum.constant_zero, 1);
        assert!(sum.by_technique.contains_key("dual"));
        assert!(sum.by_technique.contains_key("syn"));
        assert_eq!(sum.by_personality.len(), 3);
        let rendered = sum.render();
        assert!(rendered.contains("campaign summary: 3 hosts"));
        assert!(rendered.contains("by technique"));
        assert!(rendered.contains("by personality"));
        assert!(rendered.contains("by mechanism"));
    }
}
