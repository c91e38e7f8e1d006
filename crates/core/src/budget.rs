//! Per-host probe budgets and the failure taxonomy — how a survey
//! bounds the cost of a hostile host and classifies what went wrong.
//!
//! Bellardo & Savage's live survey (§IV) met plenty of uncooperative
//! hosts: firewalled, rate-limited, non-amenable, or simply dead
//! mid-measurement. A [`Budget`] caps how much simulated time and how
//! many retries one host may consume; [`HostErrorKind`] folds every
//! [`ProbeError`] into the small taxonomy the campaign aggregates and
//! reports. Both are pure policy — deterministic, clock-free — so a
//! budgeted campaign stays byte-reproducible.

use crate::probe::ProbeError;
use std::time::Duration;

/// The per-host spending cap a survey enforces. Deadlines are
/// *simulated* time: bounding simulated work bounds the wall clock of
/// the event-driven run, so no tarpit or blackhole host can stall a
/// shard past its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum accumulated simulated time across all of one host's
    /// phases (amenability, rounds, baseline, gap sweep). Phases that
    /// would start past the deadline are skipped and the host is
    /// classified [`HostErrorKind::DeadlineExceeded`].
    pub deadline: Duration,
    /// Transient-failure retries per measurement phase. Permanent
    /// failures (reset, unsuitable) never retry.
    pub max_retries: u32,
    /// Base backoff charged against the deadline before retry `n` as
    /// `backoff << n` — exponential, deterministic, no clock involved.
    pub backoff: Duration,
}

impl Default for Budget {
    /// Two simulated minutes and zero retries (the historical
    /// fail-the-round behavior). The deadline is meant to stop only
    /// hostile hosts, but it also binds cooperative SYN-test hosts on
    /// a long gap sweep: each SYN sample waits the full reply timeout
    /// for a third reply that two-reply stacks never send, so with
    /// `--samples 30 --gaps-us 0,25,50,100,200` such a host needs
    /// about 166 s and ends `degraded/deadline-exceeded` with 3 or 4
    /// of its 5 gap points (1,000 of 3,500 hosts at seed 1).
    fn default() -> Self {
        Budget {
            deadline: Duration::from_secs(120),
            max_retries: 0,
            backoff: Duration::from_millis(250),
        }
    }
}

impl Budget {
    /// The deadline-accounted cost of retry `attempt` (0-based):
    /// `backoff << attempt`, saturating.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff
            .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX))
    }
}

/// Why a host failed (or only partially completed) — the §IV failure
/// taxonomy the campaign summary breaks down by mechanism and
/// personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostErrorKind {
    /// Nothing ever answered: handshakes timed out with no sign of
    /// life (blackholed, tarpitted past every timeout, or dead).
    Unreachable,
    /// The host (or a firewall in front of it) actively reset the
    /// connection attempt.
    Refused,
    /// The host's per-[`Budget`] deadline ran out before its phases
    /// finished.
    DeadlineExceeded,
    /// The host answered but failed a technique precondition (IPID
    /// scheme, missing object) and no technique could measure it.
    NonAmenable,
    /// The host made measurable progress, then went dark.
    DiedMidMeasurement,
    /// The host completed some phases but not all — the degraded
    /// (partial-result) class.
    Partial,
}

impl HostErrorKind {
    /// Stable report/JSON label.
    pub fn label(&self) -> &'static str {
        match self {
            HostErrorKind::Unreachable => "unreachable",
            HostErrorKind::Refused => "refused",
            HostErrorKind::DeadlineExceeded => "deadline-exceeded",
            HostErrorKind::NonAmenable => "non-amenable",
            HostErrorKind::DiedMidMeasurement => "died-mid-measurement",
            HostErrorKind::Partial => "partial",
        }
    }

    /// Classify one probe error. `progressed` says whether the host
    /// had already produced results (a verdict or a successful round):
    /// a timeout before any progress is [`HostErrorKind::Unreachable`],
    /// the same timeout after progress is a mid-measurement death.
    pub fn classify(err: &ProbeError, progressed: bool) -> HostErrorKind {
        match err {
            ProbeError::Timeout { .. } if progressed => HostErrorKind::DiedMidMeasurement,
            ProbeError::Timeout { .. } => HostErrorKind::Unreachable,
            ProbeError::ConnectionReset => HostErrorKind::Refused,
            ProbeError::HostUnsuitable(_) => HostErrorKind::NonAmenable,
            ProbeError::DeadlineExceeded => HostErrorKind::DeadlineExceeded,
        }
    }

    /// Whether retrying the failed phase could plausibly succeed.
    /// Resets and precondition failures are properties of the host;
    /// only timeouts are worth a retry.
    pub fn is_transient(err: &ProbeError) -> bool {
        matches!(err, ProbeError::Timeout { .. })
    }
}

impl std::fmt::Display for HostErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_generous_and_retry_free() {
        let b = Budget::default();
        assert_eq!(b.deadline, Duration::from_secs(120));
        assert_eq!(b.max_retries, 0);
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let b = Budget {
            backoff: Duration::from_millis(100),
            ..Budget::default()
        };
        assert_eq!(b.backoff_for(0), Duration::from_millis(100));
        assert_eq!(b.backoff_for(1), Duration::from_millis(200));
        assert_eq!(b.backoff_for(3), Duration::from_millis(800));
        // Far past any sane retry count: saturates instead of panicking.
        assert!(b.backoff_for(200) > Duration::from_secs(1));
    }

    #[test]
    fn classification_covers_every_error() {
        let timeout = ProbeError::Timeout {
            waiting_for: "SYN/ACK",
        };
        assert_eq!(
            HostErrorKind::classify(&timeout, false),
            HostErrorKind::Unreachable
        );
        assert_eq!(
            HostErrorKind::classify(&timeout, true),
            HostErrorKind::DiedMidMeasurement
        );
        assert_eq!(
            HostErrorKind::classify(&ProbeError::ConnectionReset, false),
            HostErrorKind::Refused
        );
        assert_eq!(
            HostErrorKind::classify(&ProbeError::HostUnsuitable("ipid".into()), true),
            HostErrorKind::NonAmenable
        );
        assert_eq!(
            HostErrorKind::classify(&ProbeError::DeadlineExceeded, true),
            HostErrorKind::DeadlineExceeded
        );
        assert!(HostErrorKind::is_transient(&timeout));
        assert!(!HostErrorKind::is_transient(&ProbeError::ConnectionReset));
    }

    #[test]
    fn labels_round_trip_through_display() {
        for kind in [
            HostErrorKind::Unreachable,
            HostErrorKind::Refused,
            HostErrorKind::DeadlineExceeded,
            HostErrorKind::NonAmenable,
            HostErrorKind::DiedMidMeasurement,
            HostErrorKind::Partial,
        ] {
            assert_eq!(kind.to_string(), kind.label());
        }
    }
}
