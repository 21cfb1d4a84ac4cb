//! The open-loop rate ladder: how one rung is judged, when a backlog
//! counts as growing, how failures are counted, and which rate is the
//! highest one the service sustains.

/// Why requests that were sent did not get a timely model answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Refused because every candidate queue shard was full.
    pub queue_full: u64,
    /// Refused because the tenant was over its quota.
    pub quota: u64,
    /// Answered by the cost-model fallback after the deadline passed.
    pub deadline_fallbacks: u64,
    /// Any other error from `submit_async` or `wait`.
    pub errors: u64,
    /// Accepted but never answered by the time the rung was collected.
    pub unanswered: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.queue_full + self.quota + self.deadline_fallbacks + self.errors + self.unanswered
    }

    /// Failed share of `sent`; 0 when nothing was sent.
    pub fn ratio(&self, sent: u64) -> f64 {
        if sent == 0 {
            0.0
        } else {
            self.total() as f64 / sent as f64
        }
    }
}

/// Limits a rung must meet to count as sustained.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// 95th-percentile latency from when each request was due,
    /// microseconds. (On a shared virtual host, stalls of 2-10 ms set
    /// the 99th percentile, and at busy times the 95th too.)
    pub tail_us: f64,
    /// Highest tolerated failed share of requests sent.
    pub fail_ratio: f64,
    /// The sender's own 95th-percentile lateness above which the rung
    /// says more about the load generator than about the service.
    pub sender_late_us: f64,
    /// Queue-depth growth, first third to last third of the rung, that
    /// counts as a growing backlog.
    pub backlog_growth: f64,
}

/// The verdict on one rung.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Pass,
    Fail(&'static str),
    /// The sender fell behind its own schedule: the rung measured the
    /// generator, so it is neither a pass nor a slow service.
    Invalid(&'static str),
}

impl Verdict {
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail(why) | Verdict::Invalid(why) => why,
        }
    }
}

/// What one rung measured.
#[derive(Debug, Clone)]
pub struct RungOutcome {
    pub rate: f64,
    pub sent: u64,
    pub failures: Failures,
    /// 95th-percentile latency from due time, with each failed request
    /// counted as missing the limit.
    pub tail_us: f64,
    /// 95th-percentile lateness of the sender against the schedule.
    pub sender_late_us: f64,
    /// Service queue depth sampled at a fixed period across the rung.
    pub depth_samples: Vec<usize>,
}

/// True when the queue depth rose across the rung: the mean of the
/// last third of the samples exceeds the mean of the first third by
/// more than `growth`. Fewer than three samples cannot show a trend.
pub fn backlog_growing(depths: &[usize], growth: f64) -> bool {
    let third = depths.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&depths[depths.len() - third..]) - mean(&depths[..third]) > growth
}

/// Judges one rung against the limits. A rung whose sender ran late is
/// invalid before anything else is looked at.
pub fn judge(rung: &RungOutcome, limits: &Limits) -> Verdict {
    if rung.sender_late_us > limits.sender_late_us {
        Verdict::Invalid("invalid: sender behind schedule")
    } else if rung.failures.ratio(rung.sent) > limits.fail_ratio {
        Verdict::Fail("fail: failed share over limit")
    } else if rung.tail_us > limits.tail_us {
        Verdict::Fail("fail: tail latency over limit")
    } else if backlog_growing(&rung.depth_samples, limits.backlog_growth) {
        Verdict::Fail("fail: backlog growing")
    } else {
        Verdict::Pass
    }
}

/// The ladder keeps climbing until two rungs in a row fail to pass, so
/// one disturbed rung does not end the search.
pub fn keep_climbing(verdicts: &[Verdict]) -> bool {
    !matches!(verdicts, [.., a, b] if *a != Verdict::Pass && *b != Verdict::Pass)
}

/// Highest rate among passing rungs, if any passed.
pub fn max_sustained(rates: &[f64], verdicts: &[Verdict]) -> Option<f64> {
    rates
        .iter()
        .zip(verdicts)
        .filter(|(_, v)| **v == Verdict::Pass)
        .map(|(r, _)| *r)
        .reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits {
            tail_us: 10_000.0,
            fail_ratio: 0.001,
            sender_late_us: 5_000.0,
            backlog_growth: 8.0,
        }
    }

    fn rung(tail_us: f64, late_us: f64, failed: u64, depths: Vec<usize>) -> RungOutcome {
        RungOutcome {
            rate: 1000.0,
            sent: 10_000,
            failures: Failures {
                queue_full: failed,
                ..Failures::default()
            },
            tail_us,
            sender_late_us: late_us,
            depth_samples: depths,
        }
    }

    #[test]
    fn failure_accounting_sums_every_kind() {
        let f = Failures {
            queue_full: 1,
            quota: 2,
            deadline_fallbacks: 3,
            errors: 4,
            unanswered: 5,
        };
        assert_eq!(f.total(), 15);
        assert_eq!(f.ratio(150), 0.1);
        assert_eq!(Failures::default().ratio(0), 0.0);
    }

    #[test]
    fn backlog_rule_compares_first_and_last_thirds() {
        assert!(!backlog_growing(&[], 8.0));
        assert!(
            !backlog_growing(&[0, 100], 8.0),
            "two samples show no trend"
        );
        assert!(!backlog_growing(&[3, 5, 2, 4, 6, 3, 2, 5, 4], 8.0));
        assert!(backlog_growing(&[0, 1, 2, 10, 20, 30, 40, 50, 60], 8.0));
        // A burst that drains again is not a growing backlog.
        assert!(!backlog_growing(&[2, 3, 2, 90, 80, 40, 3, 2, 4], 8.0));
        // Draining is never growth.
        assert!(!backlog_growing(&[60, 50, 40, 30, 20, 10, 0, 0, 0], 8.0));
    }

    #[test]
    fn judge_orders_invalid_before_fail() {
        let l = limits();
        assert_eq!(judge(&rung(500.0, 100.0, 0, vec![1; 9]), &l), Verdict::Pass);
        assert!(matches!(
            judge(&rung(50_000.0, 9_000.0, 0, vec![1; 9]), &l),
            Verdict::Invalid(_)
        ));
        assert!(matches!(
            judge(&rung(50_000.0, 100.0, 0, vec![1; 9]), &l),
            Verdict::Fail(_)
        ));
        assert!(matches!(
            judge(&rung(500.0, 100.0, 11, vec![1; 9]), &l),
            Verdict::Fail(_)
        ));
        assert_eq!(
            judge(&rung(500.0, 100.0, 10, vec![1; 9]), &l),
            Verdict::Pass
        );
        assert!(matches!(
            judge(
                &rung(500.0, 100.0, 0, vec![0, 0, 0, 20, 40, 60, 80, 90, 99]),
                &l
            ),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn ladder_stops_after_two_misses_and_reports_highest_pass() {
        use Verdict::*;
        let f = Fail("x");
        assert!(keep_climbing(&[]));
        assert!(keep_climbing(&[Pass, f.clone()]));
        assert!(keep_climbing(&[Pass, f.clone(), Pass]));
        assert!(!keep_climbing(&[Pass, f.clone(), Invalid("y")]));
        assert!(!keep_climbing(&[f.clone(), f.clone()]));
        let rates = [1000.0, 2000.0, 3000.0, 4000.0];
        assert_eq!(
            max_sustained(&rates, &[Pass, f.clone(), Pass, f.clone()]),
            Some(3000.0)
        );
        assert_eq!(max_sustained(&rates[..2], &[f.clone(), f]), None);
    }
}
