//! The benchmark's own arithmetic: percentile selection, medians, and open-loop lateness
//! accounting.  Kept free of I/O so the unit tests pin every rule the reported numbers
//! rest on.

/// Candidate tail percentiles in tenths of a percent, highest first.  A timing is
/// reported as its median plus the highest of these that has at least [`MIN_BEYOND`]
/// samples beyond it.  Integer arithmetic keeps the rank exact (99.9% of 10 000 is 9 990,
/// not 9 991 after floating-point rounding).
const TAIL_LADDER: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of percentile `p10` (tenths of a percent) among `n` samples.
fn rank(n: usize, p10: u32) -> usize {
    (p10 as usize * n).div_ceil(1000)
}

/// The highest percentile of [`TAIL_LADDER`] (tenths of a percent), capped at `cap10`,
/// that leaves at least [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the
/// median does not.
pub fn tail_percentile(n: usize, cap10: u32) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap10)
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (`p10` in tenths of a percent); 0 when
/// empty.
pub fn percentile(sorted: &[f64], p10: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p10).clamp(1, sorted.len()) - 1]
}

/// A latency summary: median, the selected tail percentile, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    /// The percentile actually reported as the tail (≤ the requested cap).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Summarizes `samples` as median plus the highest tail percentile (at most p99) that
/// has at least ten samples beyond it.  With fewer than [`MIN_BEYOND`] samples beyond the
/// median, the maximum stands in for the tail, so the tail is never below the median.
pub fn summarize(samples: &mut [f64]) -> Tail {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let p50 = percentile(samples, 500);
    let (tail_pct, tail) = match tail_percentile(n, 990) {
        Some(p) => (f64::from(p) / 10.0, percentile(samples, p)),
        None => (100.0, samples.last().copied().unwrap_or(0.0)),
    };
    Tail {
        n,
        p50,
        tail_pct,
        tail,
    }
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 500)
}

/// Open-loop send bookkeeping for one paced stream: when each line was due and when the
/// generator actually handed it over, both in seconds from the stream's scheduled start.
#[derive(Clone, Debug, Default)]
pub struct Lateness {
    due: Vec<f64>,
    sent: Vec<f64>,
}

impl Lateness {
    /// Records one line: due at `due`, handed over at `sent`.
    pub fn record(&mut self, due: f64, sent: f64) {
        self.due.push(due);
        self.sent.push(sent);
    }

    /// How late each line was handed over (never negative: the generator does not send
    /// early), in seconds.
    pub fn late_secs(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(d, s)| (s - d).max(0.0))
            .collect()
    }

    /// Lines due by time `t` that had not been handed over by `t`.
    pub fn backlog_at(&self, t: f64) -> usize {
        let due = self.due.iter().filter(|&&d| d <= t).count();
        let sent = self.sent.iter().filter(|&&s| s <= t).count();
        due.saturating_sub(sent)
    }

    /// When the last line handed over by time `t` was handed over, if any was.
    pub fn last_sent_by(&self, t: f64) -> Option<f64> {
        let n = self.sent.partition_point(|&s| s <= t);
        n.checked_sub(1).map(|i| self.sent[i])
    }

    /// Backlog at the scheduled end of the stream (the last line's due time).
    pub fn final_backlog(&self) -> usize {
        self.due.last().map_or(0, |&end| self.backlog_at(end))
    }

    /// Whether the backlog grew over the second half of the schedule by more than
    /// `slack` lines — the generator falling further behind means the system could not
    /// keep up with the offered rate.
    pub fn backlog_growing(&self, slack: usize) -> bool {
        let Some(&end) = self.due.last() else {
            return false;
        };
        self.backlog_at(end) > self.backlog_at(end / 2.0) + slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 10 000 samples: p99.9 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(10_000, 1000), Some(999));
        // Capped at p99 even when p99.9 would qualify.
        assert_eq!(tail_percentile(10_000, 990), Some(990));
        // 1 000 samples: p99.9 leaves 1, p99 leaves 10.
        assert_eq!(tail_percentile(1_000, 1000), Some(990));
        assert_eq!(tail_percentile(999, 1000), Some(950));
        // 40 samples: p75 leaves 10.
        assert_eq!(tail_percentile(40, 990), Some(750));
        // 19 samples: nothing qualifies, not even the median (9 beyond).
        assert_eq!(tail_percentile(19, 990), None);
        assert_eq!(tail_percentile(20, 990), Some(500));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&[], 500), 0.0);
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 999), 9_990.0);
    }

    #[test]
    fn summarize_reports_the_selected_tail() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        let t = summarize(&mut v);
        assert_eq!((t.n, t.p50, t.tail_pct, t.tail), (1000, 500.0, 99.0, 990.0));
        let mut few = vec![3.0, 1.0, 2.0];
        let t = summarize(&mut few);
        assert_eq!((t.p50, t.tail_pct, t.tail), (2.0, 100.0, 3.0));
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let mut l = Lateness::default();
        l.record(0.0, 0.0);
        l.record(1.0, 1.5);
        l.record(2.0, 2.0);
        assert_eq!(l.late_secs(), vec![0.0, 0.5, 0.0]);
    }

    #[test]
    fn net_latency_starts_at_the_last_line_handed_over() {
        let mut l = Lateness::default();
        l.record(0.0, 0.0);
        l.record(1.0, 1.25);
        l.record(2.0, 2.0);
        assert_eq!(l.last_sent_by(-0.5), None);
        assert_eq!(l.last_sent_by(0.5), Some(0.0));
        // A row written at 1.5 s waited 0.25 s after the line that completed it.
        assert_eq!(l.last_sent_by(1.5), Some(1.25));
        assert_eq!(l.last_sent_by(2.0), Some(2.0));
        assert_eq!(l.last_sent_by(9.0), Some(2.0));
    }

    #[test]
    fn backlog_is_due_minus_sent() {
        let mut l = Lateness::default();
        // Four lines due each second; a stall holds lines 1..3 until t = 3.5.
        l.record(0.0, 0.0);
        l.record(1.0, 3.5);
        l.record(2.0, 3.5);
        l.record(3.0, 3.5);
        assert_eq!(l.backlog_at(0.5), 0);
        assert_eq!(l.backlog_at(2.0), 2);
        assert_eq!(l.backlog_at(3.0), 3);
        assert_eq!(l.final_backlog(), 3);
        assert_eq!(l.backlog_at(4.0), 0);
    }

    #[test]
    fn growing_backlog_needs_growth_beyond_slack() {
        // On schedule up to a millisecond of jitter: the one line in flight at the end
        // is within a slack of one.
        let mut steady = Lateness::default();
        for i in 0..100 {
            steady.record(i as f64 * 0.01, i as f64 * 0.01 + 0.001);
        }
        assert!(!steady.backlog_growing(1));
        // Falling further behind every line: sends take 0.02 s per 0.01 s of schedule.
        let mut behind = Lateness::default();
        for i in 0..100 {
            behind.record(i as f64 * 0.01, i as f64 * 0.02);
        }
        assert!(behind.backlog_growing(10));
        assert!(!behind.backlog_growing(1000));
    }
}
