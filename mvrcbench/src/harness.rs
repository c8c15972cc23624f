//! What every workload shares: the run configuration, the closed loop, the op log and the
//! resource probes.

use std::path::PathBuf;
use std::time::Instant;

use crate::trace::{self, Recording};

/// Settings of one benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of every generated input and of the op sequence.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one (end-to-end metrics).
    pub trace: bool,
    /// Scratch directory for snapshots, port files and the span dump.
    pub work: PathBuf,
}

/// How many times a run sets its workload up; the median is reported as `setup_s`.
pub const SETUP_REPEATS: usize = 5;

/// Operation roles every workload fills; each role is one operation type of a workload (see
/// `README.md` for the mapping).
pub const ROLES: usize = 4;

/// The latency metrics of each role: its interdecile mean and its p90.
pub const ROLE_METRICS: [(&str, &str); ROLES] = [
    ("verdict_tmean_us", "verdict_p90_us"),
    ("state_tmean_us", "state_p90_us"),
    ("sweep_tmean_us", "sweep_p90_us"),
    ("report_tmean_us", "report_p90_us"),
];

/// The result of one operation: its role, its latency and whether its output checked out.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub role: usize,
    pub micros: f64,
    pub ok: bool,
}

/// Latencies and failure counts of a stretch of the closed loop.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    /// Latencies by role.
    pub us: [Vec<f64>; ROLES],
    /// When each of those operations completed, seconds since its loop started.
    pub done_s: [Vec<f64>; ROLES],
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl OpLog {
    pub fn record(&mut self, op: Op, done_s: f64) {
        self.attempted += 1;
        if !op.ok {
            self.failed += 1;
        }
        self.us[op.role].push(op.micros);
        self.done_s[op.role].push(done_s);
    }

    pub fn merge(&mut self, other: OpLog) {
        for role in 0..ROLES {
            self.us[role].extend(&other.us[role]);
            self.done_s[role].extend(&other.done_s[role]);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }
}

/// Runs `op` back to back for `seconds` (a closed loop: the next operation starts when the
/// previous one returned). `op` gets the running operation index, starting at `first`.
pub fn closed_loop(seconds: f64, first: u64, mut op: impl FnMut(u64) -> Op) -> OpLog {
    let mut log = OpLog::default();
    let start = Instant::now();
    let mut index = first;
    while start.elapsed().as_secs_f64() < seconds {
        trace::set_op(index);
        let op = op(index);
        log.record(op, start.elapsed().as_secs_f64());
        index += 1;
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// Times `f` in microseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1e6)
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The operation behind each role.
    pub labels: [&'static str; ROLES],
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced part of the closed loop (all of it in a timed run).
    pub untraced: OpLog,
    /// The traced part of the closed loop (empty in a timed run).
    pub traced: OpLog,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mb: f64,
    /// Span recordings of the traced part, one per client thread.
    pub recordings: Vec<Recording>,
    /// Counts measured outside the loop (set-up, daemon stats), by per-layer metric name.
    pub extra: Vec<(&'static str, f64)>,
    /// Set-up or final checks that failed; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

/// Runs the loop of a single-client workload: the whole time untraced in a timed run; half
/// untraced, then half traced in a traced run (the untraced half is the base of
/// `trace.overhead_ratio`).
pub fn run_single_client(cfg: &Config, outcome: &mut Outcome, mut op: impl FnMut(u64) -> Op) {
    if !cfg.trace {
        outcome.untraced = closed_loop(cfg.seconds, 0, op);
        return;
    }
    let half = cfg.seconds / 2.0;
    outcome.untraced = closed_loop(half, 0, &mut op);
    trace::start(Instant::now(), 0);
    outcome.traced = closed_loop(half, 1 << 32, &mut op);
    outcome.recordings.push(trace::finish());
}

/// `VmHWM` (peak resident set) of a process, MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The mean of the values between the 10th and the 90th percentile (by nearest rank): a
/// central value that moves with the share of slow samples, unlike the median when samples
/// fall into two speed modes, and that ignores the rare stalls a shared host adds to the mean.
pub fn interdecile_mean(values: &[f64]) -> Option<f64> {
    let lo = quantile(values, 0.1)?;
    let hi = quantile(values, 0.9)?;
    let kept: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| (lo..=hi).contains(v))
        .collect();
    Some(kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Windows a run's latencies are split into by completion time; a latency metric is the
/// median over the windows of its per-window value.
pub const WINDOWS: usize = 5;

/// `estimate` of the values completed in each of [`WINDOWS`] equal stretches of a loop that ran
/// `elapsed_s` seconds, and the median of those estimates: a stall of the host that covers
/// less than two fifths of a run moves at most two windows and not the median, where it
/// would drag a tail percentile of the whole run.
pub fn windowed_median(
    values: &[f64],
    done_s: &[f64],
    elapsed_s: f64,
    estimate: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let width = elapsed_s / WINDOWS as f64;
    let mut windows = vec![Vec::new(); WINDOWS];
    for (&value, &t) in values.iter().zip(done_s) {
        windows[((t / width) as usize).min(WINDOWS - 1)].push(value);
    }
    let estimates: Vec<f64> = windows.iter().filter_map(|w| estimate(w)).collect();
    median(&estimates)
}

/// Operations completed in each whole second of a loop that ran `elapsed_s` seconds.
pub fn per_second_counts<'a>(
    done_s: impl IntoIterator<Item = &'a f64>,
    elapsed_s: f64,
) -> Vec<f64> {
    let mut counts = vec![0.0; elapsed_s.floor() as usize];
    for &t in done_s {
        if let Some(count) = counts.get_mut(t as usize) {
            *count += 1.0;
        }
    }
    counts
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), Some(5.0));
        assert_eq!(quantile(&values, 0.9), Some(9.0));
        assert_eq!(quantile(&values, 1.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn interdecile_mean_drops_the_outer_tenths() {
        let mut values: Vec<f64> = (1..=10).map(f64::from).collect();
        values.push(1000.0);
        // p10 = 2, p90 = 10: the 1 and the 1000 are dropped.
        assert_eq!(interdecile_mean(&values), Some(6.0));
    }

    #[test]
    fn windowed_median_ignores_a_stall_in_one_window() {
        // Ten values per second over 10 s, all 1.0 except a 2 s stall at 9.0.
        let done_s: Vec<f64> = (0..100).map(|i| f64::from(i) / 10.0).collect();
        let values: Vec<f64> = done_s
            .iter()
            .map(|&t| if (4.0..6.0).contains(&t) { 9.0 } else { 1.0 })
            .collect();
        let p90 = |v: &[f64]| quantile(v, 0.9);
        assert_eq!(p90(&values), Some(9.0));
        assert_eq!(windowed_median(&values, &done_s, 10.0, p90), Some(1.0));
        assert_eq!(windowed_median(&[], &[], 10.0, p90), None);
    }

    #[test]
    fn per_second_counts_skip_the_partial_second() {
        assert_eq!(
            per_second_counts(&[0.1, 0.5, 1.2, 2.9, 3.1], 3.4),
            vec![2.0, 1.0, 1.0]
        );
    }
}
