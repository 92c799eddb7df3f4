//! Exact statistics over raw samples: percentiles, medians, the
//! run-length quarter split, and the process's peak resident set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Samples that must lie strictly beyond a percentile before it is
/// reported: a p99 needs at least 1,000 samples.
pub const MIN_BEYOND: usize = 10;

/// One exact percentile of a raw sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank `ceil(q · n)`.
    pub value: u64,
    /// How many samples the percentile was taken over.
    pub count: usize,
    /// How many samples lie beyond its rank.
    pub beyond: usize,
}

/// The exact `q`-quantile of `samples` (nearest-rank rule), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[u64], q: f64) -> Option<Percentile> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, q)
}

/// [`percentile`] of samples already sorted in ascending order.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Percentile {
        value: sorted[rank - 1],
        count: n,
        beyond,
    })
}

/// The median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The cost of one driver step: which step, its wall time, and the
/// updates it carried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepCost {
    /// Step index within its episode.
    pub step: u32,
    /// Wall time of the whole step, in nanoseconds.
    pub wall_ns: u64,
    /// Location updates the step sent to the server.
    pub updates: u64,
}

/// Median per-update wall cost of the last quarter of an episode's
/// `steps` divided by that of the first quarter. Steps that carried no
/// update are skipped. `None` when the episode is shorter than four
/// steps or a quarter holds no sample.
pub(crate) fn late_slowdown(costs: &[StepCost], steps: u32) -> Option<f64> {
    let quarter = steps / 4;
    if quarter == 0 {
        return None;
    }
    let per_update = |c: &StepCost| c.wall_ns as f64 / c.updates as f64;
    let carried = costs.iter().filter(|c| c.updates > 0);
    let first: Vec<f64> = carried
        .clone()
        .filter(|c| c.step < quarter)
        .map(per_update)
        .collect();
    let last: Vec<f64> = carried
        .filter(|c| c.step >= steps - quarter)
        .map(per_update)
        .collect();
    Some(median(&last)? / median(&first)?)
}

/// CPU windows per measured phase: the first and last four make its
/// first and last quarters.
pub(crate) const WINDOWS: usize = 16;

/// Process CPU clock readings at the boundaries of [`WINDOWS`] equal
/// windows of a measured phase. `marks[0]` is its start and
/// `marks[WINDOWS]` its end.
#[derive(Debug, Default)]
pub(crate) struct CpuMarks {
    marks: [AtomicU64; WINDOWS + 1],
}

impl CpuMarks {
    /// Reads the process CPU clock into boundary `k`.
    pub(crate) fn mark(&self, k: usize) {
        self.marks[k].store(crate::cpu::process_ns(), Ordering::Relaxed);
    }

    /// The CPU each window consumed, in ns.
    pub(crate) fn window_ns(&self) -> Vec<u64> {
        let m: Vec<u64> = self
            .marks
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .collect();
        m.windows(2).map(|w| w[1].saturating_sub(w[0])).collect()
    }
}

/// Boundary marks for a closed loop whose driver threads step freely:
/// every driver waits at the first step of each window, and one of
/// them reads the clock there.
#[derive(Debug)]
pub(crate) struct StepWindows {
    barrier: Barrier,
    steps: u32,
    /// The readings.
    pub(crate) marks: CpuMarks,
}

impl StepWindows {
    /// Windows over `steps` steps run by `drivers` threads.
    pub(crate) fn new(drivers: usize, steps: u32) -> StepWindows {
        StepWindows {
            barrier: Barrier::new(drivers),
            steps,
            marks: CpuMarks::default(),
        }
    }

    /// The first step of window `k`.
    pub(crate) fn boundary(&self, k: usize) -> u32 {
        (k as u64 * u64::from(self.steps) / WINDOWS as u64) as u32
    }

    /// Called by every driver before it runs `step`.
    pub(crate) fn before_step(&self, step: u32) {
        if self.steps < WINDOWS as u32 || step == 0 {
            return;
        }
        if let Some(k) = (1..WINDOWS).find(|&k| self.boundary(k) == step) {
            if self.barrier.wait().is_leader() {
                self.marks.mark(k);
            }
        }
    }

    /// Updates each window carried, from the drivers' step costs.
    pub(crate) fn updates(&self, costs: &[StepCost]) -> Vec<u64> {
        (0..WINDOWS)
            .map(|k| {
                let steps = self.boundary(k)..self.boundary(k + 1);
                costs
                    .iter()
                    .filter(|c| steps.contains(&c.step))
                    .map(|c| c.updates)
                    .sum()
            })
            .collect()
    }
}

/// Process CPU per update over a measured phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCost {
    /// Median over the [`WINDOWS`] windows, in ns.
    pub ns_per_update: f64,
    /// Median of the last four windows over the median of the first
    /// four.
    pub late_slowdown: f64,
}

/// The [`CpuCost`] of windows that consumed `window_ns` and carried
/// `updates`; `None` when a window carried no update.
pub(crate) fn cpu_per_update(window_ns: &[u64], updates: &[u64]) -> Option<CpuCost> {
    if window_ns.len() != WINDOWS || updates.len() != WINDOWS || updates.contains(&0) {
        return None;
    }
    let cost: Vec<f64> = window_ns
        .iter()
        .zip(updates)
        .map(|(&c, &u)| c as f64 / u as f64)
        .collect();
    let q = WINDOWS / 4;
    Some(CpuCost {
        ns_per_update: median(&cost)?,
        late_slowdown: median(&cost[WINDOWS - q..])? / median(&cost[..q])?,
    })
}

/// Updates per second over the last quarter of an episode's `steps`,
/// from one driver thread's step costs (the whole episode when it is
/// shorter than four steps).
pub(crate) fn tail_rate(costs: &[StepCost], steps: u32) -> f64 {
    let from = steps - steps / 4;
    let (updates, wall_ns) = costs
        .iter()
        .filter(|c| c.step >= from || steps < 4)
        .fold((0u64, 0u64), |(u, w), c| (u + c.updates, w + c.wall_ns));
    if wall_ns == 0 {
        0.0
    } else {
        updates as f64 * 1e9 / wall_ns as f64
    }
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// A field of `/proc/self/status` given in kB, in MiB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hands the allocator's free pages back to the kernel and restarts the
/// process's peak resident set (`VmHWM`) at its current resident set,
/// so that a later [`peak_rss_mb`] counts neither what was built and
/// freed before nor pages the allocator kept. Returns the resident set
/// after the reset, in MiB.
///
/// # Errors
///
/// Fails where `/proc/self/clear_refs` or `/proc/self/status` cannot
/// be used.
pub fn reset_peak_rss() -> Result<f64, String> {
    // SAFETY: `malloc_trim` only releases free memory of the C
    // allocator, which also serves Rust's global allocator here.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset the peak resident set: {e}"))?;
    status_mb("VmRSS:").ok_or_else(|| "no VmRSS in /proc/self/status".into())
}

/// The process's peak resident set (`VmHWM`) in MiB since the last
/// [`reset_peak_rss`], or since it started; `None` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(step: u32, wall_ns: u64, updates: u64) -> StepCost {
        StepCost {
            step,
            wall_ns,
            updates,
        }
    }

    #[test]
    fn late_slowdown_divides_last_quarter_median_by_first() {
        // 8 steps: quarters are steps {0, 1} and {6, 7}.
        let costs = vec![
            cost(0, 1_000, 10), // 100 ns/update
            cost(1, 3_000, 10), // 300
            cost(2, 9_999, 1),
            cost(3, 9_999, 1),
            cost(4, 9_999, 1),
            cost(5, 9_999, 1),
            cost(6, 4_000, 10), // 400
            cost(7, 8_000, 10), // 800
        ];
        // medians: first (100 + 300) / 2 = 200, last (400 + 800) / 2 = 600.
        assert_eq!(late_slowdown(&costs, 8), Some(3.0));
    }

    #[test]
    fn late_slowdown_skips_empty_steps_and_pools_workers() {
        let costs = vec![
            cost(0, 500, 0), // no updates: skipped
            cost(0, 1_000, 10),
            cost(0, 2_000, 10), // a second worker's step 0
            cost(1, 3_000, 10),
            cost(3, 2_000, 10),
        ];
        // 4 steps: first quarter {0}, last quarter {3}.
        assert_eq!(late_slowdown(&costs, 4), Some(200.0 / 150.0));
    }

    #[test]
    fn late_slowdown_needs_four_steps_and_both_quarters() {
        assert_eq!(late_slowdown(&[cost(0, 1, 1)], 3), None);
        assert_eq!(late_slowdown(&[cost(0, 1, 1)], 8), None);
    }

    #[test]
    fn cpu_per_update_takes_medians_of_the_first_and_last_quarters() {
        // 16 windows of 10 updates; CPU rises from 100 to 250 ns per
        // window, with one burst that the medians ignore.
        let mut window_ns: Vec<u64> = (0..16).map(|k| 1_000 + 100 * k).collect();
        window_ns[1] = 50_000;
        let updates = vec![10; 16];
        let cost = cpu_per_update(&window_ns, &updates).expect("full windows");
        // Per-update costs 100, 5000, 120, 130, ... 250.
        assert_eq!(cost.ns_per_update, (180.0 + 190.0) / 2.0);
        // First quarter {100, 5000, 120, 130}: median 125. Last quarter
        // {220, 230, 240, 250}: median 235.
        assert_eq!(cost.late_slowdown, 235.0 / 125.0);
        let mut empty = updates.clone();
        empty[3] = 0;
        assert_eq!(cpu_per_update(&window_ns, &empty), None);
    }

    #[test]
    fn step_windows_mark_every_boundary_and_split_updates() {
        let w = StepWindows::new(1, 32);
        w.marks.mark(0);
        for step in 0..32 {
            w.before_step(step);
        }
        w.marks.mark(WINDOWS);
        assert!(w.marks.window_ns().len() == WINDOWS);
        let costs: Vec<StepCost> = (0..32).map(|step| cost(step, 1, u64::from(step))).collect();
        // Window k holds steps 2k and 2k + 1.
        let expected: Vec<u64> = (0..16).map(|k| 4 * k + 1).collect();
        assert_eq!(w.updates(&costs), expected);
    }

    #[test]
    fn tail_rate_counts_only_the_last_quarter() {
        let costs = vec![
            cost(0, 1_000_000, 1),
            cost(2, 1_000_000, 10),
            cost(3, 3_000_000, 30),
        ];
        // 4 steps: the last quarter is step 3 alone.
        assert_eq!(tail_rate(&costs, 4), 10_000.0);
    }

    #[test]
    fn percentiles_are_exact_and_need_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1_000).rev().collect();
        let p99 = percentile(&samples, 0.99).expect("1000 samples carry a p99");
        assert_eq!(
            p99,
            Percentile {
                value: 990,
                count: 1_000,
                beyond: 10
            }
        );
        assert_eq!(percentile(&samples, 0.5).map(|p| p.value), Some(500));
        assert_eq!(percentile(&samples[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
