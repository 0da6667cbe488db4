//! Frontier-tuned grain-size policy.
//!
//! The cordon algorithms process one frontier per round, and frontier sizes
//! swing over orders of magnitude within a single run (the staircase problems
//! start wide and collapse; the interval DPs ramp up and down).  A fixed
//! fork-join grain is wrong at both ends: tiny frontiers should never pay a
//! pool round-trip, and huge frontiers should split into enough grains that
//! work stealing can balance them.  [`GrainPolicy`] closes the loop using the
//! same per-round telemetry that [`crate::Metrics::frontier_sizes`] and
//! [`crate::Metrics::frontier_percentile`] expose after a run: the driver
//! `observe`s each frontier as it executes and installs the policy's current
//! hint for the duration of the round; round code asks [`round_min_grain`]
//! for the `with_min_len` value of its hot parallel loops.
//!
//! The policy produces a *minimum grain length*:
//!
//! * below [`SEQ_CUTOFF`] states the whole loop stays sequential on the
//!   calling thread (the ParlayLib granularity-control idiom; the rayon shim
//!   executes a single grain inline with no pool traffic),
//! * above it, the grain targets `len / (threads × grains_per_thread)` where
//!   `grains_per_thread` adapts to the observed frontier *spread*: stable
//!   frontiers fork coarse (2 grains per thread — less scheduling overhead),
//!   bursty ones fork fine (8 grains per thread — better steal balance).

use crate::par::SEQ_CUTOFF;
use std::cell::Cell;
use std::collections::VecDeque;

/// Rounds of frontier history the policy keeps.
const WINDOW: usize = 32;

/// Frontier size spread (max/min over the window) above which the policy
/// switches to fine-grained splitting.
const BURSTY_SPREAD: u64 = 8;

/// Grains per thread for stable, uniform frontiers.
const GRAINS_COARSE: usize = 2;

/// Default grains per thread with little or no history.
const GRAINS_DEFAULT: usize = 4;

/// Grains per thread for bursty frontiers.
const GRAINS_FINE: usize = 8;

/// A snapshot of the policy's current decision parameters; cheap to copy into
/// the thread-local slot consulted by [`round_min_grain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrainHint {
    /// Loops shorter than this run sequentially.
    pub seq_below: usize,
    /// Target grain count per worker thread for longer loops.
    pub grains_per_thread: usize,
}

impl Default for GrainHint {
    fn default() -> Self {
        GrainHint {
            seq_below: SEQ_CUTOFF,
            grains_per_thread: GRAINS_DEFAULT,
        }
    }
}

/// Worker threads that can actually run simultaneously: the configured pool
/// size capped by the machine's available parallelism.  Splitting a loop into
/// more grains than the hardware can run concurrently buys no steal balance
/// and pays real scheduling cost — oversubscribed workers only add context
/// switches on the critical path.
fn effective_parallelism() -> usize {
    // Cached: `available_parallelism()` probes cgroup files on Linux, which
    // allocates — the sub-cutoff fast path must stay allocation-free.
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let hw = *HW.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    rayon::current_num_threads().max(1).min(hw)
}

impl GrainHint {
    /// The `with_min_len` value for a parallel loop over `len` items.
    pub fn min_grain(&self, len: usize) -> usize {
        self.min_grain_for(len, effective_parallelism())
    }

    /// [`GrainHint::min_grain`] with an explicit simultaneous-thread count
    /// (exposed so the policy math is testable on any host).  With a single
    /// effective thread every loop stays inline — forking on a machine that
    /// can only run one grain at a time is pure overhead, whatever the
    /// configured pool size.
    pub fn min_grain_for(&self, len: usize, threads: usize) -> usize {
        if len < self.seq_below || threads <= 1 {
            // One grain: the shim runs the loop inline on the calling thread.
            return len.max(1);
        }
        let target = len.div_ceil((threads * self.grains_per_thread).max(1));
        // Never fork below a quarter cutoff of work per grain.
        target.max(SEQ_CUTOFF / 4).max(1)
    }
}

/// Auto-tuning grain policy fed by per-round frontier telemetry.
#[derive(Debug, Default)]
pub struct GrainPolicy {
    recent: VecDeque<u64>,
}

impl GrainPolicy {
    /// Policy with no history (uses [`GrainHint::default`] parameters).
    pub fn new() -> Self {
        Self::default()
    }

    /// Seed the window from a finished run's telemetry — the ablation path:
    /// re-running an instance with the frontier shape already known starts
    /// with the tuned grain from round one.
    pub fn from_metrics(metrics: &crate::Metrics) -> Self {
        let mut policy = Self::new();
        let tail = metrics.frontier_sizes.len().saturating_sub(WINDOW);
        for &f in &metrics.frontier_sizes[tail..] {
            policy.observe(f);
        }
        policy
    }

    /// Record the frontier size of a completed round.
    pub fn observe(&mut self, frontier: u64) {
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(frontier);
    }

    /// Nearest-rank percentile of the recorded window (0 with no history).
    pub fn window_percentile(&self, p: f64) -> u64 {
        if self.recent.is_empty() {
            return 0;
        }
        let mut sorted: Vec<u64> = self.recent.iter().copied().collect();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Current decision parameters derived from the window.
    pub fn hint(&self) -> GrainHint {
        if self.recent.len() < 4 {
            return GrainHint::default();
        }
        let lo = self.window_percentile(10.0).max(1);
        let hi = self.window_percentile(90.0).max(1);
        let grains_per_thread = if hi / lo >= BURSTY_SPREAD {
            GRAINS_FINE
        } else {
            GRAINS_COARSE
        };
        GrainHint {
            seq_below: SEQ_CUTOFF,
            grains_per_thread,
        }
    }

    /// The `with_min_len` value for a loop over `len` items under the current
    /// hint (see [`GrainHint::min_grain`]).
    pub fn min_grain(&self, len: usize) -> usize {
        self.hint().min_grain(len)
    }
}

thread_local! {
    /// Hint installed by the phase-parallel driver for the current round.
    static ACTIVE_HINT: Cell<Option<GrainHint>> = const { Cell::new(None) };
}

/// Install `policy`'s current hint for the duration of `f` on this thread.
///
/// The phase-parallel driver wraps each `round()` call in this so that round
/// code — which runs on the driver thread and only *forks* onto the pool —
/// sees the tuned parameters through [`round_min_grain`].
pub fn with_grain_policy<R>(policy: &GrainPolicy, f: impl FnOnce() -> R) -> R {
    let previous = ACTIVE_HINT.with(|c| c.replace(Some(policy.hint())));
    struct Restore(Option<GrainHint>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE_HINT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(previous);
    f()
}

/// The [`GrainHint`] active in the current round: the driver-installed
/// [`GrainPolicy`] hint when one is active, the default parameters otherwise.
pub fn round_hint() -> GrainHint {
    ACTIVE_HINT.with(Cell::get).unwrap_or_default()
}

/// The `with_min_len` hint for a parallel loop over `len` items in the
/// current round (see [`round_hint`]).
pub fn round_min_grain(len: usize) -> usize {
    round_hint().min_grain(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_frontiers_stay_sequential() {
        let policy = GrainPolicy::new();
        for len in [0, 1, 10, SEQ_CUTOFF - 1] {
            assert_eq!(policy.min_grain(len), len.max(1), "len {len}");
        }
    }

    #[test]
    fn large_frontiers_split_proportionally_to_threads() {
        let hint = GrainHint::default();
        let len = 1 << 20;
        for threads in [2usize, 4, 8] {
            let grain = hint.min_grain_for(len, threads);
            assert!(grain >= SEQ_CUTOFF / 4);
            assert!(grain < len, "a large loop must fork at {threads} threads");
            // Default hint: ~4 grains per thread.
            assert_eq!(grain, len.div_ceil(threads * GRAINS_DEFAULT));
        }
    }

    #[test]
    fn single_effective_thread_never_forks() {
        // On one simultaneously-runnable thread (a single-core host, or a
        // pool of one worker), every loop must stay inline no matter how
        // large: grains beyond the hardware only add context switches.
        let hint = GrainHint::default();
        let len = 1 << 20;
        assert_eq!(hint.min_grain_for(len, 1), len);
        assert_eq!(hint.min_grain_for(len, 0), len);
    }

    #[test]
    fn stable_window_forks_coarser_than_bursty_window() {
        let mut stable = GrainPolicy::new();
        for _ in 0..WINDOW {
            stable.observe(50_000);
        }
        let mut bursty = GrainPolicy::new();
        for i in 0..WINDOW {
            bursty.observe(if i % 2 == 0 { 100 } else { 100_000 });
        }
        assert_eq!(stable.hint().grains_per_thread, GRAINS_COARSE);
        assert_eq!(bursty.hint().grains_per_thread, GRAINS_FINE);
        let len = 1 << 20;
        assert!(stable.hint().min_grain_for(len, 8) > bursty.hint().min_grain_for(len, 8));
    }

    #[test]
    fn from_metrics_seeds_the_window() {
        let metrics = crate::Metrics {
            frontier_sizes: (0..100u64)
                .map(|i| if i % 2 == 0 { 10 } else { 1_000_000 })
                .collect(),
            ..crate::Metrics::default()
        };
        let policy = GrainPolicy::from_metrics(&metrics);
        assert_eq!(policy.hint().grains_per_thread, GRAINS_FINE);
    }

    #[test]
    fn thread_local_install_and_restore() {
        let mut policy = GrainPolicy::new();
        for _ in 0..WINDOW {
            policy.observe(1_000_000);
        }
        let outside = round_hint();
        let inside = with_grain_policy(&policy, round_hint);
        // Stable window -> coarser grains than the default hint.
        assert_eq!(outside.grains_per_thread, GRAINS_DEFAULT);
        assert_eq!(inside.grains_per_thread, GRAINS_COARSE);
        // Restored after the closure.
        assert_eq!(round_hint(), outside);
    }

    #[test]
    fn window_is_bounded() {
        let mut policy = GrainPolicy::new();
        for i in 0..(WINDOW as u64 * 4) {
            policy.observe(i);
        }
        assert_eq!(policy.recent.len(), WINDOW);
    }
}
