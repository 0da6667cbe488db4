//! Fixed grain-size rule for the cordon rounds' parallel loops.
//!
//! The cordon algorithms process one frontier per round, and frontier sizes
//! swing over orders of magnitude within a single run.  Round code asks
//! [`round_min_grain`] for the `with_min_len` value of its hot parallel loops;
//! the rule is stateless, so the driver does no per-round grain work:
//!
//! * below [`SEQ_CUTOFF`] states, or when at most one thread can run at a
//!   time, the whole loop stays sequential on the calling thread (the
//!   ParlayLib granularity-control idiom; the rayon shim executes a single
//!   grain inline with no pool traffic),
//! * above it, the grain targets `len / (threads × 4)`, never below a quarter
//!   cutoff of work per grain.

use crate::par::SEQ_CUTOFF;

/// Grains per thread for loops long enough to fork.
const GRAINS_PER_THREAD: usize = 4;

/// The grain rule, as a value round code and instrumentation can query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrainHint;

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
    /// The `with_min_len` value for a loop over `len` items with an explicit
    /// simultaneous-thread count (exposed so the rule is testable on any
    /// host).  With a single effective thread every loop stays inline —
    /// forking on a machine that can only run one grain at a time is pure
    /// overhead, whatever the configured pool size.
    pub fn min_grain_for(&self, len: usize, threads: usize) -> usize {
        if len < SEQ_CUTOFF || threads <= 1 {
            // One grain: the shim runs the loop inline on the calling thread.
            return len.max(1);
        }
        len.div_ceil(threads * GRAINS_PER_THREAD)
            .max(SEQ_CUTOFF / 4)
    }
}

/// The [`GrainHint`] for the current round.
pub fn round_hint() -> GrainHint {
    GrainHint
}

/// The `with_min_len` hint for a parallel loop over `len` items in the
/// current round, at the current pool's effective parallelism.
pub fn round_min_grain(len: usize) -> usize {
    round_hint().min_grain_for(len, effective_parallelism())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_frontiers_stay_sequential() {
        for threads in [1usize, 2, 8] {
            for len in [0, 1, 10, SEQ_CUTOFF - 1] {
                assert_eq!(
                    GrainHint.min_grain_for(len, threads),
                    len.max(1),
                    "len {len} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn large_frontiers_split_proportionally_to_threads() {
        let len = 1 << 20;
        for threads in [2usize, 4, 8] {
            let grain = GrainHint.min_grain_for(len, threads);
            assert!(grain < len, "a large loop must fork at {threads} threads");
            assert_eq!(grain, len.div_ceil(threads * GRAINS_PER_THREAD));
        }
        // Just above the cutoff the quarter-cutoff floor wins.
        assert_eq!(GrainHint.min_grain_for(SEQ_CUTOFF, 8), SEQ_CUTOFF / 4);
    }

    #[test]
    fn single_effective_thread_never_forks() {
        // On one simultaneously-runnable thread (a single-core host, or a
        // pool of one worker), every loop must stay inline no matter how
        // large: grains beyond the hardware only add context switches.
        let len = 1 << 20;
        assert_eq!(GrainHint.min_grain_for(len, 1), len);
        assert_eq!(GrainHint.min_grain_for(len, 0), len);
    }
}
