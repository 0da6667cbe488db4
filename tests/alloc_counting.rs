//! Counting-allocator proof of the zero-allocation round loop.
//!
//! After the arena/scratch work, a cordon round on the single-threaded inline
//! path must perform no heap allocation once warm-up has grown every buffer to
//! its high-water mark.  OBST writes into flat preallocated triangular tables.
//! Convex GLWS rebuilds its best-decision array from a reused interval buffer,
//! and its `FindIntervals` recursion writes straight into that buffer when the
//! round's work is below the fork cutoff.  The driver pre-sizes the metrics
//! frontier log via `MetricsCollector::reserve_rounds`.
//!
//! Two checks share the one test function.  `run_allocation_free` steps a
//! cordon's `round` by hand, so a failure points at the round body alone.
//! `driver_steady_state_allocations` runs a cordon through
//! `try_run_phase_parallel` itself, behind an adapter that reads the counter
//! after warm-up and again when `finish` starts, so it also covers the driver
//! loop and the arena it threads through `round_with`.  Both assert the
//! allocation counter does not move during steady-state rounds.
//!
//! The test pins the pool to one thread (`with_threads(1)`): the threaded
//! fork path boxes jobs per fork by design, so the zero-allocation contract
//! is specific to inline execution (small frontiers and `threads = 1`).
//! It lives in its own integration-test binary, and runs every cordon
//! sequentially inside one test function, so no sibling test thread can
//! allocate concurrently and pollute the counter.

use parallel_dp::core::{try_run_phase_parallel, EitherCordon, FrontierArena, PhaseParallel};
use parallel_dp::glws::{sequential_convex_glws, ConvexGlwsCordon, PostOfficeProblem};
use parallel_dp::obst::{knuth_obst, ObstCordon};
use parallel_dp::parutils::{with_threads, MetricsCollector};
use parallel_dp::treedp::{naive_tree_glws, tree_glws_cordon_auto, CostShape, TreeGlwsInstance};
use parallel_dp::workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: a pure pass-through to `System` — every pointer/layout obligation is
// forwarded unchanged, and the counter bump has no effect on allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; we forward
    // `layout` to `System` untouched.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same `layout` the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract (ptr from this
    // allocator, matching layout); all three arguments forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` via our `alloc`, layout unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded
    // unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via our `alloc`, layout unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Drive `cordon` the way the phase-parallel driver does: `warm_up` rounds
/// first, then assert that no remaining round allocates.  Returns the output
/// and the total round count.
fn run_allocation_free<C: PhaseParallel>(
    name: &str,
    mut cordon: C,
    warm_up: usize,
) -> (C::Output, u64) {
    let metrics = MetricsCollector::new();
    // Mirror the driver: pre-size the frontier log for the full budget.
    let budget = cordon.round_budget().expect("cordon declares a budget") as usize;
    metrics.reserve_rounds(budget);

    // Warm-up: a few rounds to fault in any lazy state.
    let mut rounds = 0;
    while !cordon.is_done() && rounds < warm_up {
        let frontier = cordon.round(&metrics);
        metrics.record_round(frontier as u64);
        rounds += 1;
    }
    assert!(
        !cordon.is_done(),
        "{name}: instance too small to measure steady state"
    );

    // Let the test harness's main thread finish its (allocating) bookkeeping
    // for the freshly spawned test thread; the measured region below must
    // only see this thread's rounds.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // Steady state: every remaining round must leave the counter alone.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    while !cordon.is_done() {
        let frontier = cordon.round(&metrics);
        metrics.record_round(frontier as u64);
        rounds += 1;
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "{name}: cordon rounds allocated {} times over {} steady-state rounds",
        after - before,
        rounds - warm_up
    );
    (cordon.finish(), metrics.snapshot().rounds)
}

/// Forwards every call to `inner` and brackets the steady state: the counter
/// is read at the end of round `warm_up` and again when `finish` starts.
struct SteadyState<P> {
    inner: P,
    warm_up: u64,
    rounds: u64,
    before: Option<u64>,
}

impl<P: PhaseParallel> PhaseParallel for SteadyState<P> {
    /// The inner output and the steady-state allocation count.
    type Output = (P::Output, u64);

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn round(&mut self, _metrics: &MetricsCollector) -> usize {
        unreachable!("the driver must call round_with, not round")
    }

    fn round_with(&mut self, metrics: &MetricsCollector, arena: &mut FrontierArena) -> usize {
        let frontier = self.inner.round_with(metrics, arena);
        self.rounds += 1;
        if self.rounds == self.warm_up {
            // Same settling pause as `run_allocation_free`.
            std::thread::sleep(std::time::Duration::from_millis(100));
            self.before = Some(ALLOCATIONS.load(Ordering::Relaxed));
        }
        frontier
    }

    fn finish(self) -> Self::Output {
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        let before = self
            .before
            .expect("instance too small to measure steady state");
        (self.inner.finish(), after - before)
    }

    fn round_budget(&self) -> Option<u64> {
        self.inner.round_budget()
    }
}

/// Run `cordon` through `try_run_phase_parallel` and return its output and
/// the allocations made after round `warm_up`.
fn driver_steady_state_allocations<C: PhaseParallel>(cordon: C, warm_up: u64) -> (C::Output, u64) {
    let adapter = SteadyState {
        inner: cordon,
        warm_up,
        rounds: 0,
        before: None,
    };
    try_run_phase_parallel(adapter, &MetricsCollector::new()).expect("cordon completes")
}

#[test]
fn obst_rounds_allocate_nothing_after_warm_up() {
    with_threads(1, || {
        let n = 256;
        let weights: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 101 + 1).collect();
        let cordon = ObstCordon::new(&weights);
        let budget = cordon.round_budget();
        let (tables, rounds) = run_allocation_free("OBST", cordon, 8);
        assert_eq!(tables.cost(), knuth_obst(&weights).cost);
        assert_eq!(Some(rounds), budget);

        // Convex GLWS with a narrow frontier: 2 000 clusters of ~10 villages,
        // so every round's FindIntervals stays below the fork cutoff.
        let po = workloads::post_office_instance(20_000, 2_000, 5);
        let problem = PostOfficeProblem::new(po.coords, po.open_cost);
        let ((d, _), rounds) =
            run_allocation_free("convex GLWS", ConvexGlwsCordon::new(&problem), 64);
        assert_eq!(d, sequential_convex_glws(&problem).d);
        assert_eq!(rounds, 2_000);

        // The same cordons through the driver loop, plus the HLD Tree-GLWS
        // cordon (the router's choice on a path), which stages its settle
        // phase in the arena's `pairs_mut` buffer every round.
        let (tables, allocs) = driver_steady_state_allocations(ObstCordon::new(&weights), 8);
        assert_eq!(tables.cost(), knuth_obst(&weights).cost);
        assert_eq!(allocs, 0, "OBST: the driver loop allocated");

        let ((d, _), allocs) = driver_steady_state_allocations(ConvexGlwsCordon::new(&problem), 64);
        assert_eq!(d, sequential_convex_glws(&problem).d);
        assert_eq!(allocs, 0, "convex GLWS: the driver loop allocated");

        let n = 5_000;
        let lens = workloads::tree_edge_lengths(n, 4, 7);
        let convex_w = |du: u64, dv: u64| 15 + ((dv - du) as i64).pow(2);
        let inst = TreeGlwsInstance::new(workloads::path_tree(n), &lens, 3, convex_w, |d, _| d);
        let cordon = tree_glws_cordon_auto(&inst, CostShape::Convex);
        assert!(
            matches!(cordon, EitherCordon::Second(_)),
            "a path must route to the HLD cordon"
        );
        let ((d, best), allocs) = driver_steady_state_allocations(cordon, 64);
        let naive = naive_tree_glws(&inst);
        assert_eq!((d, best), (naive.d, naive.best));
        assert_eq!(allocs, 0, "HLD Tree-GLWS: the driver loop allocated");
    });
}
