//! The per-round dispatch fast path: sub-grain rounds bypass the pool.
//!
//! When `round_min_grain(len) >= len` a round runs entirely on the calling
//! thread — the rayon shim executes single-grain loops inline and the
//! tournament tree keeps sub-grain extractions sequential — so the round must
//! push **zero** jobs to the pool's injector and wake **zero** workers.  The
//! shim exposes cumulative dispatch counters (`rayon::dispatch_diagnostics`,
//! a shim-only extension) precisely so this contract can be pinned instead of
//! eyeballed from profiles.
//!
//! The whole file is one test function: the counters are process-global, so a
//! concurrently running sibling test that legitimately forks would pollute
//! the deltas.

use parallel_dp::parutils::with_threads;
use parallel_dp::workloads;
use rayon::prelude::*;

#[test]
fn sub_grain_rounds_push_no_jobs_and_wake_no_workers() {
    // Warm the pool: spawn the workers and let any one-time lazy init (pool
    // structures, TLS) happen outside the measured region.
    let warm = workloads::lis_with_length(100_000, 6, 7);
    let warm_result = with_threads(8, || parallel_dp::lis::parallel_lis(&warm));
    assert_eq!(warm_result.length, 6);

    // Sub-grain workload: n < SEQ_CUTOFF, so every round's frontier (and the
    // tree build) is below the grain hint and must stay inline even with 8
    // threads installed.
    let a = workloads::lis_with_length(1_500, 10, 3);
    let expected = parallel_dp::lis::sequential_lis(&a);

    let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
    let run = with_threads(8, || parallel_dp::lis::parallel_lis(&a));
    let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();

    assert_eq!(run.d, expected.d);
    assert_eq!(
        pushes_after - pushes_before,
        0,
        "a sub-grain run must not touch the injector"
    );
    assert_eq!(
        wakeups_after - wakeups_before,
        0,
        "a sub-grain run must not wake any worker"
    );

    // Convex GLWS with a narrow frontier: 2 000 clusters of ~10 villages, so
    // each round's FindIntervals recursion argmins over ~10 decisions while
    // spanning up to 20 000 states.  Its fork gate counts that work, not the
    // state range, so the whole solve must stay inline at 8 threads.
    let po = workloads::post_office_instance(20_000, 2_000, 11);
    let problem = parallel_dp::glws::PostOfficeProblem::new(po.coords, po.open_cost);
    let expected = parallel_dp::glws::sequential_convex_glws(&problem);

    let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
    let run = with_threads(8, || parallel_dp::glws::parallel_convex_glws(&problem));
    let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();

    assert_eq!(run.d, expected.d);
    assert_eq!(
        pushes_after - pushes_before,
        0,
        "a narrow-frontier convex GLWS solve must not touch the injector"
    );
    assert_eq!(
        wakeups_after - wakeups_before,
        0,
        "a narrow-frontier convex GLWS solve must not wake any worker"
    );

    // Packed GAP: the staircase sweep is sequential, and a 400 x 400 grid
    // publishes at most 401 rows or columns per round, below the grain
    // cutoff.  Even with 8 threads installed, the whole solve must push zero
    // jobs and wake zero workers.
    let (ga, gb) = workloads::gap_strings(400, 400, 4, 9);
    let ginst = parallel_dp::gap::convex_gap_instance(&ga, &gb, 3, 1, 1);
    let expected = parallel_dp::gap::sequential_gap(&ginst);

    let (pushes_before, wakeups_before) = rayon::dispatch_diagnostics();
    let run = with_threads(8, || parallel_dp::gap::parallel_gap_packed(&ginst));
    let (pushes_after, wakeups_after) = rayon::dispatch_diagnostics();

    assert_eq!(run.d, expected.d);
    assert_eq!(
        pushes_after - pushes_before,
        0,
        "a packed-GAP solve below the grain cutoff must not touch the injector"
    );
    assert_eq!(
        wakeups_after - wakeups_before,
        0,
        "a packed-GAP solve below the grain cutoff must not wake any worker"
    );

    // Sanity check that the counters are live at all: an explicit sub-length
    // `with_min_len` forces the producer to split whatever the grain policy
    // (or the host's core count) would decide, so the non-worker driver
    // thread must push injector jobs.
    let (pushes_before, _) = rayon::dispatch_diagnostics();
    let total = with_threads(8, || {
        (0..100_000i64)
            .into_par_iter()
            .with_min_len(1_000)
            .map(|i| i * 2)
            .sum::<i64>()
    });
    let (pushes_after, _) = rayon::dispatch_diagnostics();
    assert_eq!(total, 100_000 * 99_999);
    assert!(
        pushes_after > pushes_before,
        "an explicitly split loop should fork onto the pool"
    );
}
