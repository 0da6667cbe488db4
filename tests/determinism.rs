//! Thread-count determinism of the phase-parallel engine.
//!
//! The cordon algorithms are deterministic by construction: every round's
//! frontier is a pure function of the instance, and the rayon shim's reduce
//! combiners merge grains in index order with tie rules matching `std::iter`
//! (see `crates/compat/README.md`).  These tests pin that contract end to
//! end — the engine must produce bit-identical results whether the threaded
//! pool is off (1 thread, fully inline) or on with any worker count.

use parallel_dp::glws::{
    parallel_concave_glws, parallel_convex_glws, sequential_concave_glws, sequential_convex_glws,
    ClosureCost, GlwsResult, PostOfficeProblem,
};
use parallel_dp::parutils::with_threads;
use parallel_dp::treedp::{naive_tree_glws, parallel_tree_glws_hld, CostShape, TreeGlwsInstance};
use parallel_dp::workloads;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn lis_results_are_bit_identical_across_thread_counts() {
    let a = workloads::lis_with_length(20_000, 150, 3);
    let baseline = with_threads(1, || parallel_dp::lis::parallel_lis(&a));
    for t in THREAD_COUNTS {
        let run = with_threads(t, || parallel_dp::lis::parallel_lis(&a));
        assert_eq!(run.d, baseline.d, "LIS d[] differs at {t} threads");
        assert_eq!(run.length, baseline.length);
        assert_eq!(
            run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
            "LIS round schedule differs at {t} threads"
        );
    }
    assert_eq!(
        baseline.length,
        parallel_dp::lis::sequential_lis(&a).length,
        "parallel LIS disagrees with the sequential baseline"
    );
}

#[test]
fn packed_gap_results_are_bit_identical_across_thread_counts() {
    let (a, b) = workloads::gap_strings(220, 180, 4, 5);
    let inst = parallel_dp::gap::convex_gap_instance(&a, &b, 3, 1, 1);
    let baseline = with_threads(1, || parallel_dp::gap::parallel_gap_packed(&inst));
    for t in THREAD_COUNTS {
        let run = with_threads(t, || parallel_dp::gap::parallel_gap_packed(&inst));
        assert_eq!(run.d, baseline.d, "packed GAP grid differs at {t} threads");
        assert_eq!(run.cost, baseline.cost);
        assert_eq!(
            run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
            "packed GAP round schedule differs at {t} threads"
        );
    }
    // The packed cordon must agree with the sequential Γ_gap cell for cell
    // while using no more rounds than the grid depth (Theorem 5.2: rounds =
    // effective depth <= n + m).
    assert_eq!(
        baseline.d,
        parallel_dp::gap::sequential_gap(&inst).d,
        "packed GAP disagrees with the sequential baseline"
    );
    assert!(
        baseline.metrics.rounds <= (a.len() + b.len()) as u64,
        "packed GAP must not use more rounds than the grid depth n + m"
    );
}

/// Pin `d`, `best` and the round schedule of a GLWS solver at every thread
/// count against its one-thread run, and `d` against the sequential solver.
fn assert_glws_bit_identical(
    name: &str,
    solve: impl Fn() -> GlwsResult + Sync,
    sequential: impl FnOnce() -> GlwsResult,
) {
    let baseline = with_threads(1, &solve);
    for t in THREAD_COUNTS {
        let run = with_threads(t, &solve);
        assert_eq!(run.d, baseline.d, "{name}: d[] differs at {t} threads");
        assert_eq!(
            run.best, baseline.best,
            "{name}: decisions differ at {t} threads"
        );
        assert_eq!(
            run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
            "{name}: round schedule differs at {t} threads"
        );
    }
    assert_eq!(
        baseline.d,
        sequential().d,
        "{name}: parallel GLWS disagrees with the sequential baseline"
    );
}

#[test]
fn convex_glws_results_are_bit_identical_across_thread_counts() {
    // Wide: 10 clusters of ~20 000 villages, so FindIntervals has enough
    // work to fork.  Narrow: ~10-state frontiers over a long state range,
    // which must stay on the sequential branch.
    for (name, n, k) in [("wide", 200_000, 10), ("narrow", 20_000, 2_000)] {
        let w = workloads::post_office_instance(n, k, 13);
        let p = PostOfficeProblem::new(w.coords, w.open_cost);
        assert_glws_bit_identical(
            name,
            || parallel_convex_glws(&p),
            || sequential_convex_glws(&p),
        );
    }
}

#[test]
fn concave_glws_results_are_bit_identical_across_thread_counts() {
    // Capped-linear (concave) gap cost with a bonus on every `period`-th
    // state: the optimum chains through the bonus states, so each round's
    // frontier is about `period` states.  Wide: 1 000-state frontiers over
    // 200 000 states fork FindIntervals.  Narrow: 7-state frontiers.
    for (name, n, period) in [("wide", 200_000usize, 1_000usize), ("narrow", 20_000, 7)] {
        let p = ClosureCost::new(
            n,
            0,
            |j, i| 200 + 5 * ((i - j).min(40) as i64),
            move |d, j| d - if j % period == 3 { 400 } else { 0 },
        );
        assert_glws_bit_identical(
            name,
            || parallel_concave_glws(&p),
            || sequential_concave_glws(&p),
        );
    }
}

#[test]
fn valley_oat_results_are_bit_identical_across_thread_counts() {
    use parallel_dp::oat::{garsia_wachs, parallel_oat_auto, parallel_oat_valley};
    // Profiles covering both router arms and all parallel-phase behaviours:
    // random (many valleys), valley/mountain (two long slopes), equal
    // weights (pure sequential-sweep rounds).
    let profiles = [
        ("random", workloads::positive_weights(6_000, 1 << 16, 7)),
        ("valley", workloads::valley_weights(6_000, 1 << 16, 8)),
        ("mountain", workloads::mountain_weights(6_000, 1 << 16, 9)),
        ("equal", workloads::equal_weights(4_096, 5)),
    ];
    for (name, w) in profiles {
        let baseline = with_threads(1, || parallel_oat_valley(&w));
        for t in THREAD_COUNTS {
            let run = with_threads(t, || parallel_oat_valley(&w));
            assert_eq!(
                run.depths, baseline.depths,
                "{name}: depths differ at {t} threads"
            );
            assert_eq!(run.cost, baseline.cost);
            assert_eq!(
                run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
                "{name}: round schedule differs at {t} threads"
            );
            let routed = with_threads(t, || parallel_oat_auto(&w));
            assert_eq!(routed.depths, baseline.depths, "{name}: router diverges");
        }
        let seq = garsia_wachs(&w);
        assert_eq!(
            baseline.cost, seq.cost,
            "{name}: valley OAT disagrees with Garsia–Wachs"
        );
    }
}

#[test]
fn auto_routed_tree_glws_is_bit_identical_across_thread_counts() {
    use parallel_dp::treedp::parallel_tree_glws_auto;
    // One shape per router outcome: deep (HLD cordon) and shallow (baseline).
    let deep = workloads::caterpillar_tree(4_000, 2_000, 21);
    let shallow = workloads::balanced_tree(4_000, 8);
    for (name, parent) in [("caterpillar", deep), ("balanced", shallow)] {
        let n = parent.len() - 1;
        let lens = workloads::tree_edge_lengths(n, 50, 10);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);
        let baseline = with_threads(1, || parallel_tree_glws_auto(&inst, CostShape::Convex));
        for t in THREAD_COUNTS {
            let run = with_threads(t, || parallel_tree_glws_auto(&inst, CostShape::Convex));
            assert_eq!(run.d, baseline.d, "{name}: d[] differs at {t} threads");
            assert_eq!(
                run.best, baseline.best,
                "{name}: decisions differ at {t} threads"
            );
            assert_eq!(
                run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
                "{name}: round schedule differs at {t} threads"
            );
        }
        let seq = naive_tree_glws(&inst);
        assert_eq!(baseline.d, seq.d, "{name}: auto router disagrees with seq");
    }
}

#[test]
fn hld_tree_glws_results_are_bit_identical_across_thread_counts() {
    let n = 8_000;
    let parent = workloads::random_tree(n, 3, 9);
    let lens = workloads::tree_edge_lengths(n, 50, 10);
    let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);
    let baseline = with_threads(1, || parallel_tree_glws_hld(&inst, CostShape::Convex));
    for t in THREAD_COUNTS {
        let run = with_threads(t, || parallel_tree_glws_hld(&inst, CostShape::Convex));
        assert_eq!(
            run.d, baseline.d,
            "HLD Tree-GLWS d[] differs at {t} threads"
        );
        assert_eq!(
            run.best, baseline.best,
            "HLD Tree-GLWS decisions differ at {t} threads"
        );
        assert_eq!(
            run.metrics.frontier_sizes, baseline.metrics.frontier_sizes,
            "HLD Tree-GLWS round schedule differs at {t} threads"
        );
    }
    let seq = naive_tree_glws(&inst);
    assert_eq!(
        baseline.d, seq.d,
        "parallel HLD Tree-GLWS disagrees with the sequential baseline"
    );
}
