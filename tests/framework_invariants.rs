//! Invariant tests for the Cordon framework itself (Theorem 2.1) and the
//! shared substrates, run through the public facade.

mod support;

use parallel_dp::core::prefix_doubling_cordon;
use parallel_dp::prelude::*;
use support::{lis_dag, EdgeWeightedDag, Objective};

#[test]
fn cordon_equals_topological_on_random_layered_dags() {
    for seed in 0..20u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 60;
        let objective = if seed % 2 == 0 {
            Objective::Minimize
        } else {
            Objective::Maximize
        };
        let mut dag = EdgeWeightedDag::new(n, objective);
        dag.set_boundary(0, 0);
        for i in 1..n {
            if next() % 3 == 0 {
                dag.set_boundary(i, (next() % 50) as i64);
            }
            for j in i.saturating_sub(8)..i {
                if next() % 3 == 0 {
                    dag.add_edge(j, i, (next() % 21) as i64 - 10);
                }
            }
        }
        let run = dag.solve_cordon();
        assert_eq!(run.values, dag.solve_topological(), "seed {seed}");
        // Every state is finalized exactly once.
        let mut seen = vec![false; n];
        for frontier in &run.frontiers {
            for &s in frontier {
                assert!(!seen[s], "state {s} finalized twice");
                seen[s] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x));
    }
}

#[test]
fn prefix_doubling_waste_is_bounded() {
    // Wasted probes never exceed useful probes plus one batch, for any
    // sentinel position.
    let n = 4096;
    for sentinel_at in [2usize, 3, 10, 100, 1000, 4096] {
        let (cordon, stats) = prefix_doubling_cordon(0, n, |lo, hi| {
            if (lo..=hi).contains(&(sentinel_at - 1)) {
                Some(sentinel_at)
            } else {
                None
            }
        });
        assert_eq!(cordon, sentinel_at);
        let useful = cordon - 1;
        assert!(
            stats.wasted <= useful + 1,
            "sentinel {sentinel_at}: wasted {} useful {useful}",
            stats.wasted
        );
    }
}

#[test]
fn tournament_tree_drains_in_lis_rounds() {
    let a = workloads_sequence();
    let keys: Vec<i64> = a.clone();
    let mut tree = TournamentTree::new(&keys);
    let lis = parallel_lis(&a);
    let mut rounds = 0;
    let mut total = 0;
    loop {
        let r = tree.extract_prefix_minima();
        if r.is_empty() {
            break;
        }
        rounds += 1;
        total += r.len();
    }
    assert_eq!(rounds, lis.length);
    assert_eq!(total, a.len());
}

fn workloads_sequence() -> Vec<i64> {
    parallel_dp::workloads::random_sequence(5_000, 1 << 20, 77)
}

#[test]
fn metrics_work_proxy_scales_near_linearly_for_glws() {
    // Doubling n should roughly double the parallel work proxy (within 3x),
    // supporting the O(n log n) work claim.
    let run = |n: usize| {
        let inst = parallel_dp::workloads::post_office_instance(n, 64, 9);
        let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
        parallel_convex_glws(&p).metrics.work_proxy()
    };
    let w1 = run(20_000);
    let w2 = run(40_000);
    assert!(w2 < w1 * 3, "work grew super-linearly: {w1} -> {w2}");
}

#[test]
fn cordon_matches_topological_on_paper_example() {
    let a = [7i64, 3, 6, 8, 1, 4, 2, 5];
    let dag = lis_dag(&a);
    let topo = dag.solve_topological();
    let run = dag.solve_cordon();
    assert_eq!(run.values, topo);
    // DP values from Fig. 2(a): 1 1 2 3 1 2 2 3.
    assert_eq!(run.values, vec![1, 1, 2, 3, 1, 2, 2, 3]);
    // The cordon finishes in LIS-length rounds (= 3 here).
    assert_eq!(run.rounds(), 3);
}

#[test]
fn chain_dag_has_linear_depth() {
    // A path 0 -> 1 -> ... -> n-1: every round finalizes exactly one state.
    let n = 16;
    let mut dag = EdgeWeightedDag::new(n, Objective::Minimize);
    dag.set_boundary(0, 0);
    for i in 1..n {
        dag.add_edge(i - 1, i, 1);
    }
    let run = dag.solve_cordon();
    assert_eq!(run.values, (0..n as i64).collect::<Vec<_>>());
    assert_eq!(run.rounds(), n);
    for (r, f) in run.frontiers.iter().enumerate() {
        assert_eq!(f, &vec![r]);
    }
}

#[test]
fn independent_states_finish_in_one_round() {
    let n = 10;
    let mut dag = EdgeWeightedDag::new(n, Objective::Minimize);
    for i in 0..n {
        dag.set_boundary(i, i as i64);
    }
    let run = dag.solve_cordon();
    assert_eq!(run.rounds(), 1);
    assert_eq!(run.values, (0..n as i64).collect::<Vec<_>>());
}

#[test]
fn diamond_min_paths() {
    // 0 -> {1,2} -> 3 with asymmetric weights; shortest path DP.
    let mut dag = EdgeWeightedDag::new(4, Objective::Minimize);
    dag.set_boundary(0, 0);
    dag.add_edge(0, 1, 5);
    dag.add_edge(0, 2, 1);
    dag.add_edge(1, 3, 1);
    dag.add_edge(2, 3, 10);
    let topo = dag.solve_topological();
    let run = dag.solve_cordon();
    assert_eq!(run.values, topo);
    assert_eq!(run.values[3], 6);
    // 0 finalizes in round 1, {1, 2} in round 2, {3} in round 3.
    assert_eq!(run.rounds(), 3);
}

#[test]
fn random_dags_cordon_equals_topological() {
    // Pseudo-random layered DAGs, both objectives.
    for seed in 0..6u64 {
        for &obj in &[Objective::Minimize, Objective::Maximize] {
            let n = 40;
            let mut dag = EdgeWeightedDag::new(n, obj);
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            dag.set_boundary(0, 0);
            for i in 1..n {
                if next() % 4 == 0 {
                    dag.set_boundary(i, (next() % 20) as i64);
                }
                // Random back edges.
                for j in 0..i {
                    if next() % 5 == 0 {
                        dag.add_edge(j, i, (next() % 15) as i64 - 5);
                    }
                }
            }
            let topo = dag.solve_topological();
            let run = dag.solve_cordon();
            assert_eq!(run.values, topo, "seed {seed}, objective {obj:?}");
            assert!(run.rounds() <= n);
        }
    }
}

#[test]
fn metrics_are_populated() {
    let a = [3i64, 1, 4, 1, 5, 9, 2, 6];
    let run = lis_dag(&a).solve_cordon();
    assert_eq!(run.metrics.rounds as usize, run.rounds());
    assert_eq!(run.metrics.states_finalized as usize, a.len());
    assert!(run.metrics.edges_relaxed > 0);
}

#[test]
#[should_panic(expected = "topological order")]
fn rejects_non_topological_edges() {
    let mut dag = EdgeWeightedDag::new(3, Objective::Minimize);
    dag.add_edge(2, 1, 0);
}
