//! Property-based tests (proptest): the parallel cordon algorithms agree with
//! their naive oracles on arbitrary inputs, and structural invariants hold.

use parallel_dp::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_lis_matches_naive(values in prop::collection::vec(-1000i64..1000, 0..300)) {
        let want = naive_lis(&values);
        let par = parallel_lis(&values);
        let seq = sequential_lis(&values);
        prop_assert_eq!(&par.d, &want.d);
        prop_assert_eq!(&seq.d, &want.d);
        prop_assert_eq!(par.metrics.rounds, want.length as u64);
    }

    #[test]
    fn prop_lcs_matches_dense(
        a in prop::collection::vec(0u8..6, 0..80),
        b in prop::collection::vec(0u8..6, 0..80),
    ) {
        let dense = dense_lcs(&a, &b);
        let pairs = matching_pairs(&a, &b);
        let sparse_par = parallel_sparse_lcs(&pairs);
        let sparse_seq = sequential_sparse_lcs(&pairs);
        prop_assert_eq!(sparse_par.length, dense.length);
        prop_assert_eq!(sparse_seq.length, dense.length);
        prop_assert_eq!(sparse_par.pair_values, sparse_seq.pair_values);
    }

    #[test]
    fn prop_convex_glws_matches_naive(
        gaps in prop::collection::vec(1i64..50, 1..200),
        open in 0i64..5000,
    ) {
        let mut coords = Vec::with_capacity(gaps.len());
        let mut x = 0i64;
        for g in &gaps {
            x += g;
            coords.push(x);
        }
        let p = PostOfficeProblem::new(coords, open);
        let par = parallel_convex_glws(&p);
        let seq = sequential_convex_glws(&p);
        let naive = naive_glws(&p);
        prop_assert_eq!(&par.d, &naive.d);
        prop_assert_eq!(&seq.d, &naive.d);
        prop_assert!(par.check_consistency(&p));
        // Lemma 4.5: rounds never exceed the number of states and equal the
        // depth of the best-decision chain.
        prop_assert_eq!(par.metrics.rounds as usize, par.perfect_depth());
    }

    #[test]
    fn prop_concave_glws_matches_naive(
        n in 1usize..150,
        a in 0i64..200,
        b in 0i64..20,
    ) {
        let p = ConcaveGapCost::new(n, a, b);
        let par = parallel_concave_glws(&p);
        let seq = sequential_concave_glws(&p);
        let naive = naive_glws(&p);
        prop_assert_eq!(&par.d, &naive.d);
        prop_assert_eq!(&seq.d, &naive.d);
    }

    #[test]
    fn prop_kglws_matches_naive(
        gaps in prop::collection::vec(1i64..30, 2..60),
        k in 1usize..8,
    ) {
        let mut coords = Vec::with_capacity(gaps.len());
        let mut x = 0i64;
        for g in &gaps {
            x += g;
            coords.push(x);
        }
        let n = coords.len();
        let k = k.min(n);
        let p = PostOfficeProblem::new(coords, 17);
        let par = parallel_kglws(&p, k);
        let naive = naive_kglws(&p, k);
        prop_assert_eq!(par.layers, naive.layers);
        prop_assert_eq!(par.metrics.rounds as usize, k);
    }

    #[test]
    fn prop_obst_knuth_matches_naive(weights in prop::collection::vec(1u64..500, 0..60)) {
        let naive = naive_obst(&weights);
        prop_assert_eq!(knuth_obst(&weights).cost, naive.cost);
        prop_assert_eq!(parallel_obst(&weights).cost, naive.cost);
    }

    #[test]
    fn prop_garsia_wachs_is_optimal(weights in prop::collection::vec(1u64..200, 1..60)) {
        let gw = garsia_wachs(&weights);
        prop_assert_eq!(gw.cost, interval_dp_oat(&weights));
        // Kraft equality: the depths describe a full binary tree.
        if weights.len() > 1 {
            let kraft: f64 = gw.depths.iter().map(|&d| 0.5f64.powi(d as i32)).sum();
            prop_assert!((kraft - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_gap_optimized_matches_naive(
        a in prop::collection::vec(0u8..3, 0..25),
        b in prop::collection::vec(0u8..3, 0..25),
        open in 0i64..40,
        ext in 0i64..5,
    ) {
        let inst = convex_gap_instance(&a, &b, open, ext, 1);
        let naive = naive_gap(&inst);
        prop_assert_eq!(sequential_gap(&inst).d, naive.d.clone());
        prop_assert_eq!(parallel_gap_packed(&inst).d, naive.d);
    }

    #[test]
    fn prop_engine_driven_lis_matches_naive_oracle(
        values in prop::collection::vec(-500i64..500, 0..250),
    ) {
        // The CordonSolver path (explicit engine entry point) must agree with
        // the naive oracle and report consistent frontier telemetry.
        let run = CordonSolver::new().run(LisCordon::new(&values));
        let (d, length) = run.output;
        let want = naive_lis(&values);
        prop_assert_eq!(&d, &want.d);
        prop_assert_eq!(length, want.length);
        prop_assert_eq!(run.metrics.rounds, want.length as u64);
        prop_assert_eq!(run.metrics.frontier_sizes.len() as u64, run.metrics.rounds);
        prop_assert_eq!(
            run.metrics.frontier_sizes.iter().sum::<u64>(),
            values.len() as u64
        );
    }

    #[test]
    fn prop_engine_driven_glws_matches_naive_oracle(
        gaps in prop::collection::vec(1i64..40, 1..150),
        open in 0i64..3000,
    ) {
        let mut coords = Vec::with_capacity(gaps.len());
        let mut x = 0i64;
        for g in &gaps {
            x += g;
            coords.push(x);
        }
        let p = PostOfficeProblem::new(coords, open);
        let run = CordonSolver::new().run(ConvexGlwsCordon::new(&p));
        let (d, _) = run.output;
        prop_assert_eq!(&d, &naive_glws(&p).d);
        prop_assert_eq!(run.metrics.frontier_sizes.len() as u64, run.metrics.rounds);
    }

    #[test]
    fn prop_tree_glws_parallel_matches_naive(
        parents_seed in 0u64..1000,
        n in 1usize..120,
    ) {
        let parent = parallel_dp::workloads::random_tree(n, (parents_seed % 100) as u32, parents_seed);
        let lens = parallel_dp::workloads::tree_edge_lengths(n, 5, parents_seed);
        let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| {
            let len = (dv - du) as i64;
            9 + len * len
        }, |d, _| d);
        let naive = naive_tree_glws(&inst);
        let par = parallel_tree_glws(&inst);
        prop_assert_eq!(par.d, naive.d);
    }
}
