//! Ablation studies for four design choices of the cordon algorithms:
//!
//! * A1 — prefix doubling vs the naive "probe everything" cordon search for
//!   convex GLWS (how much probing work each strategy does),
//! * A2 — tournament-tree cordon extraction vs a per-round rescan for LIS,
//! * A3 — the two concave-GLWS merge strategies (position binary search vs
//!   the paper's Algorithm 2),
//! * A4 — Tree-GLWS ancestor rescan vs heavy-light persistent envelopes
//!   (Theorem 5.3) across tree shapes, with per-round frontier percentiles.

use pardp_glws::{
    parallel_concave_glws_with, parallel_convex_glws, ConcaveGapCost, ConcaveMergeStrategy,
    PostOfficeProblem,
};
use pardp_lis::{parallel_lis, sequential_lis};
use pardp_treedp::{parallel_tree_glws, parallel_tree_glws_hld, CostShape, TreeGlwsInstance};
use pardp_workloads as workloads;
use std::time::Instant;

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

fn main() {
    let n = 1_000_000usize;

    println!("== A1: prefix-doubling waste in parallel convex GLWS (n = {n}) ==");
    println!(
        "{:>10} {:>14} {:>16} {:>12}",
        "k", "states final", "states wasted", "waste %"
    );
    for &k in &[10usize, 1_000, 100_000] {
        let inst = workloads::post_office_instance(n, k, 5);
        let p = PostOfficeProblem::new(inst.coords, inst.open_cost);
        let r = parallel_convex_glws(&p);
        let pct = 100.0 * r.metrics.wasted_states as f64 / r.metrics.states_finalized as f64;
        println!(
            "{:>10} {:>14} {:>16} {:>12.2}",
            k, r.metrics.states_finalized, r.metrics.wasted_states, pct
        );
    }

    println!();
    println!("== A2: tournament-tree LIS vs sequential Fenwick LIS (n = {n}) ==");
    println!("{:>10} {:>14} {:>14}", "k", "cordon (s)", "sequential (s)");
    for &k in &[10usize, 1_000, 100_000] {
        let a = workloads::lis_with_length(n, k, 9);
        let (tp, rp) = timed(|| parallel_lis(&a));
        let (ts, rs) = timed(|| sequential_lis(&a));
        assert_eq!(rp.length, rs.length);
        println!("{:>10} {:>14.4} {:>14.4}", k, tp, ts);
    }

    println!();
    println!("== A3: concave merge strategies (n = 200000) ==");
    println!("{:>22} {:>12} {:>12}", "strategy", "time (s)", "probes");
    for (name, strat) in [
        (
            "position binary search",
            ConcaveMergeStrategy::PositionBinarySearch,
        ),
        ("paper Algorithm 2", ConcaveMergeStrategy::PaperAlgorithm2),
    ] {
        let p = ConcaveGapCost::new(200_000, 50, 3);
        let (t, r) = timed(|| parallel_concave_glws_with(&p, strat));
        println!("{:>22} {:>12.4} {:>12}", name, t, r.metrics.probes);
    }

    println!();
    println!("== A4: Tree-GLWS ancestor rescan vs heavy-light envelopes (Theorem 5.3) ==");
    println!(
        "{:>18} {:>8} {:>8} {:>10} {:>12} {:>12} {:>8} {:>24}",
        "shape",
        "n",
        "height",
        "cordon",
        "time (s)",
        "work proxy",
        "rounds",
        "frontier p50/p90/p99/max"
    );
    let tn = 30_000usize;
    let tree_shapes: Vec<(&str, Vec<usize>)> = vec![
        ("path (h = n)", workloads::path_tree(tn)),
        ("caterpillar", workloads::caterpillar_tree(tn, tn / 2, 4)),
        ("random-attach", workloads::random_attachment_tree(tn, 4)),
        ("balanced-4ary", workloads::balanced_tree(tn, 4)),
    ];
    for (shape, parent) in tree_shapes {
        let lens = workloads::tree_edge_lengths(tn, 3, 4);
        let height = workloads::tree_height(&parent);
        let inst = TreeGlwsInstance::new(
            parent,
            &lens,
            0,
            |du, dv| {
                let len = (dv - du) as i64;
                25 + len * len
            },
            |d, _| d,
        );
        let (t_old, r_old) = timed(|| parallel_tree_glws(&inst));
        let (t_hld, r_hld) = timed(|| parallel_tree_glws_hld(&inst, CostShape::Convex));
        assert_eq!(r_old.d, r_hld.d);
        assert_eq!(r_old.best, r_hld.best);
        for (cordon, t, r) in [("rescan", t_old, &r_old), ("hld", t_hld, &r_hld)] {
            let pct = r.metrics.frontier_percentiles(&[50.0, 90.0, 99.0]);
            println!(
                "{:>18} {:>8} {:>8} {:>10} {:>12.4} {:>12} {:>8} {:>24}",
                shape,
                tn,
                height,
                cordon,
                t,
                r.metrics.work_proxy(),
                r.metrics.rounds,
                format!(
                    "{}/{}/{}/{}",
                    pct[0],
                    pct[1],
                    pct[2],
                    r.metrics.max_frontier()
                )
            );
        }
    }
}
