//! Quick tour of the library: one call per headline algorithm.
//!
//! Run with `cargo run --release --example quickstart`.

use parallel_dp::prelude::*;

fn main() {
    // --- LIS (Sec. 3, Theorem 3.1) -----------------------------------------
    let a = vec![7i64, 3, 6, 8, 1, 4, 2, 5];
    let lis = parallel_lis(&a);
    println!(
        "LIS of {a:?} = {} (cordon rounds = {})",
        lis.length, lis.metrics.rounds
    );

    // --- Sparse LCS (Sec. 3, Theorem 3.2) ----------------------------------
    let x = b"the quick brown fox jumps over the lazy dog".to_vec();
    let y = b"the lazy brown dog sleeps under the quick fox".to_vec();
    let lcs = parallel_lcs_of(&x, &y);
    println!(
        "LCS length of the two sentences = {} ({} matching pairs processed)",
        lcs.length,
        lcs.pair_values.len()
    );

    // --- Convex GLWS / post offices (Sec. 4, Algorithm 1) ------------------
    let villages = vec![0, 2, 3, 50, 52, 55, 120, 121, 125, 127];
    let problem = PostOfficeProblem::new(villages, 30);
    let plan = parallel_convex_glws(&problem);
    println!(
        "post-office plan: total cost {} with {} offices ({} cordon rounds)",
        plan.d[problem.n()],
        plan.decision_depth(problem.n()),
        plan.metrics.rounds
    );

    // --- GAP edit distance (Sec. 5.2) ---------------------------------------
    let s1 = b"ACCGTTGACCA".to_vec();
    let s2 = b"ACGTTGAACCA".to_vec();
    let gap = parallel_gap_packed(&convex_gap_instance(&s1, &s2, 4, 1, 1));
    println!("GAP alignment cost of {s1:?} vs {s2:?} = {}", gap.cost);

    // --- Optimal alphabetic tree (Sec. 5.1) ---------------------------------
    let freqs = vec![40u64, 10, 8, 30, 2, 2, 5, 3];
    let oat = garsia_wachs(&freqs);
    println!(
        "optimal alphabetic tree: cost {}, height {} (Lemma 5.1 bound {})",
        oat.cost,
        oat.height,
        oat_height_bound(&freqs)
    );
}
