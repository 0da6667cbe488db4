//! Sequence-comparison workloads from the paper's motivation: sparse LCS for
//! similarity and the GAP recurrence for block-indel alignment of two DNA-like
//! strings (Sec. 3 and Sec. 5.2).
//!
//! Run with `cargo run --release --example dna_alignment -- [n]`.

use parallel_dp::prelude::*;
use parallel_dp::workloads;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    // Two related DNA-like strings (alphabet {A,C,G,T} = 4 symbols).
    let (a, b) = workloads::gap_strings(n, n - n / 20, 4, 7);

    // Sparse LCS similarity.
    let pairs = matching_pairs(&a, &b);
    let lcs = parallel_sparse_lcs(&pairs);
    println!(
        "strings: |A| = {}, |B| = {}, matching pairs L = {}",
        a.len(),
        b.len(),
        pairs.len()
    );
    println!(
        "LCS length = {} ({:.1}% of |B|), cordon rounds = {}",
        lcs.length,
        100.0 * lcs.length as f64 / b.len() as f64,
        lcs.metrics.rounds
    );

    // GAP alignment with a convex (affine + quadratic) block-deletion penalty.
    let small = 600.min(n);
    let inst = convex_gap_instance(&a[..small], &b[..small.min(b.len())], 12, 1, 1);
    let par = parallel_gap_packed(&inst);
    let seq = sequential_gap(&inst);
    assert_eq!(par.cost, seq.cost);
    println!(
        "GAP alignment cost of the first {small} characters = {} (parallel == sequential)",
        par.cost
    );

    // Cross-check the sparse LCS against the dense quadratic DP on a prefix.
    let check = 800.min(a.len()).min(b.len());
    let dense = dense_lcs(&a[..check], &b[..check]);
    let sparse = parallel_lcs_of(&a[..check], &b[..check]);
    assert_eq!(dense.length, sparse.length);
    println!("dense-DP cross-check on a {check}-character prefix: OK");
}
