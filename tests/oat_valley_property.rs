//! Cross-validation of the polylog-round valley OAT (Theorem 5.1) against
//! both sequential oracles on random and adversarial weight profiles, plus
//! the Lemma 5.1 round-count assertion that separates it from the interval
//! DP's `n - 1` diagonals, and the size router's one-round Garsia–Wachs arm.

use parallel_dp::oat::{
    garsia_wachs, interval_dp_oat, oat_height_bound, parallel_oat_auto, parallel_oat_valley,
    OAT_VALLEY_MIN_N,
};
use parallel_dp::workloads;

/// A depth sequence is realizable as an ordered full binary tree iff the
/// classic stack merge reduces it to a single root of depth 0.
fn alphabetically_realizable(depths: &[u32]) -> bool {
    let mut stack: Vec<u32> = Vec::new();
    for &d in depths {
        let mut cur = d;
        while stack.last() == Some(&cur) {
            if cur == 0 {
                return false;
            }
            stack.pop();
            cur -= 1;
        }
        stack.push(cur);
    }
    stack == [0]
}

fn check_profile(name: &str, w: &[u64]) {
    let valley = parallel_oat_valley(w);
    let gw = garsia_wachs(w);
    assert_eq!(
        valley.cost, gw.cost,
        "{name}: cost disagrees with Garsia–Wachs"
    );
    let recomputed: u64 = w
        .iter()
        .zip(&valley.depths)
        .map(|(&a, &d)| a * d as u64)
        .sum();
    assert_eq!(
        recomputed, valley.cost,
        "{name}: depths must attain the cost"
    );
    assert!(
        alphabetically_realizable(&valley.depths),
        "{name}: depth vector is not realizable as an ordered tree"
    );
    assert_eq!(
        valley.height,
        *valley.depths.iter().max().unwrap(),
        "{name}: height must be max depth"
    );
    assert!(
        valley.height <= oat_height_bound(w),
        "{name}: height {} exceeds the Lemma 5.1 bound",
        valley.height
    );
    // Theorem 5.1's point: rounds are bounded by the same O(log W) quantity
    // as the tree height (the combine threshold doubles every round), not by
    // n - 1 like an interval-DP cordon over the Knuth table's diagonals.
    assert!(
        valley.metrics.rounds <= oat_height_bound(w) as u64,
        "{name}: rounds {} exceed the Lemma 5.1 budget {}",
        valley.metrics.rounds,
        oat_height_bound(w)
    );
    assert_eq!(valley.metrics.states_finalized, (w.len() - 1) as u64);
}

#[test]
fn valley_oat_matches_oracles_on_random_profiles() {
    for seed in 0..4 {
        for &n in &[100usize, 500, 2_000] {
            let w = workloads::positive_weights(n, 1 << 16, seed);
            check_profile("random", &w);
            // Quadratic oracle only at the smaller sizes.
            if n <= 500 {
                assert_eq!(parallel_oat_valley(&w).cost, interval_dp_oat(&w));
            }
        }
        let s = workloads::skewed_weights(800, 1 << 20, 64, seed);
        check_profile("skewed", &s);
    }
}

#[test]
fn valley_oat_matches_oracles_on_adversarial_profiles() {
    check_profile("equal", &workloads::equal_weights(2_048, 9));
    check_profile("equal-odd", &workloads::equal_weights(1_777, 3));
    check_profile("exponential", &workloads::exponential_weights(600, 2, 40));
    check_profile("exponential-3", &workloads::exponential_weights(600, 3, 25));
    check_profile("valley", &workloads::valley_weights(3_000, 1 << 16, 11));
    check_profile("mountain", &workloads::mountain_weights(3_000, 1 << 16, 11));
}

#[test]
fn valley_rounds_are_polylog_where_the_interval_cordon_is_linear() {
    // An interval-DP cordon runs one round per diagonal of the Knuth table:
    // n - 1 = 3 999 rounds here.  The valley cordon needs O(log W).
    let w = workloads::positive_weights(4_000, 1 << 16, 5);
    let valley = parallel_oat_valley(&w);
    assert_eq!(valley.cost, interval_dp_oat(&w));
    assert_eq!(valley.cost, garsia_wachs(&w).cost);
    assert_eq!(valley.metrics.states_finalized, 3_999);
    assert!(
        valley.metrics.rounds < 100,
        "valley cordon rounds {} must be polylog, not linear",
        valley.metrics.rounds
    );
}

#[test]
fn auto_router_agrees_with_both_arms_around_the_cutoff() {
    for n in (0..=OAT_VALLEY_MIN_N + 1).chain([300]) {
        let w = workloads::positive_weights(n, 1 << 10, 17);
        let auto = parallel_oat_auto(&w);
        assert_eq!(auto.cost, interval_dp_oat(&w), "n {n}");
        let recomputed: u64 = w
            .iter()
            .zip(&auto.depths)
            .map(|(&a, &d)| a * d as u64)
            .sum();
        assert_eq!(recomputed, auto.cost, "n {n}");
        if n >= 1 {
            assert!(
                alphabetically_realizable(&auto.depths),
                "n {n}: depths {:?} not realizable in order",
                auto.depths
            );
        }
        if n < OAT_VALLEY_MIN_N {
            // The Garsia–Wachs arm performs all n - 1 combines in one round.
            assert!(
                auto.metrics.rounds <= 1,
                "n {n}: {} rounds",
                auto.metrics.rounds
            );
            assert_eq!(auto.depths, garsia_wachs(&w).depths, "n {n}");
        }
    }
}
