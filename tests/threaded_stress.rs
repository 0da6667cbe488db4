//! Stress tests for the threaded pool.
//!
//! * A 100k-node path tree driven through the work-efficient HLD Tree-GLWS
//!   cordon at 8 threads.  A path is the adversarial shape for the driver:
//!   100 000 rounds with a one-node frontier each, so the run exercises the
//!   round loop, the grain rule's stay-sequential decision, the envelope
//!   pushes and the reused round scratch 100 000 times under an
//!   oversubscribed pool.  Gated behind `#[ignore]` because it is a stress
//!   test, not a correctness gate.  Run it explicitly with:
//!
//!   ```text
//!   RAYON_NUM_THREADS=8 cargo test --release --test threaded_stress -- --ignored
//!   ```
//!
//!   (the test also pins the pool itself via `with_threads(8)`, so plain
//!   `cargo test -- --ignored` works too).
//! * A convex GLWS cost closure that panics at one state inside a forked
//!   cordon round: the panic must reach the caller of `install`, and the
//!   same pool must then solve a normal instance correctly.

use parallel_dp::glws::{
    parallel_convex_glws, sequential_convex_glws, GlwsProblem, PostOfficeProblem,
};
use parallel_dp::parutils::with_threads;
use parallel_dp::treedp::{parallel_tree_glws_hld, CostShape, TreeGlwsInstance};
use parallel_dp::workloads;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
#[ignore = "stress test; run with --ignored (see module docs)"]
fn hld_tree_glws_on_a_100k_path_under_8_threads() {
    let n = 100_000;
    let parent = workloads::path_tree(n);
    let lens = workloads::tree_edge_lengths(n, 10, 21);
    let inst = TreeGlwsInstance::new(parent, &lens, 0, |du, dv| (dv - du) as i64, |d, _| d);

    let stressed = with_threads(8, || parallel_tree_glws_hld(&inst, CostShape::Convex));
    assert_eq!(stressed.metrics.rounds, n as u64, "one round per path node");
    assert_eq!(stressed.metrics.max_frontier(), 1);

    // Bit-identical to the inline single-threaded run.
    let inline = with_threads(1, || parallel_tree_glws_hld(&inst, CostShape::Convex));
    assert_eq!(stressed.d, inline.d);
    assert_eq!(stressed.best, inline.best);
}

/// A convex post-office instance whose cost closure panics on every
/// transition out of state `poisoned`.
struct PoisonedAt {
    inner: PostOfficeProblem,
    poisoned: usize,
}

const POISON_MESSAGE: &str = "poisoned transition cost";

impl GlwsProblem for PoisonedAt {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn w(&self, j: usize, i: usize) -> i64 {
        if j == self.poisoned {
            std::panic::panic_any(POISON_MESSAGE);
        }
        self.inner.w(j, i)
    }
}

#[test]
fn panic_in_a_cordon_round_propagates_and_the_pool_stays_usable() {
    let n = 50_000;
    let post_office = |seed| {
        let w = workloads::post_office_instance(n, 10, seed);
        PostOfficeProblem::new(w.coords, w.open_cost)
    };
    // State 3 500 is first relaxed in the back half of the first round's
    // forked prefix-doubling batch (states 2 048..=4 095), so the panic
    // normally fires on a worker thread, not on the caller.
    let poisoned = PoisonedAt {
        inner: post_office(17),
        poisoned: 3_500,
    };
    let healthy = post_office(19);
    let want = sequential_convex_glws(&healthy);

    for threads in [2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| parallel_convex_glws(&poisoned))
        }));
        let payload = match outcome {
            Ok(_) => panic!("{threads} threads: the poisoned run returned a result"),
            Err(payload) => payload,
        };
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&POISON_MESSAGE),
            "{threads} threads: the panic payload reaches the caller"
        );

        let got = pool.install(|| parallel_convex_glws(&healthy));
        assert_eq!(got.d, want.d, "{threads} threads: D after the panic");
        assert_eq!(
            got.best, want.best,
            "{threads} threads: best after the panic"
        );
    }
}
