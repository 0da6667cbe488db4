//! Seeded, thread-independent inputs: the same seed gives identical inputs,
//! another seed gives different ones, and the pool size never matters.

use pardp_perfbench::inputs::{generate, Workload};
use rayon::ThreadPoolBuilder;

fn digests(workload: Workload, seed: u64) -> Vec<u64> {
    generate(workload, seed)
        .iter()
        .map(|inst| inst.input.digest())
        .collect()
}

#[test]
fn generation_is_deterministic_for_same_seed() {
    for workload in Workload::ALL {
        assert_eq!(digests(workload, 42), digests(workload, 42), "{workload:?}");
    }
}

#[test]
fn generation_changes_when_seed_changes() {
    for workload in Workload::ALL {
        let (a, b) = (digests(workload, 1), digests(workload, 2));
        assert_eq!(a.len(), b.len());
        for (idx, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_ne!(x, y, "{workload:?} instance {idx} ignores the seed");
        }
    }
}

#[test]
fn generation_does_not_depend_on_pool_size() {
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    for workload in Workload::ALL {
        let on = |t: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("pool");
            pool.install(|| digests(workload, 7))
        };
        assert_eq!(on(1), on(threads), "{workload:?}");
    }
}

#[test]
fn small_batch_covers_every_module_and_both_router_arms() {
    let instances = generate(Workload::SmallBatch, 3);
    for m in 0..pardp_perfbench::inputs::MODULES.len() {
        assert!(
            instances.iter().any(|i| i.input.module() == m),
            "module {m} missing"
        );
    }
    let oat_sizes: Vec<usize> = instances
        .iter()
        .filter_map(|i| match &i.input {
            pardp_perfbench::inputs::Input::Oat(w) => Some(w.len()),
            _ => None,
        })
        .collect();
    let cutoff = pardp_oat::OAT_VALLEY_MIN_N;
    assert!(oat_sizes.iter().any(|&n| n < cutoff) && oat_sizes.iter().any(|&n| n >= cutoff));
}
