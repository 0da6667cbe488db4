//! The correctness check inside the benchmark: correct answers pass,
//! corrupted answers, panics and non-repeatable answers fail.

use pardp_perfbench::inputs::{generate, Instance, Workload, MODULES};
use pardp_perfbench::solve::{solve, Expected};
use rayon::{ThreadPool, ThreadPoolBuilder};

fn pool(threads: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
}

/// The first `small_batch` instance of every module.
fn one_per_module() -> Vec<Instance> {
    let mut seen = [false; MODULES.len()];
    generate(Workload::SmallBatch, 5)
        .into_iter()
        .filter(|inst| !std::mem::replace(&mut seen[inst.input.module()], true))
        .collect()
}

#[test]
fn correct_answers_pass_at_every_thread_count() {
    let (p1, p2) = (pool(1), pool(2));
    for inst in one_per_module() {
        let mut expected = Expected::new(&inst.input, &p1, true);
        for p in [&p2, &p1, &p2] {
            let answer = p.install(|| solve(&inst.input)).answer(&inst.input);
            assert!(expected.check(Some(&answer)), "{}", inst.label);
        }
    }
}

#[test]
fn corrupted_answers_fail() {
    let p1 = pool(1);
    for inst in one_per_module() {
        let mut expected = Expected::new(&inst.input, &p1, true);
        let mut out = solve(&inst.input);
        out.corrupt();
        assert!(
            !expected.check(Some(&out.answer(&inst.input))),
            "{}",
            inst.label
        );
        // The check fixes nothing from a failed answer: a correct one still
        // passes afterwards.
        assert!(expected.check(Some(&solve(&inst.input).answer(&inst.input))));
    }
}

#[test]
fn panicked_solves_fail() {
    let p1 = pool(1);
    let inst = &one_per_module()[0];
    let mut expected = Expected::new(&inst.input, &p1, false);
    assert!(!expected.check(None));
}

#[test]
fn answers_must_repeat_bit_for_bit() {
    let p1 = pool(1);
    let inst = &one_per_module()[0];
    let mut expected = Expected::new(&inst.input, &p1, false);
    let answer = solve(&inst.input).answer(&inst.input);
    assert!(expected.check(Some(&answer)));
    let mut drifted = answer;
    drifted.full ^= 1;
    assert!(!expected.check(Some(&drifted)));
}

#[test]
fn caught_turns_panics_into_none() {
    assert_eq!(pardp_perfbench::solve::caught(|| 7), Some(7));
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let got: Option<()> = pardp_perfbench::solve::caught(|| panic!("deliberate"));
    std::panic::set_hook(prev);
    assert_eq!(got, None);
}

#[test]
fn traced_solve_reproduces_untraced_output() {
    use pardp_perfbench::trace::{solve_traced, Tracer};
    let mut tracer = Tracer::new(10_000);
    let mut rounds = 0;
    for inst in one_per_module() {
        let plain = solve(&inst.input).answer(&inst.input);
        let traced = solve_traced(&inst.input, &mut tracer).answer(&inst.input);
        assert_eq!(plain, traced, "{}", inst.label);
        rounds += traced.work.rounds;
    }
    assert_eq!(
        tracer.pass.rounds, rounds,
        "the adapter sees every driver round"
    );
}
