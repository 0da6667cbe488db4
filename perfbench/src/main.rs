//! Benchmark runner.
//!
//! ```text
//! perfbench --workload <shallow|deep|small_batch> --seed <n> --seconds <s> --trace <0|1> [--corrupt]
//! ```
//!
//! One process, one caller, closed loop: the instances of the workload are
//! solved back to back.  A *pass* solves every instance once; passes on a
//! pool of `nproc` threads and on a one-thread pool alternate (which goes
//! first flips every pair) until `--seconds` have passed.  The reference
//! kernel of `calib.rs` runs between passes, and every gated time is scaled
//! by it to a reference host speed; the main thread and the pool's workers
//! are pinned one per CPU (`pin.rs`).  Every answer is
//! checked against the best-sequential answer (and the naive oracle on
//! `small_batch`).  `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a traced run; the last line of standard output
//! is the JSON result.  `--corrupt` damages every answer before it is
//! checked, to show that the check fires.

use pardp_perfbench::calib::{Reference, NOMINAL_S};
use pardp_perfbench::inputs::{generate, Instance, Workload, MODULES};
use pardp_perfbench::pin::pin_threads;
use pardp_perfbench::solve::{
    best_sequential, caught, naive_scan_candidate, solve, Expected, Output,
};
use pardp_perfbench::trace::{solve_traced, PassTrace, Tracer};
use pardp_perfbench::{median, percentile, tail};
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is the median of their scaled times.
const SETUP_REPS: usize = 5;
/// Fewest timed passes per thread count, even past `--seconds`.
const MIN_PASSES: usize = 20;
/// Fewest iterations of the traced run's loop.
const MIN_TRACE_ITERS: usize = 5;
/// `solve_tail_s` is the highest percentile with this many passes beyond it.
const TAIL_BEYOND: usize = 10;
/// No new pass starts after this many seconds since process start.
const MAX_RUN_S: f64 = 150.0;
/// Spans kept in memory by the traced run.
const SPAN_CAP: usize = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut corrupt) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--corrupt" {
            corrupt = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

/// Inputs plus one pool per thread count: `pools[0]` has `nproc` threads,
/// `pools[1]` one.
struct Setup {
    instances: Vec<Instance>,
    pools: [ThreadPool; 2],
    gen_s: f64,
    spawn_s: f64,
    total_s: f64,
}

/// Generate the inputs, build both pools (the first `install` spawns the
/// workers) and run one untimed warm-up pass on each.
fn set_up(workload: Workload, seed: u64, nproc: usize) -> Setup {
    let start = Instant::now();
    let instances = generate(workload, seed);
    let gen_s = start.elapsed().as_secs_f64();
    let spawn = Instant::now();
    let pools = [nproc, 1].map(|threads| {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction failed");
        pool.install(|| rayon::join(|| (), || ()));
        pool
    });
    let spawn_s = spawn.elapsed().as_secs_f64();
    for pool in &pools {
        pool.install(|| {
            for inst in &instances {
                drop(caught(|| solve(&inst.input)));
            }
        });
    }
    Setup {
        instances,
        pools,
        gen_s,
        spawn_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// Work counters summed over one pass's answers.
#[derive(Default)]
struct WorkSum {
    work_proxy: u64,
    finalized: u64,
    wasted: u64,
    max_frontier: u64,
}

/// Checks every answer and counts failures.
struct Checker {
    expected: Vec<Expected>,
    corrupt: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checker {
    fn new(instances: &[Instance], pool_1: &ThreadPool, with_oracle: bool, corrupt: bool) -> Self {
        Checker {
            expected: instances
                .iter()
                .map(|inst| Expected::new(&inst.input, pool_1, with_oracle))
                .collect(),
            corrupt,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Check the output of solving `instances[idx]` (`None` = panicked).
    fn check(&mut self, idx: usize, inst: &Instance, out: Option<Output>, work: &mut WorkSum) {
        let answer = out.map(|mut out| {
            if self.corrupt {
                out.corrupt();
            }
            out.answer(&inst.input)
        });
        self.attempted += 1;
        if !self.expected[idx].check(answer.as_ref()) {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(inst.label.clone());
            }
        }
        if let Some(a) = answer {
            work.work_proxy += a.work.work_proxy;
            work.finalized += a.work.finalized;
            work.wasted += a.work.wasted;
            work.max_frontier = work.max_frontier.max(a.work.max_frontier);
        }
    }
}

/// One untraced pass: per-module solve seconds and the pass's work.
fn timed_pass(pool: &ThreadPool, instances: &[Instance], checker: &mut Checker) -> [f64; 7] {
    pool.install(|| {
        let mut secs = [0.0; MODULES.len()];
        let mut work = WorkSum::default();
        for (idx, inst) in instances.iter().enumerate() {
            let start = Instant::now();
            let out = caught(|| solve(&inst.input));
            secs[inst.input.module()] += start.elapsed().as_secs_f64();
            checker.check(idx, inst, out, &mut work);
        }
        secs
    })
}

/// One traced pass's aggregates.
struct TracedPass {
    trace: PassTrace,
    pushes: u64,
    wakeups: u64,
    secs: f64,
    work: WorkSum,
}

fn traced_pass(
    pool: &ThreadPool,
    threads: usize,
    instances: &[Instance],
    checker: &mut Checker,
    tracer: &mut Tracer,
    keep_rounds: bool,
) -> TracedPass {
    tracer.pass = PassTrace::default();
    tracer.keep_rounds = keep_rounds;
    tracer.threads = threads;
    let (pushes, wakeups) = rayon::dispatch_diagnostics();
    let mut work = WorkSum::default();
    let mut secs = 0.0;
    pool.install(|| {
        for (idx, inst) in instances.iter().enumerate() {
            tracer.instance = idx as u32;
            let start = Instant::now();
            let out = caught(|| solve_traced(&inst.input, tracer));
            secs += start.elapsed().as_secs_f64();
            checker.check(idx, inst, out, &mut work);
        }
    });
    let (p, w) = rayon::dispatch_diagnostics();
    TracedPass {
        trace: std::mem::take(&mut tracer.pass),
        pushes: p - pushes,
        wakeups: w - wakeups,
        secs,
        work,
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`
/// (clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A named metric with its unit.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything a run measures against: the last set-up's inputs and pools,
/// the set-up times, and the checker.
struct Bench {
    instances: Vec<Instance>,
    pools: [ThreadPool; 2],
    nproc: usize,
    /// Per set-up: (generation, pool spin-up, whole set-up, reference
    /// kernel around it) seconds.
    setups: Vec<(f64, f64, f64, f64)>,
    checker: Checker,
    reference: Reference,
    /// One line per gated pass: pool, wall seconds, reference parts before
    /// and after.
    pass_log: String,
    deadline: Instant,
    process_start: Instant,
}

impl Bench {
    /// Whether to start another pass (or iteration): until the deadline,
    /// and past it until `min_reached`, but never past [`MAX_RUN_S`].
    fn go_on(&self, min_reached: bool) -> bool {
        (Instant::now() < self.deadline || !min_reached)
            && self.process_start.elapsed().as_secs_f64() < MAX_RUN_S
    }
}

/// The gated run: alternating `nproc` / one-thread passes with the
/// reference kernel timed between every two passes, nothing else timed.
/// Returns the end-to-end metrics and notes.
fn gated_run(b: &mut Bench) -> (Vec<Metric>, Vec<String>) {
    // Per pool: (pass wall seconds, reference seconds around the pass).
    let mut passes: [Vec<(f64, f64)>; 2] = [Vec::new(), Vec::new()];
    let mut log = String::new();
    let mut before = b.reference.time();
    let mut pair = 0;
    while b.go_on(passes[0].len() >= MIN_PASSES) {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for p in order {
            let secs: f64 = timed_pass(&b.pools[p], &b.instances, &mut b.checker)
                .iter()
                .sum();
            let after = b.reference.time();
            let _ = writeln!(log, "{p} {secs} {:?} {:?}", before, after);
            let around = (before.iter().sum::<f64>() + after.iter().sum::<f64>()) / 2.0;
            passes[p].push((secs, around));
            before = after;
        }
        pair += 1;
    }
    b.pass_log = log;
    let scaled =
        |p: usize| -> Vec<f64> { passes[p].iter().map(|&(w, r)| w / r * NOMINAL_S).collect() };
    let (solve_n, solve_1) = (scaled(0), scaled(1));
    let (tail_p, tail_s) = tail(&solve_n, TAIL_BEYOND).unwrap_or((50, median(&solve_n)));
    let wall = |p: usize| median(&passes[p].iter().map(|x| x.0).collect::<Vec<_>>());
    let notes = vec![
        format!(
            "solve_tail_s is p{tail_p} of {} nproc passes ({} one-thread passes)",
            solve_n.len(),
            solve_1.len()
        ),
        format!(
            "unscaled wall medians: nproc pass {:.6} s, one-thread pass {:.6} s, reference {:.6} s",
            wall(0),
            wall(1),
            median(&passes[0].iter().map(|x| x.1).collect::<Vec<_>>())
        ),
    ];
    let setup_s: Vec<f64> = b.setups.iter().map(|s| s.2 / s.3 * NOMINAL_S).collect();
    let metrics = vec![
        metric("solve_s", median(&solve_n), "s"),
        metric("solve_tail_s", tail_s, "s"),
        metric("t1_s", median(&solve_1), "s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    (metrics, notes)
}

/// The traced run.  Each iteration runs, on each pool, one traced and one
/// untraced pass, then one best-sequential pass.  Returns the per-layer
/// metrics, notes and the spans.
fn traced_run(b: &mut Bench, calib_start: f64) -> (Vec<Metric>, Vec<String>, Tracer) {
    let mut tr = Tracer::new(SPAN_CAP);
    let mut traced: [Vec<TracedPass>; 2] = [Vec::new(), Vec::new()];
    let mut untraced: [Vec<[f64; 7]>; 2] = [Vec::new(), Vec::new()];
    let mut best_seq: Vec<[f64; 7]> = Vec::new();
    let mut best_seq_work = 0u64;
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let naive_candidates: Vec<bool> = b
        .instances
        .iter()
        .map(|i| naive_scan_candidate(&i.input))
        .collect();
    let mut iter = 0;
    while b.go_on(iter >= MIN_TRACE_ITERS) {
        let order = if iter % 2 == 0 { [0, 1] } else { [1, 0] };
        for p in order {
            let threads = if p == 0 { b.nproc } else { 1 };
            let keep_rounds = iter == 0 && p == 0;
            let pass = traced_pass(
                &b.pools[p],
                threads,
                &b.instances,
                &mut b.checker,
                &mut tr,
                keep_rounds,
            );
            traced[p].push(pass);
            let cpu0 = cpu_seconds();
            let start = Instant::now();
            untraced[p].push(timed_pass(&b.pools[p], &b.instances, &mut b.checker));
            if p == 0 {
                wall_s += start.elapsed().as_secs_f64();
                cpu_s += cpu_seconds() - cpu0;
            }
        }
        let mut secs = [0.0; MODULES.len()];
        best_seq_work = 0;
        for (inst, &naive) in b.instances.iter().zip(&naive_candidates) {
            let mut best = f64::INFINITY;
            let mut best_work = u64::MAX;
            let scans: &[bool] = if naive { &[false, true] } else { &[false] };
            for &scan in scans {
                let start = Instant::now();
                let out = caught(|| best_sequential(&inst.input, &b.pools[1], scan));
                best = best.min(start.elapsed().as_secs_f64());
                if let Some(out) = out {
                    best_work = best_work.min(out.answer(&inst.input).work.work_proxy);
                }
            }
            secs[inst.input.module()] += best;
            best_seq_work += best_work;
        }
        best_seq.push(secs);
        iter += 1;
    }
    let calib_end: f64 = b.reference.time().iter().sum();

    let med = |xs: Vec<f64>| median(&xs);
    let ns = |x: u64| x as f64 * 1e-9;
    let (tn, t1) = (&traced[0], &traced[1]);
    let first = &tn[0];
    let solve_n = med(untraced[0].iter().map(|s| s.iter().sum()).collect());
    let solve_1 = med(untraced[1].iter().map(|s| s.iter().sum()).collect());
    let best_total = med(best_seq.iter().map(|s| s.iter().sum()).collect());
    let traced_n = med(tn.iter().map(|p| p.secs).collect());
    let of_passes =
        |f: &dyn Fn(&TracedPass) -> f64, passes: &[TracedPass]| med(passes.iter().map(f).collect());

    let mut m = vec![
        metric(
            "workloads.gen_s",
            med(b.setups.iter().map(|s| s.0).collect()),
            "s",
        ),
        metric(
            "rayon.spawn_s",
            med(b.setups.iter().map(|s| s.1).collect()),
            "s",
        ),
        metric(
            "rayon.injector_pushes",
            of_passes(&|p| p.pushes as f64, tn),
            "count",
        ),
        metric(
            "rayon.wakeups",
            of_passes(&|p| p.wakeups as f64, tn),
            "count",
        ),
        metric(
            "rayon.subgrain_pushes",
            of_passes(&|p| p.trace.subgrain_pushes as f64, tn),
            "count",
        ),
        metric(
            "rayon.cpu_util",
            ratio(cpu_s, wall_s * b.nproc as f64),
            "frac",
        ),
        metric("core.rounds", first.trace.rounds as f64, "count"),
        metric(
            "core.round_s",
            of_passes(&|p| ns(p.trace.round_total_ns()), tn),
            "s",
        ),
        metric(
            "core.driver_self_s",
            of_passes(&|p| ns(p.trace.driver_self_ns()), tn),
            "s",
        ),
        metric(
            "core.round_s_t1",
            of_passes(&|p| ns(p.trace.round_total_ns()), t1),
            "s",
        ),
        metric(
            "core.driver_self_s_t1",
            of_passes(&|p| ns(p.trace.driver_self_ns()), t1),
            "s",
        ),
    ];
    for (name, pct) in [("core.round_us_p50", 50.0), ("core.round_us_p99", 99.0)] {
        let round_pct = |p: &TracedPass| {
            let us: Vec<f64> = p.trace.round_ns.iter().map(|&x| x as f64 * 1e-3).collect();
            percentile(&us, pct)
        };
        m.push(metric(name, of_passes(&round_pct, tn), "us"));
    }
    let w = &first.work;
    m.extend([
        metric(
            "parutils.subgrain_rounds",
            first.trace.subgrain_rounds as f64,
            "count",
        ),
        metric(
            "parutils.work_ratio",
            ratio(w.work_proxy as f64, best_seq_work as f64),
            "ratio",
        ),
        metric(
            "parutils.waste_frac",
            ratio(w.wasted as f64, (w.finalized + w.wasted) as f64),
            "frac",
        ),
        metric("parutils.max_frontier", w.max_frontier as f64, "count"),
    ]);
    for (k, name) in MODULES.iter().enumerate() {
        m.extend([
            metric(
                format!("{name}.solve_s"),
                med(untraced[0].iter().map(|s| s[k]).collect()),
                "s",
            ),
            metric(
                format!("{name}.t1_s"),
                med(untraced[1].iter().map(|s| s[k]).collect()),
                "s",
            ),
            metric(
                format!("{name}.new_s"),
                of_passes(&|p| ns(p.trace.new_ns[k]), tn),
                "s",
            ),
            metric(
                format!("{name}.finish_s"),
                of_passes(&|p| ns(p.trace.finish_ns[k]), tn),
                "s",
            ),
            metric(
                format!("{name}.best_seq_s"),
                med(best_seq.iter().map(|s| s[k]).collect()),
                "s",
            ),
        ]);
    }
    let (hld, trees) = first.trace.hld_routed;
    let (valley, oats) = first.trace.valley_routed;
    m.extend([
        metric("treedp.hld_frac", ratio(hld as f64, trees as f64), "frac"),
        metric("oat.valley_frac", ratio(valley as f64, oats as f64), "frac"),
        metric(
            "lcs.traceback_s",
            of_passes(&|p| ns(p.trace.traceback_ns[1]), tn),
            "s",
        ),
        metric(
            "gap.traceback_s",
            of_passes(&|p| ns(p.trace.traceback_ns[3]), tn),
            "s",
        ),
        metric("baseline.best_seq_s", best_total, "s"),
        metric(
            "baseline.speedup_vs_best_seq",
            ratio(best_total, solve_n),
            "ratio",
        ),
        metric("baseline.self_speedup", ratio(solve_1, solve_n), "ratio"),
        metric("host.calib_s", (calib_start + calib_end) / 2.0, "s"),
        metric(
            "trace.overhead_frac",
            ratio(traced_n - solve_n, solve_n),
            "frac",
        ),
        metric(
            "check.fail_frac",
            ratio(b.checker.failed as f64, b.checker.attempted as f64),
            "frac",
        ),
    ]);
    let (kept, dropped) = tr.spans();
    let note = format!(
        "traced run: {iter} iterations; calib_s start {calib_start:.6} end {calib_end:.6}; {} spans kept, {dropped} dropped",
        kept.len()
    );
    (m, vec![note], tr)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <shallow|deep|small_batch> --seed <n> --seconds <s> --trace <0|1> [--corrupt]"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut reference = Reference::new();
    let calib_start: f64 = reference.time().iter().sum();

    // Set up several times; keep the last set-up's inputs and pools, and
    // require every set-up to generate the same inputs.  The first set-up
    // spawns the pool's workers; pin them and this thread right after it.
    let mut setups = Vec::new();
    let mut digests: Option<Vec<u64>> = None;
    let mut inputs_repeat = true;
    let mut setup = None;
    let mut pinning = Err("no set-up ran".to_string());
    for rep in 0..SETUP_REPS {
        drop(setup.take());
        let before: f64 = reference.time().iter().sum();
        let s = set_up(args.workload, args.seed, nproc);
        let after: f64 = reference.time().iter().sum();
        let d: Vec<u64> = s.instances.iter().map(|i| i.input.digest()).collect();
        inputs_repeat &= digests.as_ref().is_none_or(|first| *first == d);
        digests = Some(d);
        setups.push((s.gen_s, s.spawn_s, s.total_s, (before + after) / 2.0));
        setup = Some(s);
        if rep == 0 {
            pinning = pin_threads();
        }
    }
    let Setup {
        instances, pools, ..
    } = setup.expect("at least one set-up ran");
    let with_oracle = args.workload == Workload::SmallBatch;
    let checker = Checker::new(&instances, &pools[1], with_oracle, args.corrupt);
    let mut bench = Bench {
        instances,
        pools,
        nproc,
        setups,
        checker,
        reference,
        pass_log: String::new(),
        deadline: Instant::now() + std::time::Duration::from_secs_f64(args.seconds),
        process_start,
    };
    let (metrics, mut notes, tracer) = if args.trace {
        let (m, n, tr) = traced_run(&mut bench, calib_start);
        (m, n, Some(tr))
    } else {
        let (m, n) = gated_run(&mut bench);
        (m, n, None)
    };
    notes.push(match &pinning {
        Ok(placed) => format!("threads pinned (tid→cpu): {placed}"),
        Err(why) => format!("threads not pinned: {why}"),
    });

    let checker = &bench.checker;
    let correct = checker.failed == 0 && inputs_repeat;
    let fail_frac = ratio(checker.failed as f64, checker.attempted as f64);
    let rustc = command_line("rustc", &["-V"]);
    let commit = command_line("git", &["rev-parse", "HEAD"]);
    let host = format!(
        "{{\"nproc\": {nproc}, \"threads\": [{nproc}, 1], \"rustc\": \"{}\", \"commit\": \"{}\", \"calib_s\": {calib_start}}}",
        json_escape(&rustc),
        json_escape(&commit)
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checker.attempted,
        checker.failed,
        metrics_json(&metrics)
    );

    // Keep the record (host, notes, result, spans) next to the benchmark.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {host}, \"instances\": {}, \"setup_s_each\": [{}], \"notes\": [{}], \"result\": {result}}}\n",
        args.workload.name(),
        args.seed,
        bench.instances.len(),
        bench.setups.iter().map(|s| s.2.to_string()).collect::<Vec<_>>().join(", "),
        notes.iter().map(|n| format!("\"{}\"", json_escape(n))).collect::<Vec<_>>().join(", "),
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), record))
        .and_then(|()| {
            if bench.pass_log.is_empty() {
                Ok(())
            } else {
                std::fs::write(out_dir.join(format!("{stem}-passes.txt")), &bench.pass_log)
            }
        })
        .and_then(|()| match &tracer {
            Some(tr) => {
                let file = std::fs::File::create(out_dir.join(format!("{stem}-spans.jsonl")))?;
                let mut w = std::io::BufWriter::new(file);
                tr.write_jsonl(&mut w)?;
                std::io::Write::flush(&mut w)
            }
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", out_dir.display());
    }

    println!("# host {host}");
    println!(
        "# workload {} seed {} ({} instances)",
        args.workload.name(),
        args.seed,
        bench.instances.len()
    );
    for note in &notes {
        println!("# {note}");
    }
    println!(
        "# check: fail_frac {fail_frac} ({} of {} solves failed){}{}",
        checker.failed,
        checker.attempted,
        if inputs_repeat {
            ""
        } else {
            "; inputs differed between set-ups"
        },
        if checker.failures.is_empty() {
            String::new()
        } else {
            format!("; first failures: {}", checker.failures.join(", "))
        }
    );
    for m in &metrics {
        println!("# {:<32} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!("{result}");
    ExitCode::SUCCESS
}
