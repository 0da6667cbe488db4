//! Untimed-harness side of a solve: the routed public entry points, the
//! best-sequential and naive references, and the answer digests that the
//! checker compares.
//!
//! Each answer carries two digests.  `checked` covers the outputs every
//! correct algorithm must agree on (DP values, costs, tracebacks); it is
//! compared with the best-sequential answer and, on `small_batch`, with the
//! naive oracle.  `full` also covers tie-dependent outputs (best decisions,
//! leaf depths); the same code must reproduce it bit for bit at any thread
//! count and with tracing on.

use crate::inputs::{tree_e, tree_w, Digest, Input, TreeInst, GAP_COST};
use pardp_gap::{
    convex_gap_instance, naive_gap, parallel_gap_packed, sequential_gap, try_reconstruct_gap_ops,
    GapInstance, GapOp, GapResult, GapTracebackError,
};
use pardp_glws::{
    naive_glws, parallel_convex_glws, sequential_convex_glws, GlwsProblem, GlwsResult,
};
use pardp_lcs::{
    parallel_sparse_lcs, reconstruct_lcs, sequential_sparse_lcs, LcsResult, MatchPair,
};
use pardp_lis::{naive_lis, parallel_lis, sequential_lis, LisResult};
use pardp_oat::{garsia_wachs, interval_dp_oat, parallel_oat_auto, OatResult};
use pardp_obst::{knuth_obst, naive_obst, parallel_obst, ObstResult};
use pardp_parutils::Metrics;
use pardp_treedp::{
    naive_tree_glws, parallel_tree_glws_auto, parallel_tree_glws_hld, CostShape, TreeGlwsResult,
};
use rayon::ThreadPool;
use std::iter::once;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Work counters of one solve, read from the result's `Metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Cordon rounds.
    pub rounds: u64,
    /// Edges relaxed plus probes.
    pub work_proxy: u64,
    /// States finalized.
    pub finalized: u64,
    /// States inspected but not finalized.
    pub wasted: u64,
    /// Largest frontier.
    pub max_frontier: u64,
}

impl Work {
    fn of(m: &Metrics) -> Work {
        Work {
            rounds: m.rounds,
            work_proxy: m.work_proxy(),
            finalized: m.states_finalized,
            wasted: m.wasted_states,
            max_frontier: m.max_frontier(),
        }
    }
}

/// The checkable summary of one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Digest of the algorithm-independent outputs.
    pub checked: u64,
    /// Digest of every output.
    pub full: u64,
    /// Whether the outputs are self-consistent (best decisions attain the
    /// values, depths give the cost, the traceback succeeded).
    pub valid: bool,
    /// Work counters.
    pub work: Work,
}

/// Builds an [`Answer`]: `checked` words feed both digests, `extra` words
/// only the full one.
struct AnswerBuilder {
    checked: Digest,
    full: Digest,
}

impl AnswerBuilder {
    fn new(module: usize) -> Self {
        let mut checked = Digest::new();
        checked.word(module as u64);
        AnswerBuilder {
            checked,
            full: checked,
        }
    }

    fn checked(mut self, ws: impl Iterator<Item = u64> + Clone) -> Self {
        self.checked.words(ws.clone());
        self.full.words(ws);
        self
    }

    fn extra(mut self, ws: impl Iterator<Item = u64>) -> Self {
        self.full.words(ws);
        self
    }

    fn build(self, valid: bool, work: Work) -> Answer {
        Answer {
            checked: self.checked.finish(),
            full: self.full.finish(),
            valid,
            work,
        }
    }
}

fn lis_answer(r: &LisResult) -> Answer {
    AnswerBuilder::new(0)
        .checked(once(r.length as u64))
        .checked(r.d.iter().map(|&x| x as u64))
        .build(true, Work::of(&r.metrics))
}

fn lcs_answer(r: &LcsResult, traceback: &[MatchPair]) -> Answer {
    let valid = traceback.len() == r.length as usize
        && traceback
            .windows(2)
            .all(|w| w[0].i < w[1].i && w[0].j < w[1].j);
    AnswerBuilder::new(1)
        .checked(once(r.length as u64))
        .checked(r.pair_values.iter().map(|&x| x as u64))
        .checked(traceback.iter().map(|p| (p.i as u64) << 32 | p.j as u64))
        .build(valid, Work::of(&r.metrics))
}

fn glws_answer<P: GlwsProblem>(problem: &P, r: &GlwsResult) -> Answer {
    AnswerBuilder::new(2)
        .checked(r.d.iter().map(|&x| x as u64))
        .extra(r.best.iter().map(|&x| x as u64))
        .build(r.check_consistency(problem), Work::of(&r.metrics))
}

fn gap_op_word(op: &GapOp) -> u64 {
    let (tag, x, y) = match *op {
        GapOp::Match { i, j } => (0, i, j),
        GapOp::GapA { l, r } => (1, l, r),
        GapOp::GapB { l, r } => (2, l, r),
    };
    tag << 62 | (x as u64) << 31 | y as u64
}

fn gap_answer(r: &GapResult, ops: &Result<Vec<GapOp>, GapTracebackError>) -> Answer {
    let ops: &[GapOp] = ops.as_deref().unwrap_or(&[]);
    let valid = r.d.last().and_then(|row| row.last()) == Some(&r.cost) && !ops.is_empty();
    AnswerBuilder::new(3)
        .checked(once(r.cost as u64))
        .checked(r.d.iter().flatten().map(|&x| x as u64))
        .checked(ops.iter().map(gap_op_word))
        .build(valid, Work::of(&r.metrics))
}

fn obst_answer(r: &ObstResult) -> Answer {
    AnswerBuilder::new(4)
        .checked(once(r.cost))
        .build(true, Work::of(&r.metrics))
}

fn oat_answer(weights: &[u64], r: &OatResult) -> Answer {
    let depth_cost: u64 = weights
        .iter()
        .zip(&r.depths)
        .map(|(&w, &d)| w * d as u64)
        .sum();
    let valid = r.depths.len() == weights.len() && depth_cost == r.cost;
    AnswerBuilder::new(5)
        .checked(once(r.cost))
        .extra(once(r.height as u64))
        .extra(r.depths.iter().map(|&x| x as u64))
        .build(valid, Work::of(&r.metrics))
}

fn tree_answer(inst: &TreeInst, r: &TreeGlwsResult) -> Answer {
    let valid = (1..r.d.len()).all(|v| {
        let u = r.best[v];
        u < v && r.d[v] == tree_e(r.d[u], u) + tree_w(inst.dist[u], inst.dist[v])
    });
    AnswerBuilder::new(6)
        .checked(r.d.iter().map(|&x| x as u64))
        .extra(r.best.iter().map(|&x| x as u64))
        .build(valid, Work::of(&r.metrics))
}

/// The raw result of one solve, as the public functions return it.
pub enum Output {
    /// LIS values.
    Lis(LisResult),
    /// LCS pair values and the reconstructed LCS.
    Lcs(LcsResult, Vec<MatchPair>),
    /// GLWS values and decisions.
    Glws(GlwsResult),
    /// GAP grid and the traceback.
    Gap(GapResult, Result<Vec<GapOp>, GapTracebackError>),
    /// OBST cost.
    Obst(ObstResult),
    /// OAT cost and leaf depths.
    Oat(OatResult),
    /// Tree-GLWS values and decisions.
    Tree(TreeGlwsResult),
}

impl Output {
    /// Summarize the output of a solve of `input`.
    ///
    /// # Panics
    ///
    /// Panics if the output belongs to another module than `input`.
    pub fn answer(&self, input: &Input) -> Answer {
        match (self, input) {
            (Output::Lis(r), Input::Lis(_)) => lis_answer(r),
            (Output::Lcs(r, tb), Input::Lcs(_)) => lcs_answer(r, tb),
            (Output::Glws(r), Input::Glws { problem, .. }) => glws_answer(problem, r),
            (Output::Gap(r, ops), Input::Gap(..)) => gap_answer(r, ops),
            (Output::Obst(r), Input::Obst(_)) => obst_answer(r),
            (Output::Oat(r), Input::Oat(w)) => oat_answer(w, r),
            (Output::Tree(r), Input::Tree(inst)) => tree_answer(inst, r),
            _ => panic!("output does not belong to the input's module"),
        }
    }

    /// Damage the output (one DP value or cost off by one), for the
    /// checker's self-test: a corrupted answer must fail the check.
    pub fn corrupt(&mut self) {
        match self {
            Output::Lis(r) => r.d[0] += 1,
            Output::Lcs(r, _) => r.pair_values[0] += 1,
            Output::Glws(r) => r.d[1] += 1,
            Output::Gap(r, _) => r.d[1][1] += 1,
            Output::Obst(r) => r.cost += 1,
            Output::Oat(r) => r.cost += 1,
            Output::Tree(r) => r.d[1] += 1,
        }
    }
}

/// The GAP instance for two strings under [`GAP_COST`].
pub fn gap_instance<'a>(
    a: &'a [u8],
    b: &'a [u8],
) -> GapInstance<'a, impl Fn(usize, usize) -> i64 + Sync, impl Fn(usize, usize) -> i64 + Sync> {
    let (open, ext, quad) = GAP_COST;
    convex_gap_instance(a, b, open, ext, quad)
}

/// Solve `input` through the routed public entry point, plus the public
/// traceback where the crate has one.
pub fn solve(input: &Input) -> Output {
    match input {
        Input::Lis(a) => Output::Lis(parallel_lis(a)),
        Input::Lcs(pairs) => {
            let r = parallel_sparse_lcs(pairs);
            let tb = reconstruct_lcs(pairs, &r.pair_values, r.length);
            Output::Lcs(r, tb)
        }
        Input::Glws { problem, .. } => Output::Glws(parallel_convex_glws(problem)),
        Input::Gap(a, b) => {
            let inst = gap_instance(a, b);
            let r = parallel_gap_packed(&inst);
            let ops = try_reconstruct_gap_ops(&inst, &r.d);
            Output::Gap(r, ops)
        }
        Input::Obst(w) => Output::Obst(parallel_obst(w)),
        Input::Oat(w) => Output::Oat(parallel_oat_auto(w)),
        Input::Tree(inst) => Output::Tree(parallel_tree_glws_auto(inst, CostShape::Convex)),
    }
}

/// Run `f`, turning a panic into `None`.
pub fn caught<R>(f: impl FnOnce() -> R) -> Option<R> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// The best-sequential solve, traceback included where the parallel solve
/// has one: Fenwick LIS, Hunt–Szymanski LCS, Galil–Park GLWS,
/// `sequential_gap`, `knuth_obst`, Garsia–Wachs, and for trees the HLD
/// envelope cordon on `pool_1` — or, with `naive_scan`, the naive ancestor
/// scan, which the runner also tries on shallow trees where it can be the
/// faster of the two.
pub fn best_sequential(input: &Input, pool_1: &ThreadPool, naive_scan: bool) -> Output {
    match input {
        Input::Lis(a) => Output::Lis(sequential_lis(a)),
        Input::Lcs(pairs) => {
            let r = sequential_sparse_lcs(pairs);
            let tb = reconstruct_lcs(pairs, &r.pair_values, r.length);
            Output::Lcs(r, tb)
        }
        Input::Glws { problem, .. } => Output::Glws(sequential_convex_glws(problem)),
        Input::Gap(a, b) => {
            let inst = gap_instance(a, b);
            let r = sequential_gap(&inst);
            let ops = try_reconstruct_gap_ops(&inst, &r.d);
            Output::Gap(r, ops)
        }
        Input::Obst(w) => Output::Obst(knuth_obst(w)),
        Input::Oat(w) => Output::Oat(garsia_wachs(w)),
        Input::Tree(inst) if naive_scan => Output::Tree(naive_tree_glws(inst)),
        Input::Tree(inst) => {
            Output::Tree(pool_1.install(|| parallel_tree_glws_hld(inst, CostShape::Convex)))
        }
    }
}

/// Whether the naive ancestor scan is a best-sequential candidate for
/// `input`: a tree whose average node depth is below 64.
pub fn naive_scan_candidate(input: &Input) -> bool {
    let Input::Tree(inst) = input else {
        return false;
    };
    let n = inst.n();
    let mut depth = vec![0u64; n + 1];
    let mut total = 0u64;
    for v in 1..=n {
        depth[v] = depth[inst.parent[v]] + 1;
        total += depth[v];
    }
    total < 64 * n.max(1) as u64
}

/// The naive oracle's answer (`small_batch` only), or `None` for sparse LCS,
/// which has no naive oracle over matching pairs.
pub fn oracle(input: &Input) -> Option<Answer> {
    Some(match input {
        Input::Lis(a) => lis_answer(&naive_lis(a)),
        Input::Lcs(_) => return None,
        Input::Glws { problem, .. } => glws_answer(problem, &naive_glws(problem)),
        Input::Gap(a, b) => {
            let inst = gap_instance(a, b);
            let r = naive_gap(&inst);
            gap_answer(&r, &try_reconstruct_gap_ops(&inst, &r.d))
        }
        Input::Obst(w) => obst_answer(&naive_obst(w)),
        Input::Oat(w) => {
            // The interval DP gives only the cost; depths are not compared.
            AnswerBuilder::new(5)
                .checked(once(interval_dp_oat(w)))
                .build(true, Work::default())
        }
        Input::Tree(inst) => tree_answer(inst, &naive_tree_glws(inst)),
    })
}

impl Answer {
    /// The answer recorded for a reference or oracle that panicked: it
    /// fails every check.
    pub fn invalid() -> Answer {
        Answer {
            checked: 0,
            full: 0,
            valid: false,
            work: Work::default(),
        }
    }
}

/// What one instance's answers are checked against.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Best-sequential answer.
    pub reference: Answer,
    /// Naive-oracle answer, where computed.
    pub oracle: Option<Answer>,
    /// Full digest of the first parallel answer; every later solve of the
    /// same code must reproduce it.
    pub full: Option<u64>,
}

impl Expected {
    /// Compute the best-sequential reference for `input` and, with
    /// `with_oracle`, the naive oracle.
    pub fn new(input: &Input, pool_1: &ThreadPool, with_oracle: bool) -> Expected {
        let reference = caught(|| best_sequential(input, pool_1, false).answer(input));
        let oracle = if with_oracle {
            caught(|| oracle(input)).unwrap_or(Some(Answer::invalid()))
        } else {
            None
        };
        Expected {
            reference: reference.unwrap_or_else(Answer::invalid),
            oracle,
            full: None,
        }
    }

    /// Check one solve's answer (`None` = the solve panicked).  The first
    /// passing answer fixes the full digest later answers must repeat.
    pub fn check(&mut self, got: Option<&Answer>) -> bool {
        let Some(a) = got else { return false };
        let ok = a.valid
            && self.reference.valid
            && a.checked == self.reference.checked
            && self
                .oracle
                .is_none_or(|o| o.valid && o.checked == a.checked)
            && self.full.is_none_or(|f| f == a.full);
        if ok && self.full.is_none() {
            self.full = Some(a.full);
        }
        ok
    }
}
