//! The GAP edit-distance problem (Sec. 5.2, Theorem 5.2).
//!
//! GAP aligns two strings `A[1..n]` and `B[1..m]` where a whole block of
//! characters can be deleted at once: deleting `A[l+1..r]` costs `w1(l, r)`
//! and deleting `B[l+1..r]` costs `w2(l, r)`.  The GAP recurrence is
//!
//! ```text
//! P[i][j] = min_{i' < i} D[i'][j] + w1(i', i)        (a gap in A, column GLWS)
//! Q[i][j] = min_{j' < j} D[i][j'] + w2(j', j)        (a gap in B, row GLWS)
//! D[i][j] = min( P[i][j], Q[i][j], D[i-1][j-1] if A[i] = B[j] )
//! ```
//!
//! With convex (or concave) gap costs every row and every column is a GLWS
//! instance, so the optimized sequential algorithm `Γ_gap` runs in
//! `O(nm log n)` instead of `O(n²m)`.  This crate provides
//!
//! * [`naive_gap`] — the direct `O(n²m + nm²)` recurrence (oracle),
//! * [`sequential_gap`] — `Γ_gap`: row-major evaluation with one online
//!   convex decision structure per row and per column (`O(nm log n)`),
//! * [`parallel_gap_packed`] — the fully packed cordon of Theorem 5.2
//!   ([`PackedGapCordon`]): each round finalizes *every* cell whose tentative
//!   value can no longer change (the safe set), not just the next
//!   anti-diagonal, so the number of rounds is exactly the instance's
//!   effective depth `k` — the longest chain of strict tentative-value
//!   improvements — instead of the grid depth `n + m`.  Work stays
//!   `O(nm log n)` plus one wasted probe per row per round.
//!
//! The packed cordon produces the same grid as [`sequential_gap`] cell for
//! cell (validated against it and against the naive oracle in the tests).
//!
//! [`try_reconstruct_gap_ops`] traces one optimal alignment back through any
//! completed grid, returning a typed [`GapTracebackError`] on a grid that
//! does not belong to the instance.
//!
//! # The packed round: sequential staircase sweep, parallel publish
//!
//! A packed round has two phases.
//!
//! 1. **Sweep (sequential).**  Rows are visited top-down from the first
//!    unfinished row.  Each row extends its watermark left to right from its
//!    first unfinalized cell.  A cell's tentative is a pure function of
//!    **round-start state**: `min` of the global column query, the global row
//!    query (both lists hold only cells finalized in earlier rounds), and the
//!    diagonal match edge when that predecessor predates the round.  The cell
//!    is finalized unless a cell finalized *this* round strictly improves the
//!    tentative (the veto), or a row above stops short of its column (the
//!    `cutoff`, which also keeps the finalized region a staircase).  The sweep
//!    is exact, so rounds equal the effective depth and every grid, round
//!    count and frontier is identical at any thread count.
//! 2. **Publish (parallel).**  The round's cells are inserted into the global
//!    row and column decision lists.  Each row and each column receives one
//!    contiguous, independent run of insertions, so the two loops fork over
//!    rows and columns.
//!
//! The sweep's decision-list queries go through persistent per-row and
//! per-column cursors (`ConvexDecisionList::query_tracked`): queries resume
//! where the previous one left off and re-seek with one binary search only
//! when a publish insertion invalidated the cursor.  Within-round veto
//! checks scan the finalized run directly while it is short
//! (`BAND_BRUTE_MAX` cells), upgrading to a `ConvexDecisionList` band only
//! for long runs.
//!
//! The sweep stays sequential because parallelizing it does not pay: solving
//! row blocks speculatively against the round-start snapshot and replaying
//! the sweep to fix them up measured 2.5–5× slower than the plain sweep at
//! every block count above one (n = m ∈ {400, 1000, 2000}, 2-core host).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DP recurrences read most naturally with explicit state indices.
#![allow(clippy::needless_range_loop)]

use pardp_core::{run_phase_parallel, PhaseParallel};
use pardp_parutils::{round_min_grain, Metrics, MetricsCollector};
use rayon::prelude::*;

/// A GAP problem instance: two strings plus the two block-deletion cost
/// functions (cost families `w(l, r)` over positions, as in GLWS).
pub struct GapInstance<'a, W1, W2> {
    /// First string (length `n`).
    pub a: &'a [u8],
    /// Second string (length `m`).
    pub b: &'a [u8],
    /// Cost of deleting `A[l+1..=r]`.
    pub w1: W1,
    /// Cost of deleting `B[l+1..=r]`.
    pub w2: W2,
}

/// Result of a GAP computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GapResult {
    /// `d[i][j]` = minimum alignment cost of `A[1..=i]` vs `B[1..=j]`.
    pub d: Vec<Vec<i64>>,
    /// Total alignment cost `d[n][m]`.
    pub cost: i64,
    /// Work / round counters.
    pub metrics: Metrics,
}

const INF: i64 = i64::MAX / 4;

impl<'a, W1, W2> GapInstance<'a, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// Create an instance from strings and gap-cost closures.
    pub fn new(a: &'a [u8], b: &'a [u8], w1: W1, w2: W2) -> Self {
        GapInstance { a, b, w1, w2 }
    }

    #[inline]
    fn matches(&self, i: usize, j: usize) -> bool {
        self.a[i - 1] == self.b[j - 1]
    }
}

/// Build a GAP instance with the affine-plus-quadratic convex gap penalty
/// `w(l, r) = open + ext·(r-l) + quad·(r-l)²` on both strings.
pub fn convex_gap_instance<'a>(
    a: &'a [u8],
    b: &'a [u8],
    open: i64,
    ext: i64,
    quad: i64,
) -> GapInstance<'a, impl Fn(usize, usize) -> i64 + Sync, impl Fn(usize, usize) -> i64 + Sync> {
    assert!(quad >= 0, "quadratic coefficient must be non-negative");
    let cost = move |l: usize, r: usize| {
        let len = (r - l) as i64;
        open + ext * len + quad * len * len
    };
    GapInstance::new(a, b, cost, cost)
}

/// Direct evaluation of the GAP recurrence, `O(n²m + nm²)` work.
pub fn naive_gap<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let (n, m) = (inst.a.len(), inst.b.len());
    let mut d = vec![vec![INF; m + 1]; n + 1];
    d[0][0] = 0;
    let mut edges = 0u64;
    for i in 0..=n {
        for j in 0..=m {
            if i == 0 && j == 0 {
                continue;
            }
            let mut best = INF;
            for ip in 0..i {
                edges += 1;
                if d[ip][j] < INF {
                    best = best.min(d[ip][j] + (inst.w1)(ip, i));
                }
            }
            for jp in 0..j {
                edges += 1;
                if d[i][jp] < INF {
                    best = best.min(d[i][jp] + (inst.w2)(jp, j));
                }
            }
            if i > 0 && j > 0 && inst.matches(i, j) && d[i - 1][j - 1] < INF {
                edges += 1;
                best = best.min(d[i - 1][j - 1]);
            }
            d[i][j] = best;
        }
    }
    metrics.add_edges(edges);
    metrics.add_states(((n + 1) * (m + 1)) as u64);
    let cost = d[n][m];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

// ---------------------------------------------------------------------------
// Online convex decision structure (shared by the sequential and parallel
// optimized algorithms).
// ---------------------------------------------------------------------------

/// An online best-decision structure for a convex cost: decisions are inserted
/// in increasing position order and queries may come at any later position.
/// Queries do not mutate the structure (binary search over takeover
/// positions), so tentative probes are safe.
#[derive(Debug, Clone)]
struct ConvexDecisionList {
    /// `(takeover, decision, decision_value)` — from `takeover` on (until the
    /// next entry's takeover), `decision` is the best inserted decision.
    entries: Vec<(usize, usize, i64)>,
    horizon: usize,
}

impl ConvexDecisionList {
    fn new(horizon: usize) -> Self {
        ConvexDecisionList {
            entries: Vec::new(),
            horizon,
        }
    }

    /// Clear the list for reuse, keeping its allocation.
    fn reset(&mut self, horizon: usize) {
        self.entries.clear();
        self.horizon = horizon;
    }

    /// Insert a decision at `pos` with value `val`; `cost(l, r)` is the gap
    /// cost.  Decisions must be inserted in increasing `pos` order.
    fn insert(&mut self, pos: usize, val: i64, cost: &impl Fn(usize, usize) -> i64) {
        if val >= INF {
            return;
        }
        let candidate = |q: usize| val + cost(pos, q);
        // Pop entries that the new decision dominates from their own takeover.
        while let Some(&(start, dec, dval)) = self.entries.last() {
            if start > pos && candidate(start) <= dval + cost(dec, start) {
                self.entries.pop();
            } else {
                break;
            }
        }
        // Find the takeover position of the new decision vs the current last.
        let takeover = match self.entries.last() {
            None => pos + 1,
            Some(&(start, dec, dval)) => {
                let incumbent = |q: usize| dval + cost(dec, q);
                // First q in (max(start, pos)+1 ..= horizon] where the new
                // decision is at least as good (suffix property of convexity).
                // Galloping search: in the ascending insert streams produced
                // by the row-major sweeps, the takeover usually sits just
                // after the insert position, so probing base+1, base+2,
                // base+4, ... then binary-searching the bracketed interval is
                // O(log(takeover - pos)) amortized instead of a full-horizon
                // binary search per insert (same monotone predicate, so the
                // takeover found — and every stored value — is identical).
                let base = start.max(pos);
                let mut lo = base + 1;
                let mut hi;
                let mut step = 1usize;
                loop {
                    let probe = base + step;
                    if probe > self.horizon {
                        hi = self.horizon + 1; // horizon+1 = never
                        break;
                    }
                    if candidate(probe) <= incumbent(probe) {
                        hi = probe;
                        break;
                    }
                    lo = probe + 1;
                    step *= 2;
                }
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if candidate(mid) <= incumbent(mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            }
        };
        if takeover <= self.horizon {
            self.entries.push((takeover, pos, val));
        }
    }

    /// Best value at query position `q` (must be greater than every inserted
    /// decision position), or `INF` if no decision applies.
    fn query(&self, q: usize, cost: &impl Fn(usize, usize) -> i64) -> i64 {
        let idx = self.entries.partition_point(|&(start, _, _)| start <= q);
        if idx == 0 {
            return INF;
        }
        let (_, dec, dval) = self.entries[idx - 1];
        dval + cost(dec, q)
    }

    /// Cursor-amortized [`ConvexDecisionList::query`] for cursors that persist
    /// across interleaved inserts at *arbitrary* positions (e.g. across
    /// packed-GAP rounds, where publish insertions land below the cursor's
    /// last query point).  Queries at non-decreasing positions advance the
    /// cursor linearly.  Inserts pop only from the tail and push to the tail,
    /// so a stale cursor can only be off in one detectable way — pointing
    /// past an entry whose takeover now exceeds `q` — which is repaired with
    /// one binary search.  Identical result to `query`.
    fn query_tracked(
        &self,
        cursor: &mut u32,
        q: usize,
        cost: &impl Fn(usize, usize) -> i64,
    ) -> i64 {
        let len = self.entries.len();
        let mut idx = (*cursor as usize).min(len);
        while idx < len && self.entries[idx].0 <= q {
            idx += 1;
        }
        if idx > 0 && self.entries[idx - 1].0 > q {
            idx = self.entries.partition_point(|&(start, _, _)| start <= q);
        }
        *cursor = idx as u32;
        if idx == 0 {
            return INF;
        }
        let (_, dec, dval) = self.entries[idx - 1];
        dval + cost(dec, q)
    }
}

/// The optimized sequential algorithm `Γ_gap`: row-major evaluation with one
/// online convex decision list per row (for `Q`) and per column (for `P`).
/// Requires convex gap costs.  `O(nm log(n+m))` work.
pub fn sequential_gap<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let (n, m) = (inst.a.len(), inst.b.len());
    let mut d = vec![vec![INF; m + 1]; n + 1];
    let mut row_struct: Vec<ConvexDecisionList> =
        (0..=n).map(|_| ConvexDecisionList::new(m)).collect();
    let mut col_struct: Vec<ConvexDecisionList> =
        (0..=m).map(|_| ConvexDecisionList::new(n)).collect();
    let mut probes = 0u64;
    for i in 0..=n {
        for j in 0..=m {
            let value = if i == 0 && j == 0 {
                0
            } else {
                let mut best = col_struct[j]
                    .query(i, &inst.w1)
                    .min(row_struct[i].query(j, &inst.w2));
                probes += 2;
                if i > 0 && j > 0 && inst.matches(i, j) {
                    best = best.min(d[i - 1][j - 1]);
                }
                best
            };
            d[i][j] = value;
            row_struct[i].insert(j, value, &inst.w2);
            col_struct[j].insert(i, value, &inst.w1);
            metrics.add_edges(3);
        }
    }
    metrics.add_probes(probes);
    metrics.add_states(((n + 1) * (m + 1)) as u64);
    let cost = d[n][m];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

// ---------------------------------------------------------------------------
// Packed cordon (Theorem 5.2): rounds = effective depth instead of n + m.
// ---------------------------------------------------------------------------

/// Packed parallel GAP (Theorem 5.2): the same grid and `O(nm log n)` work
/// as [`sequential_gap`], in a round count equal to the instance's
/// *effective depth* `k` — the longest chain of strict tentative-value
/// improvements — instead of the grid depth `n + m`.
///
/// Each round finalizes the entire *safe set*: every cell whose tentative
/// value (computed from already-finalized cells) provably equals its final DP
/// value.  A cell is kept back (Bad) exactly when a cell finalized in the
/// same round strictly improves its tentative, or when one of its
/// predecessors is kept back; one wasted probe per row per round is charged
/// to `wasted_states`.
pub fn parallel_gap_packed<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> GapResult
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let metrics = MetricsCollector::new();
    let d = run_phase_parallel(PackedGapCordon::new(inst), &metrics);
    let cost = d[inst.a.len()][inst.b.len()];
    GapResult {
        d,
        cost,
        metrics: metrics.snapshot(),
    }
}

/// Within-round veto checks scan the finalized run directly (early-exit on
/// the first improving predecessor) while the run is at most this long;
/// longer runs upgrade to a `ConvexDecisionList` band.  Runs on the bench
/// workloads average 1–2 cells, so the bands almost never materialize.
const BAND_BRUTE_MAX: usize = 32;

/// [`PhaseParallel`] instance for the packed GAP evaluation.
///
/// The finalized region is always a *staircase* (a down-set of the grid): row
/// `i` is finalized exactly on columns `0..r[i]`, with `r` non-increasing in
/// `i`.  Each round extends every watermark as far as the safe-set rule
/// allows:
///
/// * a cell's tentative `T` is the best reachable value through cells
///   finalized *before* this round (global row/column structures, plus the
///   diagonal match edge),
/// * a cell is **safe** iff every unfinalized predecessor is safe and no
///   predecessor finalized *this* round strictly improves `T`.  Within-round
///   predecessors are checked against the finalized run directly (or a band
///   structure once the run is long); cross-row blocking is the `cutoff`
///   watermark minimum, which also keeps the staircase invariant.
///
/// Every cell whose predecessors were all finalized before the round is safe
/// by construction, so each round finalizes at least the whole ready
/// wavefront — rounds never exceed `n + m` and match the effective depth
/// exactly (pinned against a brute-force oracle in the tests).
///
/// The sweep is sequential and exact; only the publish phase forks (see the
/// module docs), so grids, rounds, and frontiers are identical at any thread
/// count.
pub struct PackedGapCordon<'i, 'a, W1, W2> {
    inst: &'i GapInstance<'a, W1, W2>,
    d: Vec<Vec<i64>>,
    /// Global structures over cells finalized in *previous* rounds.
    row_struct: Vec<ConvexDecisionList>,
    col_struct: Vec<ConvexDecisionList>,
    /// `r[i]` = first unfinalized column of row `i` (`m + 1` = row done).
    r: Vec<usize>,
    /// Snapshot of `r` at the start of the current round (kept equal to `r`
    /// between rounds by a delta re-sync over the touched row range).
    r_start: Vec<usize>,
    /// Persistent self-healing cursors into the global lists (see
    /// `ConvexDecisionList::query_tracked`): queries resume near where the
    /// previous round left off instead of re-binary-searching.
    col_cursor: Vec<u32>,
    row_cursor: Vec<u32>,
    /// Per-column within-round finalization runs (contiguous row ranges, by
    /// the staircase invariant).
    col_run_start: Vec<u32>,
    col_run_len: Vec<u32>,
    col_run_epoch: Vec<u64>,
    /// Per-column veto lists, built only when a run outgrows the brute scan.
    col_band: Vec<ConvexDecisionList>,
    /// Veto list for the row currently being swept, ditto.
    row_band: ConvexDecisionList,
    epoch: u64,
    /// First row that can still make progress (rows above are finalized).
    row_lo: usize,
    n: usize,
    m: usize,
}

impl<'i, 'a, W1, W2> PackedGapCordon<'i, 'a, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// Initialize the DP grid, the staircase watermarks, and the structures.
    pub fn new(inst: &'i GapInstance<'a, W1, W2>) -> Self {
        let (n, m) = (inst.a.len(), inst.b.len());
        let mut d = vec![vec![INF; m + 1]; n + 1];
        d[0][0] = 0;
        let mut row_struct: Vec<ConvexDecisionList> =
            (0..=n).map(|_| ConvexDecisionList::new(m)).collect();
        let mut col_struct: Vec<ConvexDecisionList> =
            (0..=m).map(|_| ConvexDecisionList::new(n)).collect();
        row_struct[0].insert(0, 0, &inst.w2);
        col_struct[0].insert(0, 0, &inst.w1);
        let mut r = vec![0usize; n + 1];
        r[0] = 1;
        PackedGapCordon {
            inst,
            d,
            row_struct,
            col_struct,
            r_start: r.clone(),
            r,
            col_cursor: vec![0; m + 1],
            row_cursor: vec![0; n + 1],
            col_run_start: vec![0; m + 1],
            col_run_len: vec![0; m + 1],
            col_run_epoch: vec![0; m + 1],
            col_band: (0..=m).map(|_| ConvexDecisionList::new(n)).collect(),
            row_band: ConvexDecisionList::new(m),
            epoch: 0,
            row_lo: 0,
            n,
            m,
        }
    }
}

impl<W1, W2> PhaseParallel for PackedGapCordon<'_, '_, W1, W2>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    /// The completed DP grid.
    type Output = Vec<Vec<i64>>;

    fn is_done(&self) -> bool {
        // `r` is non-increasing, so the last row's watermark bounds them all.
        self.r[self.n] > self.m
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let (inst, n, m) = (self.inst, self.n, self.m);
        let (w1, w2) = (&inst.w1, &inst.w2);
        self.epoch += 1;
        while self.row_lo <= n && self.r[self.row_lo] > m {
            self.row_lo += 1;
        }
        let row_lo = self.row_lo;
        let mut probes = 0u64;
        let mut wasted = 0u64;

        // --- Sequential sweep over the staircase. --------------------------
        let epoch = self.epoch;
        let PackedGapCordon {
            d,
            row_struct,
            col_struct,
            r,
            r_start,
            col_cursor,
            row_cursor,
            col_run_start,
            col_run_len,
            col_run_epoch,
            col_band,
            row_band,
            ..
        } = self;
        let mut finalized = 0usize;
        // Touched column range of this round (for the parallel publish phase).
        let (mut col_lo, mut col_hi) = (m + 1, 0usize);
        let mut row_hi = row_lo;
        // `cutoff` = min over rows above of the post-round watermark: a cell
        // (i, j) with j >= cutoff has an unfinalized column predecessor that
        // this round does not resolve, so it cannot be safe.  Rows above
        // `row_lo` are fully finalized and impose no cutoff.
        let mut cutoff = m + 1;
        for i in row_lo..=n {
            if cutoff == 0 {
                break;
            }
            row_hi = i;
            let start = r[i];
            if start >= cutoff {
                // Blocked at its first unfinalized cell by the column above;
                // the new watermark equals the old one (>= cutoff already).
                continue;
            }
            let (above, below) = d.split_at_mut(i);
            let drow = &mut below[0];
            let mut row_list = false;
            let mut j = start;
            while j < cutoff {
                // Tentative from cells finalized before this round.
                let mut t = col_struct[j]
                    .query_tracked(&mut col_cursor[j], i, w1)
                    .min(row_struct[i].query_tracked(&mut row_cursor[i], j, w2));
                probes += 2;
                // The diagonal predecessor is always finalized here (it lies
                // strictly left of the cutoff): merge it into the tentative
                // if it predates the round, veto on it if it is from this
                // round and strictly improving.
                let mut diag_new = INF;
                if i > 0 && j > 0 && inst.matches(i, j) {
                    if j - 1 < r_start[i - 1] {
                        t = t.min(above[i - 1][j - 1]);
                    } else {
                        diag_new = above[i - 1][j - 1];
                    }
                }
                // Veto: a cell finalized this round strictly improves the
                // tentative => the cell's value is not settled yet (Bad).
                let mut veto = diag_new < t;
                if !veto && col_run_epoch[j] == epoch {
                    let len = col_run_len[j] as usize;
                    if len > BAND_BRUTE_MAX {
                        probes += 1;
                        veto = col_band[j].query(i, w1) < t;
                    } else {
                        let first = col_run_start[j] as usize;
                        for ip in (first..first + len).rev() {
                            probes += 1;
                            if above[ip][j] + w1(ip, i) < t {
                                veto = true;
                                break;
                            }
                        }
                    }
                }
                if !veto && j > start {
                    if row_list {
                        probes += 1;
                        veto = row_band.query(j, w2) < t;
                    } else {
                        for jp in (start..j).rev() {
                            probes += 1;
                            if drow[jp] + w2(jp, j) < t {
                                veto = true;
                                break;
                            }
                        }
                    }
                }
                if veto {
                    wasted += 1;
                    break;
                }
                drow[j] = t;
                // Register (i, j) in the within-round veto state.
                let run = j - start + 1;
                if row_list {
                    row_band.insert(j, t, w2);
                } else if run > BAND_BRUTE_MAX {
                    row_band.reset(m);
                    for jp in start..=j {
                        row_band.insert(jp, drow[jp], w2);
                    }
                    row_list = true;
                }
                if col_run_epoch[j] != epoch {
                    col_run_epoch[j] = epoch;
                    col_run_start[j] = i as u32;
                    col_run_len[j] = 1;
                } else {
                    col_run_len[j] += 1;
                    let len = col_run_len[j] as usize;
                    match len.cmp(&(BAND_BRUTE_MAX + 1)) {
                        std::cmp::Ordering::Equal => {
                            col_band[j].reset(n);
                            let first = col_run_start[j] as usize;
                            for ip in first..i {
                                col_band[j].insert(ip, above[ip][j], w1);
                            }
                            col_band[j].insert(i, t, w1);
                        }
                        std::cmp::Ordering::Greater => {
                            col_band[j].insert(i, t, w1);
                        }
                        std::cmp::Ordering::Less => {}
                    }
                }
                finalized += 1;
                j += 1;
            }
            if j > start {
                col_lo = col_lo.min(start);
                col_hi = col_hi.max(j);
            }
            r[i] = j;
            cutoff = cutoff.min(j);
        }
        // Publish this round's cells into the global structures: each row and
        // each column receives a contiguous, independent run of insertions
        // (the staircase invariant makes per-column row ranges contiguous).
        if finalized > 0 {
            let (rs, rstart, d) = (&*r, &*r_start, &*d);
            let grain_rows = round_min_grain(row_hi - row_lo + 1);
            row_struct[row_lo..=row_hi]
                .par_iter_mut()
                .enumerate()
                .with_min_len(grain_rows)
                .for_each(|(off, st)| {
                    let i = row_lo + off;
                    for j in rstart[i]..rs[i] {
                        st.insert(j, d[i][j], w2);
                    }
                });
            let grain_cols = round_min_grain(col_hi - col_lo);
            let (run_start, run_len, run_epoch) = (&*col_run_start, &*col_run_len, &*col_run_epoch);
            col_struct[col_lo..col_hi]
                .par_iter_mut()
                .enumerate()
                .with_min_len(grain_cols)
                .for_each(|(off, st)| {
                    let j = col_lo + off;
                    // Rows finalized in column j this round (a contiguous
                    // range by the staircase invariant) were registered in
                    // the column-run tables during the sweep — no binary
                    // search over the watermarks needed.
                    if run_epoch[j] != epoch {
                        return;
                    }
                    let first = run_start[j] as usize;
                    for i in first..first + run_len[j] as usize {
                        st.insert(i, d[i][j], w1);
                    }
                });
        }
        // Re-sync the snapshot over the touched rows only (every other row's
        // watermark is unchanged, so `r_start == r` holds for the next round
        // without an O(n) copy).
        r_start[row_lo..=row_hi].copy_from_slice(&r[row_lo..=row_hi]);
        metrics.add_edges(3 * finalized as u64);
        metrics.add_probes(probes);
        metrics.add_wasted(wasted);
        finalized
    }

    fn finish(self) -> Self::Output {
        self.d
    }

    fn round_budget(&self) -> Option<u64> {
        // The effective depth never exceeds the grid depth n + m.
        Some((self.n + self.m) as u64)
    }
}

// ---------------------------------------------------------------------------
// Alignment reconstruction.
// ---------------------------------------------------------------------------

/// One move of an optimal GAP alignment, as recovered by
/// [`try_reconstruct_gap_ops`].  Positions are 1-based, matching the DP
/// indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapOp {
    /// Align `A[i]` with `B[j]` (the characters are equal).
    Match {
        /// Position in `A`.
        i: usize,
        /// Position in `B`.
        j: usize,
    },
    /// Delete the block `A[l+1..=r]` at cost `w1(l, r)`.
    GapA {
        /// Left endpoint (exclusive).
        l: usize,
        /// Right endpoint (inclusive).
        r: usize,
    },
    /// Delete the block `B[l+1..=r]` at cost `w2(l, r)`.
    GapB {
        /// Left endpoint (exclusive).
        l: usize,
        /// Right endpoint (inclusive).
        r: usize,
    },
}

/// Traceback failure: no predecessor explains the value at cell `(i, j)` —
/// the grid is not a valid GAP DP grid for the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapTracebackError {
    /// Row of the unexplained cell.
    pub i: usize,
    /// Column of the unexplained cell.
    pub j: usize,
    /// The unexplained value `d[i][j]`.
    pub value: i64,
}

impl core::fmt::Display for GapTracebackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "not a valid GAP DP grid at cell ({}, {}): value {} has no predecessor",
            self.i, self.j, self.value
        )
    }
}

impl std::error::Error for GapTracebackError {}

/// Trace one optimal alignment back through a completed DP grid `d` (as
/// returned by any of the GAP evaluations).  Deterministic tie-breaking:
/// prefer a match, then the shortest gap in `A`, then the shortest gap in
/// `B` — so identical grids always reconstruct identical alignments.
///
/// Works on any grid with no extra bookkeeping, but each gap op re-derives
/// its predecessor by scanning candidates nearest-first: *successful* scans
/// telescope (their total length is the summed gap length, at most `n + m`),
/// yet a cell whose value is explained only by the other string's gap — or
/// by nothing, on a corrupted grid — pays a full `O(i)` or `O(j)` scan, so
/// the worst case is `O(n·(n+m))`.
///
/// Returns a [`GapTracebackError`] naming the first cell (walking back from
/// `(n, m)`) whose value no predecessor explains.
pub fn try_reconstruct_gap_ops<W1, W2>(
    inst: &GapInstance<'_, W1, W2>,
    d: &[Vec<i64>],
) -> Result<Vec<GapOp>, GapTracebackError>
where
    W1: Fn(usize, usize) -> i64 + Sync,
    W2: Fn(usize, usize) -> i64 + Sync,
{
    let (n, m) = (inst.a.len(), inst.b.len());
    assert_eq!(d.len(), n + 1, "grid has wrong number of rows");
    assert_eq!(d[0].len(), m + 1, "grid has wrong number of columns");
    let (mut i, mut j) = (n, m);
    let mut ops = Vec::new();
    while i > 0 || j > 0 {
        let cur = d[i][j];
        if i > 0 && j > 0 && inst.matches(i, j) && d[i - 1][j - 1] == cur {
            ops.push(GapOp::Match { i, j });
            i -= 1;
            j -= 1;
        } else if let Some(ip) = (0..i).rev().find(|&ip| d[ip][j] + (inst.w1)(ip, i) == cur) {
            ops.push(GapOp::GapA { l: ip, r: i });
            i = ip;
        } else if let Some(jp) = (0..j).rev().find(|&jp| d[i][jp] + (inst.w2)(jp, j) == cur) {
            ops.push(GapOp::GapB { l: jp, r: j });
            j = jp;
        } else {
            return Err(GapTracebackError { i, j, value: cur });
        }
    }
    ops.reverse();
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pardp_parutils::with_threads;

    fn pseudo_string(n: usize, seed: u64, alphabet: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % alphabet) as u8
            })
            .collect()
    }

    #[test]
    fn identical_strings_align_for_free() {
        let a = pseudo_string(30, 1, 4);
        let inst = convex_gap_instance(&a, &a, 5, 1, 1);
        assert_eq!(naive_gap(&inst).cost, 0);
        assert_eq!(sequential_gap(&inst).cost, 0);
        assert_eq!(parallel_gap_packed(&inst).cost, 0);
    }

    #[test]
    fn deleting_everything_when_no_matches() {
        // Disjoint alphabets: the only option is to delete both strings whole.
        let a = vec![0u8; 12];
        let b = vec![1u8; 7];
        let inst = convex_gap_instance(&a, &b, 3, 2, 0);
        let expect = (3 + 2 * 12) + (3 + 2 * 7);
        assert_eq!(naive_gap(&inst).cost, expect);
        assert_eq!(sequential_gap(&inst).cost, expect);
        assert_eq!(parallel_gap_packed(&inst).cost, expect);
    }

    #[test]
    fn asymmetric_gap_costs() {
        // Deleting from A is much more expensive than deleting from B.
        let a = pseudo_string(20, 3, 2);
        let b = pseudo_string(25, 9, 2);
        let inst = GapInstance::new(
            &a,
            &b,
            |l: usize, r: usize| 100 + 10 * (r - l) as i64,
            |l: usize, r: usize| 1 + (r - l) as i64,
        );
        let want = naive_gap(&inst);
        assert_eq!(sequential_gap(&inst).d, want.d);
        assert_eq!(parallel_gap_packed(&inst).d, want.d);
    }

    #[test]
    fn empty_strings() {
        let empty: Vec<u8> = vec![];
        let b = pseudo_string(5, 2, 3);
        let inst = convex_gap_instance(&empty, &b, 4, 1, 1);
        let want = naive_gap(&inst);
        // Splitting the deletion of B into gaps of 2 and 3 beats one gap of 5:
        // (4+2+4) + (4+3+9) = 26 < 4+5+25 = 34.
        assert_eq!(want.cost, 26);
        assert_eq!(sequential_gap(&inst).cost, want.cost);
        assert_eq!(parallel_gap_packed(&inst).cost, want.cost);
        let inst = convex_gap_instance(&empty, &empty, 4, 1, 1);
        assert_eq!(sequential_gap(&inst).cost, 0);
    }

    #[test]
    fn block_deletion_beats_char_by_char_with_convex_open_cost() {
        // A = B plus an inserted block; with a large opening cost the optimum
        // removes the block with a single gap.
        let mut a = pseudo_string(40, 8, 5);
        let b = a.clone();
        // Insert a block of 6 junk symbols (value 9, absent from b) into a.
        for _ in 0..6 {
            a.insert(20, 9);
        }
        let inst = convex_gap_instance(&a, &b, 30, 1, 0);
        let want = naive_gap(&inst);
        // One gap of length 6 in A: 30 + 6.
        assert_eq!(want.cost, 36);
        assert_eq!(parallel_gap_packed(&inst).cost, 36);
        assert_eq!(sequential_gap(&inst).cost, 36);
    }

    /// Brute-force oracle for the packed schedule: simulate round assignment
    /// cell by cell.  A cell finalizes in round `M` (the latest round among
    /// its predecessors) when the best value through *earlier*-finalized
    /// predecessors already equals its DP value, and in round `M + 1`
    /// otherwise (its tentative still strictly improves in round `M`).  The
    /// maximum over all cells is the instance's effective depth.
    fn effective_depth_oracle<W1, W2>(inst: &GapInstance<'_, W1, W2>) -> u64
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let d = naive_gap(inst).d;
        let (n, m) = (inst.a.len(), inst.b.len());
        let mut rd = vec![vec![0u64; m + 1]; n + 1];
        let mut depth = 0;
        for i in 0..=n {
            for j in 0..=m {
                if i == 0 && j == 0 {
                    continue;
                }
                let mut preds: Vec<(u64, i64)> = Vec::new();
                for ip in 0..i {
                    preds.push((rd[ip][j], d[ip][j] + (inst.w1)(ip, i)));
                }
                for jp in 0..j {
                    preds.push((rd[i][jp], d[i][jp] + (inst.w2)(jp, j)));
                }
                if i > 0 && j > 0 && inst.matches(i, j) {
                    preds.push((rd[i - 1][j - 1], d[i - 1][j - 1]));
                }
                let max_r = preds.iter().map(|&(r, _)| r).max().unwrap();
                let older = preds
                    .iter()
                    .filter(|&&(r, _)| r < max_r)
                    .map(|&(_, v)| v)
                    .min()
                    .unwrap_or(INF);
                rd[i][j] = if older == d[i][j] { max_r } else { max_r + 1 };
                depth = depth.max(rd[i][j]);
            }
        }
        depth
    }

    fn assert_packed_depth<W1, W2>(inst: &GapInstance<'_, W1, W2>)
    where
        W1: Fn(usize, usize) -> i64 + Sync,
        W2: Fn(usize, usize) -> i64 + Sync,
    {
        let packed = parallel_gap_packed(inst);
        let depth = effective_depth_oracle(inst);
        assert!(
            packed.metrics.rounds <= depth + 1,
            "packed rounds {} exceed effective depth {depth} + 1",
            packed.metrics.rounds
        );
        assert_eq!(
            packed.metrics.rounds, depth,
            "packed rounds should match the effective depth exactly"
        );
        assert!(packed.metrics.rounds <= (inst.a.len() + inst.b.len()) as u64);
    }

    #[test]
    fn packed_and_sequential_match_naive_on_random_inputs() {
        for seed in 0..6 {
            for &(open, ext, quad) in &[(2i64, 1i64, 0i64), (10, 0, 1), (50, 3, 2)] {
                let a = pseudo_string(28, seed, 3);
                let b = pseudo_string(23, seed + 77, 3);
                let inst = convex_gap_instance(&a, &b, open, ext, quad);
                let want = naive_gap(&inst);
                let seq = sequential_gap(&inst);
                let packed = parallel_gap_packed(&inst);
                assert_eq!(seq.d, want.d, "seed {seed} cost ({open},{ext},{quad})");
                assert_eq!(packed.d, want.d, "seed {seed} cost ({open},{ext},{quad})");
                assert!(
                    packed.metrics.rounds <= (a.len() + b.len()) as u64,
                    "packing must never use more rounds than the grid depth"
                );
            }
        }
    }

    #[test]
    fn packed_matches_sequential_on_adversarial_instances() {
        // Identical strings: the all-match diagonal aligns for free.
        let a = pseudo_string(30, 1, 4);
        let inst = convex_gap_instance(&a, &a, 5, 1, 1);
        let packed = parallel_gap_packed(&inst);
        assert_eq!(packed.cost, 0);
        assert_eq!(packed.d, sequential_gap(&inst).d);

        // Disjoint alphabets: both strings must be deleted whole.
        let z = vec![0u8; 12];
        let o = vec![1u8; 7];
        let inst = convex_gap_instance(&z, &o, 3, 2, 0);
        assert_eq!(parallel_gap_packed(&inst).d, sequential_gap(&inst).d);

        // Empty strings on either side, and both empty (zero rounds).
        let empty: Vec<u8> = vec![];
        let b = pseudo_string(5, 2, 3);
        let inst = convex_gap_instance(&empty, &b, 4, 1, 1);
        assert_eq!(parallel_gap_packed(&inst).d, sequential_gap(&inst).d);
        let inst = convex_gap_instance(&b, &empty, 4, 1, 1);
        assert_eq!(parallel_gap_packed(&inst).d, sequential_gap(&inst).d);
        let inst = convex_gap_instance(&empty, &empty, 4, 1, 1);
        let trivial = parallel_gap_packed(&inst);
        assert_eq!(trivial.cost, 0);
        assert_eq!(trivial.metrics.rounds, 0);

        // Asymmetric costs (deleting from A is much more expensive).
        let a = pseudo_string(20, 3, 2);
        let b = pseudo_string(25, 9, 2);
        let inst = GapInstance::new(
            &a,
            &b,
            |l: usize, r: usize| 100 + 10 * (r - l) as i64,
            |l: usize, r: usize| 1 + (r - l) as i64,
        );
        assert_eq!(parallel_gap_packed(&inst).d, sequential_gap(&inst).d);
    }

    #[test]
    fn packed_rounds_equal_effective_depth() {
        for seed in 0..4 {
            for &(open, ext, quad) in &[(2i64, 1i64, 0i64), (10, 0, 1)] {
                let a = pseudo_string(18, seed, 3);
                let b = pseudo_string(15, seed + 41, 3);
                let inst = convex_gap_instance(&a, &b, open, ext, quad);
                assert_packed_depth(&inst);
            }
        }
        // Adversarial shapes.
        let a = pseudo_string(16, 1, 4);
        assert_packed_depth(&convex_gap_instance(&a, &a, 5, 1, 1));
        let z = vec![0u8; 10];
        let o = vec![1u8; 8];
        assert_packed_depth(&convex_gap_instance(&z, &o, 3, 2, 0));
        let empty: Vec<u8> = vec![];
        assert_packed_depth(&convex_gap_instance(&empty, &o, 4, 1, 1));
    }

    #[test]
    fn packed_compresses_rounds_on_shallow_instances() {
        // Disjoint alphabets with an affine cost have effective depth 2: one
        // gap along each axis reaches every cell through round-1 boundary
        // cells.  An anti-diagonal wavefront would run all n + m = 120
        // rounds; the packed cordon collapses them.
        let z = vec![0u8; 60];
        let o = vec![1u8; 60];
        let inst = convex_gap_instance(&z, &o, 3, 2, 0);
        let packed = parallel_gap_packed(&inst);
        assert_eq!(packed.d, sequential_gap(&inst).d);
        assert_eq!(packed.metrics.rounds, 2);

        // An all-match instance is the opposite extreme: the diagonal is a
        // chain of strict improvements, so the effective depth is n — still
        // half the grid depth 2n.
        let a = pseudo_string(60, 7, 4);
        let inst = convex_gap_instance(&a, &a, 5, 1, 1);
        let packed = parallel_gap_packed(&inst);
        assert_eq!(packed.d, sequential_gap(&inst).d);
        assert_eq!(packed.metrics.rounds, 60);
    }

    #[test]
    fn reconstruction_covers_both_strings_and_recomputes_cost() {
        let a = pseudo_string(24, 11, 3);
        let b = pseudo_string(19, 12, 3);
        let inst = convex_gap_instance(&a, &b, 4, 1, 1);
        let res = parallel_gap_packed(&inst);
        let ops = try_reconstruct_gap_ops(&inst, &res.d).unwrap();
        let (mut i, mut j, mut cost) = (0usize, 0usize, 0i64);
        for op in &ops {
            match *op {
                GapOp::Match { i: oi, j: oj } => {
                    assert_eq!((oi, oj), (i + 1, j + 1), "match must advance both");
                    assert_eq!(a[oi - 1], b[oj - 1], "matched characters must agree");
                    i = oi;
                    j = oj;
                }
                GapOp::GapA { l, r } => {
                    assert_eq!(l, i, "A-gap must start at the current position");
                    cost += (inst.w1)(l, r);
                    i = r;
                }
                GapOp::GapB { l, r } => {
                    assert_eq!(l, j, "B-gap must start at the current position");
                    cost += (inst.w2)(l, r);
                    j = r;
                }
            }
        }
        assert_eq!((i, j), (a.len(), b.len()), "ops must cover both strings");
        assert_eq!(cost, res.cost, "op costs must recompute the DP optimum");
    }

    #[test]
    fn corrupted_grid_reports_the_bad_cell_instead_of_panicking() {
        let a = pseudo_string(12, 5, 3);
        let b = pseudo_string(10, 6, 3);
        let inst = convex_gap_instance(&a, &b, 4, 1, 1);
        let res = sequential_gap(&inst);
        let mut bad = res.d.clone();
        bad[a.len()][b.len()] -= 1; // no predecessor can explain this value
        let err = try_reconstruct_gap_ops(&inst, &bad).unwrap_err();
        assert_eq!((err.i, err.j), (a.len(), b.len()));
        assert_eq!(err.value, res.d[a.len()][b.len()] - 1);
        assert!(err.to_string().contains("not a valid GAP DP grid"));
        // The intact grid still reconstructs.
        assert!(try_reconstruct_gap_ops(&inst, &res.d).is_ok());
    }

    #[test]
    fn packed_matches_sequential_on_long_runs_at_any_thread_count() {
        // Long-run instances exercise the band upgrade paths: row runs of
        // length m on disjoint alphabets, column runs of length n and a
        // same-round diagonal chain on identical strings.
        let a = pseudo_string(44, 1, 4);
        let identical = convex_gap_instance(&a, &a, 5, 1, 1);
        let z = vec![0u8; 48];
        let o = vec![1u8; 41];
        let disjoint = convex_gap_instance(&z, &o, 3, 2, 0);
        for (name, inst) in [("identical", &identical), ("disjoint", &disjoint)] {
            let want = sequential_gap(inst);
            for threads in [1usize, 2, 8] {
                let got = with_threads(threads, || parallel_gap_packed(inst));
                assert_eq!(got.d, want.d, "{name}, {threads} threads");
            }
        }
    }

    #[test]
    fn convex_decision_list_tracked_queries_match_binary_queries() {
        let cost = |l: usize, r: usize| {
            let len = (r - l) as i64;
            5 + 3 * len + 2 * len * len
        };
        let horizon = 80;
        let mut list = ConvexDecisionList::new(horizon);
        let mut state = 99u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 90) as i64
        };
        // Interleave ascending inserts with an advancing cursor, mirroring
        // the sweep's access pattern within one row or column.
        let mut cursor = 0u32;
        for pos in 0..40usize {
            list.insert(pos, next(), &cost);
            let q = pos + 1;
            assert_eq!(
                list.query_tracked(&mut cursor, q, &cost),
                list.query(q, &cost),
                "q {q}"
            );
        }
        // A cursor that ran ahead to the horizon goes stale once inserts
        // pop entries past the next query point; it must heal.
        let mut ahead = 0u32;
        assert_eq!(
            list.query_tracked(&mut ahead, horizon, &cost),
            list.query(horizon, &cost)
        );
        for pos in 40..60usize {
            list.insert(pos, next(), &cost);
            let q = pos + 1;
            assert_eq!(
                list.query_tracked(&mut ahead, q, &cost),
                list.query(q, &cost),
                "stale cursor, q {q}"
            );
            assert_eq!(
                list.query_tracked(&mut cursor, q, &cost),
                list.query(q, &cost),
                "q {q}"
            );
        }
    }

    #[test]
    fn convex_decision_list_matches_bruteforce() {
        // Standalone check of the online structure against brute force.
        let cost = |l: usize, r: usize| {
            let len = (r - l) as i64;
            7 + 2 * len + len * len
        };
        let horizon = 60;
        let mut list = ConvexDecisionList::new(horizon);
        let mut inserted: Vec<(usize, i64)> = Vec::new();
        let mut state = 12345u64;
        for pos in 0..40usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let val = (state % 50) as i64;
            list.insert(pos, val, &cost);
            inserted.push((pos, val));
            // Query a few positions after pos.
            for q in (pos + 1)..=(pos + 5).min(horizon) {
                let want = inserted.iter().map(|&(p, v)| v + cost(p, q)).min().unwrap();
                assert_eq!(list.query(q, &cost), want, "pos {pos} q {q}");
            }
        }
    }
}
