//! Tournament (winner) tree with batched prefix-minimum extraction.
//!
//! This is the data structure behind the parallel LIS and sparse-LCS cordon
//! algorithms (Sec. 3 of the paper, following Gu et al. \[47\]).  The tree is
//! built once over the whole input sequence; each cordon round extracts — and
//! removes — every *prefix-minimum record*, i.e. every still-active element
//! that is not blocked by any smaller active element to its left.  Extracting
//! `l` records out of `L` remaining elements costs `O(l · log(L/l))` work and
//! `O(log L)` span, which is what gives the `O(n log k)` / `O(L log n)` total
//! work bounds of Theorems 3.1 and 3.2.
//!
//! [`sequential_staircase`] computes the same per-position values with the
//! sequential patience / Hunt–Szymanski threshold loop; it is the sequential
//! algorithm of both problems.
//!
//! # Layout
//!
//! The tree is *cache-blocked*: the sequence is cut into blocks of
//! `BLOCK` consecutive positions, each stored as a flat implicit binary
//! heap (`node v`'s children at `2v`/`2v+1`, leaves in one contiguous run),
//! and a small flat *summary heap* over the per-block minima routes each
//! round to the blocks that actually contain records.  Compared to the
//! pointer-based tree this replaces per-node allocations and pointer chasing
//! with sequential scans of arrays that fit in L1/L2, and it gives the
//! parallel round a natural decomposition: blocks are disjoint `&mut`
//! borrows, so touched blocks are extracted concurrently by splitting the
//! block slice — no interior mutability, no per-round allocation (each block
//! reuses a records buffer).
//!
//! Rounds whose estimated work is below the active grain hint run entirely
//! on the calling thread: no pool job is pushed and no worker is woken
//! (pinned by the dispatch-counter test in `tests/pool_fastpath.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pardp_core::PhaseParallel;
use pardp_parutils::{round_min_grain, MetricsCollector};

/// Positions per cache block.  A block's heap is `2 × BLOCK` `Option<K>`
/// slots — 32 KiB for `i64` keys, small enough that one round's scan of a
/// block stays in L1/L2.
const BLOCK: usize = 1024;

/// Whether `key` is a prefix-minimum record given `carry`, the minimum active
/// key to its left.  Ties are records: LIS relaxes `i` from `j` only when
/// `A[j] < A[i]`, and sparse LCS only from a strictly smaller `j`, so an equal
/// key to the left never blocks.
#[inline]
fn is_record<K: Ord>(key: K, carry: Option<K>) -> bool {
    carry.is_none_or(|c| key <= c)
}

#[inline]
fn min_opt<K: Ord>(a: Option<K>, b: Option<K>) -> Option<K> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(if a <= b { a } else { b }),
    }
}

/// One cache block: an implicit heap over up to [`BLOCK`] consecutive
/// positions plus a reusable buffer for the records it produced this round.
#[derive(Debug, Clone)]
struct Block<K> {
    /// Implicit heap: root at index 1, node `v`'s children at `2v` / `2v+1`,
    /// leaf for local position `i` at `cap + i` (positions past `len` are
    /// permanently `None`).
    tree: Vec<Option<K>>,
    /// Leaf capacity (`len` rounded up to a power of two).
    cap: usize,
    /// Global position of the block's first element.
    base: usize,
    /// Still-active elements in this block.
    active: usize,
    /// Records extracted in the current round, `(global position, key)` in
    /// increasing position order.  Cleared and refilled each round the block
    /// is touched; capacity is retained, so steady-state rounds do not
    /// allocate.
    records: Vec<(usize, K)>,
}

impl<K: Ord + Copy> Block<K> {
    fn build(keys: &[K], base: usize) -> Self {
        debug_assert!(!keys.is_empty());
        let cap = keys.len().next_power_of_two();
        let mut tree = vec![None; 2 * cap];
        for (i, &k) in keys.iter().enumerate() {
            tree[cap + i] = Some(k);
        }
        for v in (1..cap).rev() {
            tree[v] = min_opt(tree[2 * v], tree[2 * v + 1]);
        }
        Block {
            tree,
            cap,
            base,
            active: keys.len(),
            records: Vec::new(),
        }
    }

    /// Minimum active key in the block (the heap root).
    #[inline]
    fn min(&self) -> Option<K> {
        self.tree[1]
    }

    /// Extract every record of this block into `self.records`, given the
    /// minimum active key strictly to the block's left at round start.
    fn extract(&mut self, carry: Option<K>) {
        self.records.clear();
        self.extract_node(1, carry);
    }

    fn extract_node(&mut self, node: usize, carry: Option<K>) {
        // Prune: if even the smallest key below `node` is not a record
        // w.r.t. `carry`, nothing below can be.
        let m = match self.tree[node] {
            None => return,
            Some(m) => m,
        };
        if !is_record(m, carry) {
            return;
        }
        if node >= self.cap {
            self.tree[node] = None;
            self.records.push((self.base + (node - self.cap), m));
            self.active -= 1;
            return;
        }
        // The right child's carry uses the *pre-extraction* minimum of the
        // left child: elements removed on the left in this very round were
        // active when the round started, and the cordon is defined against
        // the state at the start of the round (all extracted elements share
        // the same DP value).
        let right_carry = min_opt(carry, self.tree[2 * node]);
        self.extract_node(2 * node, carry);
        self.extract_node(2 * node + 1, right_carry);
        self.tree[node] = min_opt(self.tree[2 * node], self.tree[2 * node + 1]);
    }
}

/// Extract `touched` blocks in parallel by recursively splitting the block
/// slice: the touched list is sorted by block index, so each half of the
/// list maps to a disjoint sub-slice of `blocks` (`split_at_mut` — no
/// interior mutability needed).  `first` is the global index of `blocks[0]`;
/// `grain` is the fork cutoff in touched-block units.
fn extract_touched<K: Ord + Copy + Send + Sync>(
    blocks: &mut [Block<K>],
    first: usize,
    touched: &[(usize, Option<K>)],
    grain: usize,
) {
    if touched.len() <= grain.max(1) {
        for &(b, carry) in touched {
            blocks[b - first].extract(carry);
        }
        return;
    }
    let mid = touched.len() / 2;
    let (left, right) = touched.split_at(mid);
    let split = right[0].0;
    let (bl, br) = blocks.split_at_mut(split - first);
    rayon::join(
        || extract_touched(bl, first, left, grain),
        || extract_touched(br, split, right, grain),
    );
}

/// Tournament tree over a fixed sequence of keys.
#[derive(Debug, Clone)]
pub struct TournamentTree<K> {
    blocks: Vec<Block<K>>,
    /// Implicit heap over the per-block minima: root at 1, block `b`'s leaf
    /// at `scap + b`.  Routes each round to the blocks containing records in
    /// `O(t · log(B/t))` for `t` touched blocks.
    summary: Vec<Option<K>>,
    scap: usize,
    /// Blocks touched by the current round with their carries, in increasing
    /// block order.  Reused across rounds.
    touched: Vec<(usize, Option<K>)>,
    active: usize,
}

impl<K: Ord + Copy + Send + Sync> TournamentTree<K> {
    /// Build the tree over `keys` (positions are `0..keys.len()`).  `O(n)`
    /// work, `O(log n)` span; blocks are built in parallel for large inputs,
    /// fully inline for sub-grain ones.
    pub fn new(keys: &[K]) -> Self {
        use rayon::prelude::*;
        let len = keys.len();
        let num_blocks = len.div_ceil(BLOCK);
        let grain_blocks = round_min_grain(len).div_ceil(BLOCK).max(1);
        let blocks: Vec<Block<K>> = (0..num_blocks)
            .into_par_iter()
            .with_min_len(grain_blocks)
            .map(|b| {
                let lo = b * BLOCK;
                let hi = (lo + BLOCK).min(len);
                Block::build(&keys[lo..hi], lo)
            })
            .collect();
        let scap = num_blocks.next_power_of_two().max(1);
        let mut summary = vec![None; 2 * scap];
        for (b, blk) in blocks.iter().enumerate() {
            summary[scap + b] = blk.min();
        }
        for v in (1..scap).rev() {
            summary[v] = min_opt(summary[2 * v], summary[2 * v + 1]);
        }
        TournamentTree {
            blocks,
            summary,
            scap,
            touched: Vec::new(),
            active: len,
        }
    }

    /// Walk the summary heap, collecting every block whose minimum is a
    /// record under its carry (exactly the blocks containing ≥ 1 record)
    /// into `self.touched`, in increasing block order.  Uses the pre-round
    /// summary minima throughout, so right-sibling carries see the state at
    /// round start.
    fn collect_touched(&mut self, node: usize, carry: Option<K>) {
        let m = match self.summary[node] {
            None => return,
            Some(m) => m,
        };
        if !is_record(m, carry) {
            return;
        }
        if node >= self.scap {
            self.touched.push((node - self.scap, carry));
            return;
        }
        let right_carry = min_opt(carry, self.summary[2 * node]);
        self.collect_touched(2 * node, carry);
        self.collect_touched(2 * node + 1, right_carry);
    }

    /// Run one extraction round: fill each touched block's `records` buffer
    /// and repair the summary.  Returns the number of records extracted.
    ///
    /// Sub-grain rounds (estimated work below the active
    /// [`round_min_grain`] hint) run entirely on the calling thread and push
    /// no pool jobs.
    fn extract_round(&mut self) -> usize {
        self.touched.clear();
        if self.active == 0 {
            return 0;
        }
        self.collect_touched(1, None);
        debug_assert!(!self.touched.is_empty());
        // Each touched block costs at most one block scan; cap the estimate
        // by the number of elements still alive.
        let est_work = (self.touched.len() * BLOCK).min(self.active);
        let grain = round_min_grain(est_work);
        let grain_blocks = if grain >= est_work {
            // Sub-grain round: stay on the calling thread, no pool traffic.
            self.touched.len()
        } else {
            grain.div_ceil(BLOCK).max(1)
        };
        extract_touched(&mut self.blocks, 0, &self.touched, grain_blocks);
        let mut count = 0;
        for &(b, _) in &self.touched {
            count += self.blocks[b].records.len();
            self.summary[self.scap + b] = self.blocks[b].min();
        }
        for &(b, _) in &self.touched {
            let mut v = (self.scap + b) / 2;
            while v >= 1 {
                self.summary[v] = min_opt(self.summary[2 * v], self.summary[2 * v + 1]);
                v /= 2;
            }
        }
        self.active -= count;
        count
    }

    /// Extract and deactivate every prefix-minimum record, returning them as
    /// `(position, key)` pairs in increasing position order.
    ///
    /// A record is an active element with no active element to its left whose
    /// key is strictly smaller.  Returns an empty vector
    /// once all elements have been extracted.
    pub fn extract_prefix_minima(&mut self) -> Vec<(usize, K)> {
        let count = self.extract_round();
        let mut out = Vec::with_capacity(count);
        for &(b, _) in &self.touched {
            out.extend_from_slice(&self.blocks[b].records);
        }
        out
    }
}

/// [`PhaseParallel`] instance over a tournament tree: round `r` extracts every
/// prefix-minimum record and assigns it DP value `r`.
///
/// This is the shared cordon of Sec. 3 — parallel LIS runs it over the input
/// values, parallel sparse LCS over the `j` keys of the canonically sorted
/// matching pairs — so both problems delegate to this one implementation.
pub struct StaircaseCordon<K> {
    tree: TournamentTree<K>,
    values: Vec<u32>,
    round: u32,
    remaining: usize,
}

impl<K: Ord + Copy + Send + Sync> StaircaseCordon<K> {
    /// Build the tournament tree over `keys`.
    pub fn new(keys: &[K]) -> Self {
        StaircaseCordon {
            tree: TournamentTree::new(keys),
            values: vec![0u32; keys.len()],
            round: 0,
            remaining: keys.len(),
        }
    }
}

impl<K: Ord + Copy + Send + Sync> PhaseParallel for StaircaseCordon<K> {
    /// Per-position DP values (the round each position was extracted in) plus
    /// the number of rounds, i.e. the staircase depth.
    type Output = (Vec<u32>, u32);

    fn is_done(&self) -> bool {
        self.remaining == 0
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        let count = self.tree.extract_round();
        if count == 0 {
            return 0;
        }
        self.round += 1;
        metrics.add_edges(count as u64);
        self.remaining -= count;
        // Drain the per-block record buffers straight into the DP values —
        // no concatenated records vector is ever materialized.
        let round = self.round;
        let tree = &self.tree;
        for &(b, _) in &tree.touched {
            for &(pos, _) in &tree.blocks[b].records {
                self.values[pos] = round;
            }
        }
        count
    }

    fn finish(self) -> Self::Output {
        (self.values, self.round)
    }

    fn round_budget(&self) -> Option<u64> {
        // The staircase depth never exceeds the number of elements (Theorems
        // 3.1 and 3.2: it equals the LIS/LCS length).
        Some(self.remaining as u64)
    }
}

/// The sequential staircase: the `(values, depth)` [`StaircaseCordon`]
/// returns, from one left-to-right pass of the patience / Hunt–Szymanski
/// threshold loop.
///
/// `thresholds[t]` is the smallest key that ends a strictly increasing chain
/// of length `t + 1` so far, so a key's value is one plus the number of
/// thresholds strictly below it: `O(n log k)` work for depth `k`.  Counts one
/// edge and one state per key, and `log₂` of the threshold count as probes.
pub fn sequential_staircase<K: Ord + Copy>(
    keys: impl IntoIterator<Item = K>,
    metrics: &MetricsCollector,
) -> (Vec<u32>, u32) {
    let keys = keys.into_iter();
    let mut values = Vec::with_capacity(keys.size_hint().0);
    let mut thresholds: Vec<K> = Vec::new();
    let mut probes = 0u64;
    for key in keys {
        let pos = thresholds.partition_point(|&t| t < key);
        probes += thresholds.len().max(2).ilog2() as u64;
        if pos == thresholds.len() {
            thresholds.push(key);
        } else {
            thresholds[pos] = key;
        }
        values.push(pos as u32 + 1);
    }
    let n = values.len() as u64;
    metrics.add_edges(n);
    metrics.add_probes(probes);
    metrics.add_states(n);
    (values, thresholds.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The prefix-minimum records of one round over `keys`, by a linear scan.
    fn reference_prefix_minima(keys: &[(usize, u64)]) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let mut carry: Option<u64> = None;
        for &(pos, k) in keys {
            if is_record(k, carry) {
                out.push((pos, k));
            }
            carry = min_opt(carry, Some(k));
        }
        out
    }

    fn simulate_rounds(keys: &[u64]) -> Vec<Vec<(usize, u64)>> {
        // Oracle: repeatedly take prefix-min records from the remaining list.
        let mut remaining: Vec<(usize, u64)> = keys.iter().copied().enumerate().collect();
        let mut rounds = Vec::new();
        while !remaining.is_empty() {
            let records = reference_prefix_minima(&remaining);
            let picked: std::collections::HashSet<usize> =
                records.iter().map(|&(p, _)| p).collect();
            remaining.retain(|&(p, _)| !picked.contains(&p));
            rounds.push(records);
        }
        rounds
    }

    fn check_against_oracle(keys: &[u64]) {
        let mut tree = TournamentTree::new(keys);
        let oracle = simulate_rounds(keys);
        let mut values = vec![0u32; keys.len()];
        for (round, want) in oracle.iter().enumerate() {
            let got = tree.extract_prefix_minima();
            assert_eq!(&got, want, "round {round} mismatch for {keys:?}");
            for &(pos, _) in want {
                values[pos] = round as u32 + 1;
            }
        }
        assert!(tree.extract_prefix_minima().is_empty());
        // The sequential threshold loop assigns every key its round.
        let seq = sequential_staircase(keys.iter().copied(), &MetricsCollector::new());
        assert_eq!(
            seq,
            (values, oracle.len() as u32),
            "sequential for {keys:?}"
        );
    }

    #[test]
    fn example_from_paper_figure2() {
        // Input sequence of Fig. 2(a): 7 3 6 8 1 4 2 5.
        let keys = [7u64, 3, 6, 8, 1, 4, 2, 5];
        let mut tree = TournamentTree::new(&keys);
        // Round 1: prefix minima are 7, 3, 1 (positions 0, 1, 4).
        assert_eq!(tree.extract_prefix_minima(), vec![(0, 7), (1, 3), (4, 1)]);
        // Round 2: remaining 6 8 4 2 5 -> prefix minima 6, 4, 2.
        assert_eq!(tree.extract_prefix_minima(), vec![(2, 6), (5, 4), (6, 2)]);
        // Round 3: remaining 8 5 -> prefix minima 8, 5.
        assert_eq!(tree.extract_prefix_minima(), vec![(3, 8), (7, 5)]);
        assert!(tree.extract_prefix_minima().is_empty());
    }

    #[test]
    fn rounds_equal_lis_length() {
        // The number of extraction rounds equals the LIS length of the input
        // (Theorem 3.1's span argument).
        let keys = [7u64, 3, 6, 8, 1, 4, 2, 5];
        let rounds = simulate_rounds(&keys).len();
        assert_eq!(rounds, 3); // LIS of the Fig. 2 sequence is 3 (e.g. 3 4 5).
    }

    #[test]
    fn increasing_input_one_round() {
        let keys: Vec<u64> = (0..1000).collect();
        let mut tree = TournamentTree::new(&keys);
        let r1 = tree.extract_prefix_minima();
        assert_eq!(r1.len(), 1, "only the first element is a record");
        // Decreasing input: everything is a record in round one.
        let keys: Vec<u64> = (0..1000).rev().collect();
        let mut tree = TournamentTree::new(&keys);
        assert_eq!(tree.extract_prefix_minima().len(), 1000);
        assert!(tree.extract_prefix_minima().is_empty());
    }

    #[test]
    fn ties_are_records() {
        let keys = [5u64, 5, 5];
        let mut tree = TournamentTree::new(&keys);
        assert_eq!(tree.extract_prefix_minima().len(), 3);
        assert!(tree.extract_prefix_minima().is_empty());
    }

    #[test]
    fn empty_and_singleton() {
        let mut t: TournamentTree<u64> = TournamentTree::new(&[]);
        assert!(t.extract_prefix_minima().is_empty());
        let mut t = TournamentTree::new(&[42u64]);
        assert_eq!(t.extract_prefix_minima(), vec![(0, 42)]);
        assert!(t.extract_prefix_minima().is_empty());
    }

    #[test]
    fn pseudo_random_inputs_match_oracle() {
        // Deterministic pseudo-random sequences of several sizes, straddling
        // the block boundary (1024) and multiple blocks.
        for &n in &[
            1usize, 2, 3, 10, 63, 64, 65, 257, 1000, 1023, 1024, 1025, 5000,
        ] {
            for modulus in [997u64, 5] {
                let keys: Vec<u64> = (0..n as u64).map(|i| (i * 48271 + 11) % modulus).collect();
                check_against_oracle(&keys);
            }
        }
    }

    #[test]
    fn cross_block_carry_blocks_later_blocks() {
        // A tiny key in block 0 must block everything in later blocks.
        let mut keys = vec![1_000_000u64; 3000];
        keys[0] = 0;
        let mut tree = TournamentTree::new(&keys);
        assert_eq!(tree.extract_prefix_minima(), vec![(0, 0)]);
        // With the blocker gone, every remaining (equal) key is a record.
        assert_eq!(tree.extract_prefix_minima().len(), 2999);
        assert!(tree.extract_prefix_minima().is_empty());
    }

    #[test]
    fn large_input_fully_drains() {
        let n = 100_000usize;
        let keys: Vec<u64> = (0..n as u64)
            .map(|i| (i * 2654435761) % 1_000_003)
            .collect();
        let mut tree = TournamentTree::new(&keys);
        let mut total = 0usize;
        let mut rounds = 0usize;
        loop {
            let r = tree.extract_prefix_minima();
            if r.is_empty() {
                break;
            }
            total += r.len();
            rounds += 1;
            assert!(rounds <= n, "cannot need more rounds than elements");
        }
        assert_eq!(total, n);
    }
}
