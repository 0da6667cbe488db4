//! Seeded benchmark inputs.
//!
//! Every workload is a fixed list of instances whose data comes from the
//! `pardp-workloads` generators, each seeded with a value derived from the
//! run's `--seed` and the instance's position.  Generation runs on the
//! calling thread only, so inputs never depend on the pool size.

use pardp_glws::PostOfficeProblem;
use pardp_lcs::MatchPair;
use pardp_treedp::TreeGlwsInstance;
use pardp_workloads as gen;

/// Problem modules in report order; `Input::module` indexes into this.
pub const MODULES: [&str; 7] = ["lis", "lcs", "glws", "gap", "obst", "oat", "treedp"];

/// Tree-GLWS transition cost: a fixed opening cost plus the squared root
/// distance covered, a convex function of the distance (the `Convex` shape).
pub fn tree_w(du: u64, dv: u64) -> i64 {
    let x = (dv - du) as i64;
    20_000 + x * x
}

/// Tree-GLWS decision value: the ancestor's DP value itself.
pub fn tree_e(d: i64, _u: usize) -> i64 {
    d
}

/// The Tree-GLWS instance type every tree input uses.
pub type TreeInst = TreeGlwsInstance<fn(u64, u64) -> i64, fn(i64, usize) -> i64>;

/// GAP gap-penalty parameters `open + ext·len + quad·len²` on both strings.
pub const GAP_COST: (i64, i64, i64) = (3, 1, 1);

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Few rounds with wide frontiers: round bodies on the pool dominate.
    Shallow,
    /// Many rounds with narrow frontiers: per-round engine cost dominates.
    Deep,
    /// Hundreds of small instances: construction, routing and finish dominate.
    SmallBatch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Shallow, Workload::Deep, Workload::SmallBatch];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Shallow => "shallow",
            Workload::Deep => "deep",
            Workload::SmallBatch => "small_batch",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One problem input, as the library's public entry points take it.
pub enum Input {
    /// LIS over a sequence.
    Lis(Vec<i64>),
    /// Sparse LCS over canonically sorted matching pairs.
    Lcs(Vec<MatchPair>),
    /// Convex GLWS (post office); `coords` and `open_cost` are the raw data.
    Glws {
        /// Sorted village coordinates.
        coords: Vec<i64>,
        /// Cost of opening one post office.
        open_cost: i64,
        /// The problem built from them.
        problem: PostOfficeProblem,
    },
    /// GAP alignment of two strings under [`GAP_COST`].
    Gap(Vec<u8>, Vec<u8>),
    /// Optimal binary search tree over leaf weights.
    Obst(Vec<u64>),
    /// Optimal alphabetic tree over leaf weights.
    Oat(Vec<u64>),
    /// Tree-GLWS over a rooted tree.
    Tree(TreeInst),
}

/// A named input.
pub struct Instance {
    /// Short description: module, shape and size.
    pub label: String,
    /// The data handed to the solver.
    pub input: Input,
}

impl Input {
    /// Index of this input's module in [`MODULES`].
    pub fn module(&self) -> usize {
        match self {
            Input::Lis(_) => 0,
            Input::Lcs(_) => 1,
            Input::Glws { .. } => 2,
            Input::Gap(..) => 3,
            Input::Obst(_) => 4,
            Input::Oat(_) => 5,
            Input::Tree(_) => 6,
        }
    }

    /// Digest of the input data (equal inputs give equal digests).
    pub fn digest(&self) -> u64 {
        let mut h = Digest::new();
        h.word(self.module() as u64);
        match self {
            Input::Lis(a) => h.words(a.iter().map(|&x| x as u64)),
            Input::Lcs(pairs) => h.words(pairs.iter().map(|p| (p.i as u64) << 32 | p.j as u64)),
            Input::Glws {
                coords, open_cost, ..
            } => {
                h.word(*open_cost as u64);
                h.words(coords.iter().map(|&x| x as u64));
            }
            Input::Gap(a, b) => {
                h.words(a.iter().map(|&x| x as u64));
                h.word(u64::MAX);
                h.words(b.iter().map(|&x| x as u64));
            }
            Input::Obst(w) | Input::Oat(w) => h.words(w.iter().copied()),
            Input::Tree(t) => {
                h.words(t.parent.iter().map(|&p| p as u64));
                h.words(t.dist.iter().copied());
            }
        }
        h.finish()
    }
}

/// A 64-bit streaming digest (FxHash-style multiply-rotate), used to compare
/// inputs and outputs without keeping copies of them.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Fresh digest state.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// Mix in a sequence of words, then its length.
    pub fn words(&mut self, ws: impl Iterator<Item = u64>) {
        let mut len = 0u64;
        for w in ws {
            self.word(w);
            len += 1;
        }
        self.word(len);
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0 ^ (self.0 >> 31)
    }
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sub_seed(seed: u64, idx: usize) -> u64 {
    mix(seed ^ mix(idx as u64 + 1))
}

fn tree(parent: Vec<usize>, seed: u64) -> Input {
    let lens = gen::tree_edge_lengths(parent.len() - 1, 100, seed);
    Input::Tree(TreeGlwsInstance::new(
        parent,
        &lens,
        0,
        tree_w as fn(u64, u64) -> i64,
        tree_e as fn(i64, usize) -> i64,
    ))
}

fn post_office(n: usize, k: usize, seed: u64) -> Input {
    let inst = gen::post_office_instance(n, k, seed);
    Input::Glws {
        problem: PostOfficeProblem::new(inst.coords.clone(), inst.open_cost),
        coords: inst.coords,
        open_cost: inst.open_cost,
    }
}

fn lcs_pairs(l: usize, k: usize, seed: u64) -> Input {
    let pairs = gen::lcs_pairs_with(l, k, seed);
    Input::Lcs(pairs.into_iter().map(|(i, j)| MatchPair { i, j }).collect())
}

/// Instances in the `small_batch` workload.
const SMALL_BATCH_INSTANCES: usize = 420;

/// Size cap for the `small_batch` OBST instances, whose naive oracle is
/// cubic.
const SMALL_BATCH_OBST_MAX_N: usize = 160;

/// Size cap for the `small_batch` GAP instances (cubic oracle; without the
/// cap the GAP instances alone would take most of a pass).
const SMALL_BATCH_GAP_MAX_N: usize = 96;

/// Generate the instances of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Vec<Instance> {
    let s = |idx| sub_seed(seed, idx);
    let named = |label: &str, input| Instance {
        label: label.to_string(),
        input,
    };
    match workload {
        Workload::Shallow => vec![
            named(
                "lis n=2000000 k=16",
                Input::Lis(gen::lis_with_length(2_000_000, 16, s(0))),
            ),
            named("lcs L=1000000 k=100", lcs_pairs(1_000_000, 100, s(1))),
            named("glws n=500000 k=10", post_office(500_000, 10, s(2))),
            named(
                "treedp balanced-8 n=1000000",
                tree(gen::balanced_tree(1_000_000, 8), s(3)),
            ),
            named(
                "oat n=10000",
                Input::Oat(gen::positive_weights(10_000, 1 << 16, s(4))),
            ),
        ],
        Workload::Deep => vec![
            named("lcs L=100000 k=90000", lcs_pairs(100_000, 90_000, s(0))),
            named("glws n=60000 k=6000", post_office(60_000, 6_000, s(1))),
            named(
                "obst n=800",
                Input::Obst(gen::positive_weights(800, 1_000, s(2))),
            ),
            named("gap n=m=400", {
                let (a, b) = gen::gap_strings(400, 400, 4, s(3));
                Input::Gap(a, b)
            }),
            named("treedp path n=30000", tree(gen::path_tree(30_000), s(4))),
            named(
                "treedp caterpillar n=50000 spine=25000",
                tree(gen::caterpillar_tree(50_000, 25_000, s(5)), s(6)),
            ),
        ],
        Workload::SmallBatch => (0..SMALL_BATCH_INSTANCES)
            .map(|idx| small_instance(idx, s(idx)))
            .collect(),
    }
}

/// Size of a module's `j`-th `small_batch` instance: a fixed log-uniform
/// grid over `32..=1000`, so only the data, never the amount of work,
/// depends on the seed.
fn small_size(j: usize) -> usize {
    let per_module = SMALL_BATCH_INSTANCES / MODULES.len();
    let u = j as f64 / (per_module - 1) as f64;
    (32.0 * (1000.0f64 / 32.0).powf(u)).round() as usize
}

/// The `idx`-th `small_batch` instance: modules round-robin, sizes on the
/// log-uniform grid, trees cycling through random-attachment (shallow),
/// caterpillar and path (deep) shapes so the tree router takes both arms.
fn small_instance(idx: usize, seed: u64) -> Instance {
    let j = idx / MODULES.len();
    let n = small_size(j);
    let r = mix(seed);
    let (gap_n, obst_n) = (n.min(SMALL_BATCH_GAP_MAX_N), n.min(SMALL_BATCH_OBST_MAX_N));
    let (label, input) = match idx % MODULES.len() {
        0 => (
            format!("lis n={n}"),
            Input::Lis(gen::random_sequence(n, 4 * n as i64, r)),
        ),
        1 => {
            let k = (n >> (1 + j % 4)).max(1);
            (format!("lcs L={n} k={k}"), lcs_pairs(n, k, r))
        }
        2 => {
            let k = (n >> (2 + j % 3)).max(1);
            (format!("glws n={n} k={k}"), post_office(n, k, r))
        }
        3 => {
            let (a, b) = gen::gap_strings(gap_n, gap_n, 4, r);
            (format!("gap n=m={gap_n}"), Input::Gap(a, b))
        }
        4 => (
            format!("obst n={obst_n}"),
            Input::Obst(gen::positive_weights(obst_n, 1_000, r)),
        ),
        5 => (
            format!("oat n={n}"),
            Input::Oat(gen::positive_weights(n, 1 << 16, r)),
        ),
        _ => match j % 3 {
            0 => (
                format!("treedp random n={n}"),
                tree(gen::random_attachment_tree(n, r), mix(r)),
            ),
            1 => (
                format!("treedp caterpillar n={n}"),
                tree(gen::caterpillar_tree(n, n / 2, r), mix(r)),
            ),
            _ => (format!("treedp path n={n}"), tree(gen::path_tree(n), r)),
        },
    };
    Instance { label, input }
}
