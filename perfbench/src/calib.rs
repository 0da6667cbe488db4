//! The reference kernel: fixed benchmark-side work whose time tracks the
//! speed the shared host gives the benchmark at that moment.
//!
//! Neighbour load on a shared host slows every instruction of a run, by up
//! to 2.5× over tens of seconds to minutes, so raw wall times of the same
//! code spread far more between runs than any change worth gating.  The
//! runner times this kernel between passes and divides each pass's wall
//! time by the kernel times around it; see `README.md`, "Host speed".
//!
//! The kernel is an edit-distance DP in L1 (dependent compares) and sorts
//! of an L2-sized array (branchy loads and stores), which take about four
//! fifths of its time.  Of the kernels tried, this pair tracked the passes'
//! slow-downs most closely; binary searches over a 1 MiB table and
//! random gathers over a table larger than the caches tracked them worse.
//! Its inputs are fixed, so it does the same work in every run and at
//! every seed, and it calls no library code, so no change to the library
//! can move it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds the kernel takes at the reference speed, by definition; a
/// scaled time is in seconds at that speed.  The kernel takes about this
/// long on a 2-vCPU Intel Xeon VM (rustc 1.95, release build).
pub const NOMINAL_S: f64 = 0.004;

const DP_LEN: usize = 700;
const SORT_LEN: usize = 40_000;
const SORTS: usize = 4;

/// A fixed xorshift stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The kernel's fixed inputs and scratch.
pub struct Reference {
    a: Vec<u8>,
    b: Vec<u8>,
    row: Vec<u32>,
    unsorted: Vec<u64>,
    scratch: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        let mut s = Stream(0x9e37_79b9_7f4a_7c15);
        Reference {
            a: (0..DP_LEN).map(|_| (s.next() % 4) as u8).collect(),
            b: (0..DP_LEN).map(|_| (s.next() % 4) as u8).collect(),
            row: vec![0; DP_LEN + 1],
            unsorted: (0..SORT_LEN).map(|_| s.next()).collect(),
            scratch: Vec::with_capacity(SORT_LEN),
        }
    }

    /// Run the kernel once; wall seconds of its two parts, the DP and the
    /// sorts.
    pub fn time(&mut self) -> [f64; 2] {
        let start = Instant::now();
        black_box(self.edit_distance());
        let dp = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for _ in 0..SORTS {
            black_box(self.sort());
        }
        [dp, start.elapsed().as_secs_f64()]
    }

    fn edit_distance(&mut self) -> u32 {
        let row = &mut self.row;
        for (j, r) in row.iter_mut().enumerate() {
            *r = j as u32;
        }
        for (i, &x) in self.a.iter().enumerate() {
            let mut diag = row[0];
            row[0] = i as u32 + 1;
            for (j, &y) in self.b.iter().enumerate() {
                let up = row[j + 1];
                let sub = diag + u32::from(x != y);
                row[j + 1] = sub.min(up + 1).min(row[j] + 1);
                diag = up;
            }
        }
        row[DP_LEN]
    }

    fn sort(&mut self) -> u64 {
        self.scratch.clear();
        self.scratch.extend_from_slice(&self.unsorted);
        self.scratch.sort_unstable();
        self.scratch[SORT_LEN / 2]
    }
}
