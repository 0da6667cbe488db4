//! Benchmark of the parallel-dp cordon algorithms: seeded workloads, the
//! checked untraced solve, and the traced per-layer solve.  `src/main.rs` is
//! the runner; `README.md` documents the workloads and metrics.

pub mod calib;
pub mod inputs;
pub mod pin;
pub mod solve;
pub mod trace;

/// Median of `xs` (0 when empty); the mean of the middle pair for even
/// lengths.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest whole percentile of `xs` that still has at least `beyond`
/// samples above its rank, with its value; `None` with too few samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    // Nearest rank r = ceil(p·n/100) must leave n − r ≥ beyond samples.
    let p = (100 * (n - beyond) / n) as u32;
    Some((p, percentile(xs, p as f64)))
}
