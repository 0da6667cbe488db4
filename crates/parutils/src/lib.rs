//! Parallel primitives and instrumentation shared by every algorithm crate.
//!
//! The paper's cost model (Sec. 2) is the classic binary fork–join model with
//! a randomized work-stealing scheduler.  [`rayon`] is the canonical Rust
//! implementation of that model: `rayon::join` is the binary fork, and a
//! parallel-for is simulated by a logarithmic-depth tree of joins.  This crate
//! wraps rayon with
//!
//! * granularity-controlled helpers ([`par`]) so that the parallel algorithms
//!   degrade gracefully to their sequential counterparts on tiny inputs,
//! * the ParlayLib-style primitives the paper relies on — reduce, scan
//!   (including prefix-minimum), pack/filter and sorting ([`reduce`],
//!   [`scan`], [`pack`], [`sort`]),
//! * work/round instrumentation ([`metrics`]) used by the benchmark harness to
//!   report *operation counts* in addition to wall-clock time, which is how we
//!   validate the paper's work bounds on machines with few cores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grain;
pub mod metrics;
pub mod pack;
pub mod par;
pub mod reduce;
pub mod scan;
pub mod sort;

pub use grain::{round_min_grain, with_grain_policy, GrainHint, GrainPolicy};
pub use metrics::{Metrics, MetricsCollector};
pub use pack::{par_filter, par_pack_index};
pub use par::{maybe_join, par_chunks_mut_indexed, par_map, with_threads, SEQ_CUTOFF};
pub use reduce::{par_min_index, par_min_value, par_reduce};
pub use scan::{par_prefix_min_inclusive, par_scan_exclusive, par_scan_inclusive};
pub use sort::{par_sort_by_key, par_sort_by_key_with};
