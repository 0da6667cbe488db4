//! The traced run's instrumentation, recorded from the benchmark's side of
//! the library boundary.
//!
//! [`Traced`] wraps any cordon in a `PhaseParallel` adapter that times each
//! `round_with` and the `finish` call; the library's own
//! `run_phase_parallel` drives it, so the driver runs unchanged.  Around the
//! adapter, [`solve_traced`] times cordon construction (including the router
//! probe) and the public traceback.  Spans stay in memory and are written out
//! when the run ends.

use crate::inputs::{Input, MODULES};
use crate::solve::{gap_instance, Output};
use pardp_core::{run_phase_parallel, EitherCordon, FrontierArena, PhaseParallel};
use pardp_gap::{try_reconstruct_gap_ops, GapResult, PackedGapCordon};
use pardp_glws::{ConvexGlwsCordon, GlwsResult};
use pardp_lcs::{reconstruct_lcs, LcsCordon, LcsResult};
use pardp_lis::{LisCordon, LisResult};
use pardp_oat::{oat_cordon_auto, OatResult};
use pardp_obst::{ObstCordon, ObstResult};
use pardp_parutils::grain::round_hint;
use pardp_parutils::MetricsCollector;
use pardp_treedp::{tree_glws_cordon_auto, CostShape, TreeGlwsResult};
use std::io::Write;
use std::time::Instant;

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.round` or `gap.traceback`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Instance the span belongs to (its index in the workload).
    pub instance: u32,
}

/// Per-pass aggregates of a traced pass.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    /// Cordon rounds.
    pub rounds: u64,
    /// Duration of every round, in nanoseconds.
    pub round_ns: Vec<u64>,
    /// Σ `run_phase_parallel` spans.
    pub run_ns: u64,
    /// Rounds whose frontier fit in one grain of the active grain hint.
    pub subgrain_rounds: u64,
    /// Pool injector pushes made inside sub-grain rounds.
    pub subgrain_pushes: u64,
    /// Per module: cordon construction (router probe included).
    pub new_ns: [u64; MODULES.len()],
    /// Per module: `finish`.
    pub finish_ns: [u64; MODULES.len()],
    /// Per module: public traceback (LCS and GAP).
    pub traceback_ns: [u64; MODULES.len()],
    /// Tree instances routed to the HLD cordon, out of all tree instances.
    pub hld_routed: (u64, u64),
    /// OAT instances routed to the valley cordon, out of all OAT instances.
    pub valley_routed: (u64, u64),
}

impl PassTrace {
    /// Σ round durations.
    pub fn round_total_ns(&self) -> u64 {
        self.round_ns.iter().sum()
    }

    /// Driver time outside rounds and finish.
    pub fn driver_self_ns(&self) -> u64 {
        let finish: u64 = self.finish_ns.iter().sum();
        self.run_ns.saturating_sub(self.round_total_ns() + finish)
    }
}

/// Span recorder plus the current pass's aggregates.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    span_cap: usize,
    dropped: u64,
    /// Record one span per round (otherwise rounds only feed aggregates).
    pub keep_rounds: bool,
    /// Threads that can run at once in the current pool, for the sub-grain
    /// classification.
    pub threads: usize,
    /// Instance being solved.
    pub instance: u32,
    /// Aggregates of the current pass.
    pub pass: PassTrace,
}

impl Tracer {
    /// A tracer that keeps at most `span_cap` spans.
    pub fn new(span_cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            span_cap,
            dropped: 0,
            keep_rounds: false,
            threads: 1,
            instance: 0,
            pass: PassTrace::default(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (or [`ROOT`] when the span
    /// store is full).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> u32 {
        if self.spans.len() >= self.span_cap {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            instance: self.instance,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.now();
        self.record(name, now, now, parent)
    }

    /// Close a span opened by [`Tracer::open`]; returns its duration.
    pub fn close(&mut self, span: u32) -> u64 {
        let now = self.now();
        match self.spans.get_mut(span as usize) {
            Some(s) => {
                s.end_ns = now;
                now - s.start_ns
            }
            None => 0,
        }
    }

    /// Time `f` as a span named `name` under `parent`; returns its result
    /// and duration.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent);
        (out, end - start)
    }

    /// Drive `cordon` with the library's `run_phase_parallel` through the
    /// timing adapter, under a `core.run_phase_parallel` span.
    pub fn run<P: PhaseParallel>(
        &mut self,
        module: usize,
        cordon: P,
        metrics: &MetricsCollector,
        parent: u32,
    ) -> P::Output {
        let span = self.open("core.run_phase_parallel", parent);
        let start = self.now();
        let adapter = Traced {
            inner: cordon,
            tracer: self,
            module,
            span,
        };
        let out = run_phase_parallel(adapter, metrics);
        let end = self.now();
        self.close(span);
        self.pass.run_ns += end - start;
        out
    }

    /// Spans recorded, and spans dropped because the store was full.
    pub fn spans(&self) -> (&[Span], u64) {
        (&self.spans, self.dropped)
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{idx},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"instance\":{}}}",
                s.name, s.start_ns, s.end_ns, s.instance
            )?;
        }
        Ok(())
    }
}

/// Timing adapter around a cordon: forwards every call and records each
/// round's duration, frontier and sub-grain status, and the `finish` span.
pub struct Traced<'t, P> {
    inner: P,
    tracer: &'t mut Tracer,
    module: usize,
    span: u32,
}

const FINISH: [&str; MODULES.len()] = [
    "lis.finish",
    "lcs.finish",
    "glws.finish",
    "gap.finish",
    "obst.finish",
    "oat.finish",
    "treedp.finish",
];

impl<P: PhaseParallel> Traced<'_, P> {
    fn timed_round(&mut self, round: impl FnOnce(&mut P) -> usize) -> usize {
        let hint = round_hint();
        let (pushes, _) = rayon::dispatch_diagnostics();
        let start = self.tracer.now();
        let frontier = round(&mut self.inner);
        let end = self.tracer.now();
        let pushes = rayon::dispatch_diagnostics().0 - pushes;
        let tr = &mut *self.tracer;
        if tr.keep_rounds {
            tr.record("core.round", start, end, self.span);
        }
        tr.pass.rounds += 1;
        tr.pass.round_ns.push(end - start);
        if hint.min_grain_for(frontier, tr.threads) >= frontier {
            tr.pass.subgrain_rounds += 1;
            tr.pass.subgrain_pushes += pushes;
        }
        frontier
    }
}

impl<P: PhaseParallel> PhaseParallel for Traced<'_, P> {
    type Output = P::Output;

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn round(&mut self, metrics: &MetricsCollector) -> usize {
        self.timed_round(|inner| inner.round(metrics))
    }

    fn round_with(&mut self, metrics: &MetricsCollector, arena: &mut FrontierArena) -> usize {
        self.timed_round(|inner| inner.round_with(metrics, arena))
    }

    fn finish(self) -> Self::Output {
        let Traced {
            inner,
            tracer,
            module,
            span,
        } = self;
        let (out, ns) = tracer.time(FINISH[module], span, || inner.finish());
        tracer.pass.finish_ns[module] += ns;
        out
    }

    fn round_budget(&self) -> Option<u64> {
        self.inner.round_budget()
    }
}

const NEW: [&str; MODULES.len()] = [
    "lis.new",
    "lcs.new",
    "glws.new",
    "gap.new",
    "obst.new",
    "oat.new",
    "treedp.new",
];

const SOLVE: [&str; MODULES.len()] = [
    "lis.solve",
    "lcs.solve",
    "glws.solve",
    "gap.solve",
    "obst.solve",
    "oat.solve",
    "treedp.solve",
];

/// Solve `input` exactly as [`crate::solve::solve`] does — same cordon, same
/// driver, same result assembly — with every layer boundary timed.
pub fn solve_traced(input: &Input, tr: &mut Tracer) -> Output {
    let m = input.module();
    let top = tr.open(SOLVE[m], ROOT);
    let metrics = MetricsCollector::new();
    let output = match input {
        Input::Lis(a) => {
            let cordon = new_span(tr, m, top, || LisCordon::new(a));
            let (d, length) = tr.run(m, cordon, &metrics, top);
            Output::Lis(LisResult {
                d,
                length,
                metrics: metrics.snapshot(),
            })
        }
        Input::Lcs(pairs) => {
            let cordon = new_span(tr, m, top, || LcsCordon::new(pairs));
            let (pair_values, length) = tr.run(m, cordon, &metrics, top);
            let r = LcsResult {
                length,
                pair_values,
                metrics: metrics.snapshot(),
            };
            let tb = traceback_span(tr, m, top, || {
                reconstruct_lcs(pairs, &r.pair_values, r.length)
            });
            Output::Lcs(r, tb)
        }
        Input::Glws { problem, .. } => {
            let cordon = new_span(tr, m, top, || ConvexGlwsCordon::new(problem));
            let (d, best) = tr.run(m, cordon, &metrics, top);
            Output::Glws(GlwsResult {
                d,
                best,
                metrics: metrics.snapshot(),
            })
        }
        Input::Gap(a, b) => {
            let inst = gap_instance(a, b);
            let cordon = new_span(tr, m, top, || PackedGapCordon::new(&inst));
            let d = tr.run(m, cordon, &metrics, top);
            let cost = d[a.len()][b.len()];
            let r = GapResult {
                d,
                cost,
                metrics: metrics.snapshot(),
            };
            let ops = traceback_span(tr, m, top, || try_reconstruct_gap_ops(&inst, &r.d));
            Output::Gap(r, ops)
        }
        Input::Obst(w) => {
            let cordon = new_span(tr, m, top, || ObstCordon::new(w));
            let tables = tr.run(m, cordon, &metrics, top);
            Output::Obst(ObstResult {
                cost: tables.cost(),
                metrics: metrics.snapshot(),
            })
        }
        Input::Oat(w) => {
            let cordon = new_span(tr, m, top, || oat_cordon_auto(w));
            tr.pass.valley_routed.0 += matches!(cordon, EitherCordon::Second(_)) as u64;
            tr.pass.valley_routed.1 += 1;
            let layout = tr.run(m, cordon, &metrics, top);
            let height = layout.depths.iter().copied().max().unwrap_or(0);
            Output::Oat(OatResult {
                cost: layout.cost,
                depths: layout.depths,
                height,
                metrics: metrics.snapshot(),
            })
        }
        Input::Tree(inst) => {
            let cordon = new_span(tr, m, top, || {
                tree_glws_cordon_auto(inst, CostShape::Convex)
            });
            tr.pass.hld_routed.0 += matches!(cordon, EitherCordon::Second(_)) as u64;
            tr.pass.hld_routed.1 += 1;
            let (d, best) = tr.run(m, cordon, &metrics, top);
            Output::Tree(TreeGlwsResult {
                d,
                best,
                metrics: metrics.snapshot(),
            })
        }
    };
    tr.close(top);
    output
}

fn traceback_span<R>(tr: &mut Tracer, module: usize, parent: u32, f: impl FnOnce() -> R) -> R {
    let name = if module == 1 {
        "lcs.traceback"
    } else {
        "gap.traceback"
    };
    let (out, ns) = tr.time(name, parent, f);
    tr.pass.traceback_ns[module] += ns;
    out
}

fn new_span<R>(tr: &mut Tracer, module: usize, parent: u32, f: impl FnOnce() -> R) -> R {
    let (out, ns) = tr.time(NEW[module], parent, f);
    tr.pass.new_ns[module] += ns;
    out
}
