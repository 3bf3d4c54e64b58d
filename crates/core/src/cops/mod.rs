//! Continuous-time operators: equation systems consuming and producing
//! segments.
//!
//! §III-C: "Each equation system is closed, that is it consumes segments
//! and produces segments, enabling Pulse's query processing to use segments
//! as a first-class datatype." This module defines the operator trait, the
//! [`Emitter`] every operator hands its outputs to, and the filter, map and
//! union; the join, min/max and sum/avg aggregates, and the hash group-by
//! live in submodules.

mod group;
mod join;
mod minmax;
mod sumavg;

pub use group::CGroupBy;
pub use join::CJoin;
pub use minmax::CMinMax;
pub use sumavg::CSumAvg;

use crate::binding::Binding;
use crate::eqsys::{PendingSlack, SolveScratch, SystemTemplate};
use crate::lineage::LineageStore;
use pulse_math::{Poly, Span, EPS};
use pulse_model::{ExprError, ExprVm, Models, Pred, Segment, SegmentId, SlotMap, VmProgram};
use pulse_obs::{Phase, TraceKind, Tracer};
use pulse_stream::OpMetrics;
use std::any::Any;

/// A push-based continuous operator.
pub trait COperator: Any {
    /// Stable lower-case operator name — the middle component of the
    /// operator's metric names (`cops.<name>.<metric>`).
    fn name(&self) -> &'static str;
    /// Processes a segment arriving on `input`, handing each output
    /// segment and its parents to `out`, which makes it final (see
    /// [`Emitter`]). Operators that grind equation systems stamp an
    /// [`TraceKind::OpSolve`] event into `tr` (scoped onto the runtime's
    /// enclosing `SolveStart`) describing the rows solved and segments
    /// emitted for this arrival; pass [`Tracer::off`] to record nothing.
    fn process(&mut self, input: usize, seg: &Segment, tr: &mut Tracer, out: &mut Emitter<'_>);
    /// Cost counters (systems solved, segments in/out).
    fn metrics(&self) -> OpMetrics;
    /// Forgets the null results a selective operator recorded. The plan
    /// calls this at the start of every push so [`Self::resolve_slack`]
    /// only ever reflects the push in progress — stale slack from an
    /// earlier push (typically a different key's segment) must not drive
    /// another key's validation mode.
    fn reset_slack(&mut self) {}
    /// Slack (§IV's slack validation) of the null results of this push's
    /// last call, if the operator is selective: the smallest `min‖Dt‖∞`
    /// over them, `None` when it has none. Each call records its null
    /// results in place of the previous call's; their slack is computed
    /// only here. It is defined only after a push that returned nothing,
    /// which is when [`crate::CPlan`] asks for it.
    fn resolve_slack(&mut self) -> Option<f64> {
        None
    }
    /// Downcast support (harnesses inspect operator state, e.g. the min/max
    /// envelope, when sampling query results).
    fn as_any(&self) -> &dyn Any;
}

/// Where an operator's outputs go: the one place an output is made final.
/// Each is projected through the map [`crate::CPlan::compile`] fused into
/// the operator, if it fused one, then snapshotted with its parents into
/// the plan's lineage, once, and appended to the call's outputs. A
/// projection that fails (an expression with no polynomial form for the
/// output) drops the output, as the map would have.
pub struct Emitter<'a> {
    lineage: &'a mut LineageStore,
    map: Option<&'a mut CMap>,
    segs: &'a mut Vec<Segment>,
}

impl<'a> Emitter<'a> {
    /// Appends to `segs` and snapshots into `lineage`, projecting nothing:
    /// how an operator runs outside a plan.
    pub fn new(lineage: &'a mut LineageStore, segs: &'a mut Vec<Segment>) -> Self {
        Emitter { lineage, map: None, segs }
    }

    /// [`Self::new`], projecting through `map` when there is one.
    pub(crate) fn fused(
        lineage: &'a mut LineageStore,
        map: Option<&'a mut CMap>,
        segs: &'a mut Vec<Segment>,
    ) -> Self {
        Emitter { lineage, map, segs }
    }

    /// Emits `seg`, caused by `parents`. A projection replaces its models
    /// and drops its constants but keeps its id, so an operator that keeps
    /// `seg` in its state (the min/max envelope) and later names it as a
    /// parent finds it in lineage.
    pub fn emit(&mut self, mut seg: Segment, parents: &[SegmentId], tr: &mut Tracer) {
        if let Some(map) = self.map.as_deref_mut() {
            let Some(models) = map.project(&[&seg], tr) else { return };
            seg.models = models;
            seg.unmodeled.clear();
        }
        self.push(seg, parents);
    }

    /// Emits the output of `key` on `span` whose columns are those of
    /// `parts` side by side (a filter's piece of its input, a join's
    /// pair), caused by `parents`. A projection reads the parts in place,
    /// so their models are never copied into a segment first.
    pub fn emit_parts(
        &mut self,
        key: u64,
        span: Span,
        parts: &[&Segment],
        parents: &[SegmentId],
        tr: &mut Tracer,
    ) {
        let seg = match self.map.as_deref_mut() {
            Some(map) => {
                let Some(models) = map.project(parts, tr) else { return };
                Segment::new(key, span, models, Vec::new())
            }
            None => {
                let mut models = Models::with_capacity(parts.iter().map(|p| p.models.len()).sum());
                let mut unmodeled =
                    Vec::with_capacity(parts.iter().map(|p| p.unmodeled.len()).sum());
                for p in parts {
                    models.extend_from_slice(&p.models);
                    unmodeled.extend_from_slice(&p.unmodeled);
                }
                Segment::new(key, span, models, unmodeled)
            }
        };
        self.push(seg, parents);
    }

    /// Passes `seg` on as it is (the union's output), already in lineage.
    /// A projection makes a new segment of it, caused by it alone, as the
    /// map would have.
    pub fn forward(&mut self, seg: &Segment, tr: &mut Tracer) {
        if self.map.is_some() {
            self.emit_parts(seg.key, seg.span, &[seg], &[seg.id], tr);
        } else {
            self.segs.push(seg.clone());
        }
    }

    fn push(&mut self, seg: Segment, parents: &[SegmentId]) {
        self.lineage.emit(&seg, parents);
        self.segs.push(seg);
    }
}

/// Continuous filter: one equation system per arriving segment, solved over
/// the segment's lifespan; each satisfying time range becomes an output
/// segment restricted to that range.
pub struct CFilter {
    /// Equation-system template compiled once from the normalized
    /// predicate; per-segment work is coefficient substitution.
    template: SystemTemplate,
    binding: Binding,
    /// The last arrival's null result, if it had one.
    null: PendingSlack,
    /// Solver scratch shared by every arrival.
    scratch: SolveScratch,
    m: OpMetrics,
}

impl CFilter {
    /// `pred` is normalized on construction (sqrt/abs elimination).
    pub fn new(pred: Pred, binding: Binding) -> Self {
        let template = SystemTemplate::compile(&pred.normalize());
        CFilter {
            template,
            binding,
            null: PendingSlack::default(),
            scratch: SolveScratch::default(),
            m: OpMetrics::default(),
        }
    }
}

impl COperator for CFilter {
    fn name(&self) -> &'static str {
        "filter"
    }

    fn process(&mut self, _input: usize, seg: &Segment, tr: &mut Tracer, out: &mut Emitter<'_>) {
        self.m.items_in += 1;
        let binding = &self.binding;
        let m = tr.enter(Phase::TemplateSubstitute);
        let sys =
            match self.template.substitute_into(|_, attr, slot| binding.poly_into(seg, attr, slot))
            {
                Ok(sys) => sys,
                Err(_) => {
                    // Non-polynomial predicate: no continuous result.
                    tr.leave(m);
                    return;
                }
            };
        self.null.clear();
        tr.enter(Phase::RootIsolate);
        let mut rows = 0;
        let sol = sys.solve_with(seg.span, &mut rows, &mut self.scratch, tr);
        tr.leave(m);
        self.m.systems_solved += 1;
        self.m.comparisons += rows;
        if tr.on() {
            let kind = TraceKind::OpSolve { op: "filter", rows, outputs: sol.spans().len() as u32 };
            tr.emit_scoped(seg.key, seg.span.lo, kind);
        }
        if sol.is_empty() {
            // Null result: its slack drives §IV's slack validation.
            self.null.record(sys, seg.span);
            return;
        }
        for span in sol.spans() {
            self.m.items_out += 1;
            out.emit_parts(seg.key, *span, &[seg], &[seg.id], tr);
        }
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn reset_slack(&mut self) {
        self.null.clear();
    }

    fn resolve_slack(&mut self) -> Option<f64> {
        self.null.resolve(&mut self.scratch)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Continuous map: substitutes models into each projection expression,
/// producing a segment whose models are the projected polynomials. A map
/// that [`crate::CPlan::compile`] fuses into its producer runs as that
/// producer's [`Emitter`] projection instead of as an operator.
pub struct CMap {
    /// One bytecode program per projection expression, sharing one slot
    /// map; per-segment work is writing models into the VM's coefficient
    /// slots and running the programs.
    programs: Vec<VmProgram>,
    slots: SlotMap,
    vm: ExprVm,
    binding: Binding,
    m: OpMetrics,
}

impl CMap {
    pub fn new(exprs: Vec<pulse_model::Expr>, binding: Binding) -> Self {
        let mut slots = SlotMap::new();
        let programs = exprs.iter().map(|e| VmProgram::compile(e, &mut slots)).collect();
        let mut vm = ExprVm::new();
        vm.ensure_slots(slots.len());
        CMap { programs, slots, vm, binding, m: OpMetrics::default() }
    }

    /// Projects the columns of `parts`, read side by side as one
    /// segment's, through every program: one `TemplateSubstitute` visit
    /// and one item in, and one out unless an expression has no polynomial
    /// form for them (`None`).
    fn project(&mut self, parts: &[&Segment], tr: &mut Tracer) -> Option<Models> {
        self.m.items_in += 1;
        let m = tr.enter(Phase::TemplateSubstitute);
        let models = self.run(parts);
        tr.leave(m);
        let models = models.ok()?;
        self.m.items_out += 1;
        Some(models)
    }

    fn run(&mut self, parts: &[&Segment]) -> Result<Models, ExprError> {
        let CMap { programs, slots, vm, binding, .. } = self;
        vm.ensure_slots(slots.len());
        for (i, &(_, attr)) in slots.attrs().iter().enumerate() {
            binding.poly_of_parts(parts, attr, vm.slot_mut(i))?;
        }
        programs
            .iter()
            .map(|prog| {
                let mut p = Poly::zero();
                vm.run(prog, &mut p).map(|_| p)
            })
            .collect()
    }
}

impl COperator for CMap {
    fn name(&self) -> &'static str {
        "map"
    }

    fn process(&mut self, _input: usize, seg: &Segment, tr: &mut Tracer, out: &mut Emitter<'_>) {
        if let Some(models) = self.project(&[seg], tr) {
            out.emit(Segment::new(seg.key, seg.span, models, Vec::new()), &[seg.id], tr);
        }
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Continuous union: forwards segments from both inputs unchanged.
#[derive(Default)]
pub struct CUnion {
    m: OpMetrics,
}

impl CUnion {
    pub fn new() -> Self {
        CUnion::default()
    }
}

impl COperator for CUnion {
    fn name(&self) -> &'static str {
        "union"
    }

    fn process(&mut self, _input: usize, seg: &Segment, tr: &mut Tracer, out: &mut Emitter<'_>) {
        self.m.items_in += 1;
        self.m.items_out += 1;
        out.forward(seg, tr);
    }

    fn metrics(&self) -> OpMetrics {
        self.m
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Drops zero-measure spans out of a solution unless they are genuine
/// equality points (helper shared by selective operators).
pub(crate) fn meaningful_spans(
    sol: &pulse_math::RangeSet,
) -> impl Iterator<Item = pulse_math::Span> + '_ {
    sol.spans().iter().copied().filter(|s| s.len() > EPS || s.is_point())
}

/// Runs an operator on one arrival outside a plan, the way unit tests
/// drive one: outputs appended to `out`, snapshots taken into `lineage`.
#[cfg(test)]
pub(crate) trait Feed {
    fn feed(
        &mut self,
        input: usize,
        seg: &Segment,
        lineage: &mut LineageStore,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    );
}

#[cfg(test)]
impl<T: COperator + ?Sized> Feed for T {
    fn feed(
        &mut self,
        input: usize,
        seg: &Segment,
        lineage: &mut LineageStore,
        tr: &mut Tracer,
        out: &mut Vec<Segment>,
    ) {
        self.process(input, seg, tr, &mut Emitter::new(lineage, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{CmpOp, Poly, Span};
    use pulse_model::{AttrKind, Expr, Schema};

    fn xv_schema() -> Schema {
        Schema::of(&[("x", AttrKind::Modeled)])
    }

    fn seg(key: u64, lo: f64, hi: f64, icpt: f64, slope: f64) -> Segment {
        Segment::single(key, Span::new(lo, hi), Poly::linear(icpt, slope))
    }

    #[test]
    fn filter_emits_satisfying_subranges() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Lt, Expr::c(5.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()));
        // x = t on [0, 10): x < 5 holds on [0, 5).
        let s = seg(1, 0.0, 10.0, 0.0, 1.0);
        let mut out = Vec::new();
        f.feed(0, &s, &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].span.hi - 5.0).abs() < 1e-8);
        assert_eq!(out[0].key, 1);
        // Lineage recorded.
        assert_eq!(store.parents_of(out[0].id), &[s.id]);
        assert_eq!(f.metrics().items_out, 1);
        assert!(f.resolve_slack().is_none());
    }

    #[test]
    fn filter_null_result_sets_slack() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Eq, Expr::c(100.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()));
        // x = t on [0, 10): x never reaches 100; closest at t→10 → slack ≈ 90.
        let mut out = Vec::new();
        f.feed(0, &seg(0, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out);
        assert!(out.is_empty());
        let slack = f.resolve_slack().unwrap();
        assert!((slack - 90.0).abs() < 1e-3, "slack {slack}");
    }

    #[test]
    fn filter_point_result_from_equality() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let pred = Pred::cmp(Expr::attr(0), CmpOp::Eq, Expr::c(5.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()));
        let mut out = Vec::new();
        f.feed(0, &seg(0, 0.0, 10.0, 0.0, 1.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].span.is_point());
        assert!((out[0].span.lo - 5.0).abs() < 1e-8);
    }

    #[test]
    fn filter_normalizes_abs() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        // |x| < 3 with x = t − 5 on [0, 10): holds on (2, 8).
        let pred = Pred::cmp(Expr::Abs(Box::new(Expr::attr(0))), CmpOp::Lt, Expr::c(3.0));
        let mut f = CFilter::new(pred, Binding::new(xv_schema()));
        let mut out = Vec::new();
        f.feed(0, &seg(0, 0.0, 10.0, -5.0, 1.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].span.lo - 2.0).abs() < 1e-8);
        assert!((out[0].span.hi - 8.0).abs() < 1e-8);
    }

    #[test]
    fn map_projects_models() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        // diff = 2x − 1
        let mut m =
            CMap::new(vec![Expr::attr(0) * Expr::c(2.0) - Expr::c(1.0)], Binding::new(xv_schema()));
        let mut out = Vec::new();
        m.feed(0, &seg(3, 0.0, 4.0, 1.0, 1.0), &mut store, &mut tr, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].models[0], Poly::linear(1.0, 2.0));
        assert_eq!(out[0].key, 3);
        assert_eq!(out[0].span, Span::new(0.0, 4.0));
    }
}
