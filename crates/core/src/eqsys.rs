//! Simultaneous equation systems — the basic computation element of Pulse.
//!
//! §III-A: a predicate `x R y` over modeled attributes is rewritten into
//! difference form `x − y R 0`, the models are substituted, and the
//! coefficients factorized, yielding one *difference equation* `p(t) R 0`
//! per conjunct. The full predicate becomes the system `D·t R 0` (Eq. 1 of
//! the paper), whose solution is the set of time ranges during which the
//! operator produces results.
//!
//! Solving follows the paper's general algorithm — each row solved
//! independently by root finding + sign tests, boolean structure applied to
//! the per-row range sets — with the named fast path for all-equality
//! linear systems (Gaussian-elimination style back substitution, trivial
//! here because time is the only unknown).

use pulse_math::{
    poly_roots_into, solve_cmp_degenerate, solve_cmp_from_roots, CmpOp, CmpScratch, Poly, RangeSet,
    Span,
};
use pulse_model::{ExprError, ExprVm, Pred, SlotMap, VmProgram};
use pulse_obs::{Phase, Tracer};

/// Default root-finding tolerance used by the operators.
pub const SOLVE_TOL: f64 = 1e-9;

/// Reusable buffers for the solve and slack paths: the comparison-solver
/// scratch (root isolation stack, root/cut lists), plus the slack kernel's
/// candidate instants, one derived polynomial and a row copy for
/// [`System::slack_with`]. One per operator; after warm-up the only
/// per-solve allocations left are the returned [`RangeSet`]s, and a slack
/// allocates nothing.
#[derive(Debug, Default)]
pub struct SolveScratch {
    pub cmp: CmpScratch,
    /// Instants where the slack's max-norm envelope may bottom out.
    cands: Vec<f64>,
    /// A row's derivative, or the sum or difference of two rows.
    derived: Poly,
    /// [`System::slack_with`]'s rows, copied out of the system tree.
    rows: PendingSlack,
}

/// One row of the system: `poly(t) op 0`.
#[derive(Debug, Clone)]
pub struct DiffEq {
    pub poly: Poly,
    pub op: CmpOp,
}

/// The system, preserving the predicate's boolean structure ("in the case
/// of general predicates, for example including disjunctions, we apply the
/// structure of the boolean operators to the solution time ranges").
#[derive(Debug, Clone)]
pub enum System {
    True,
    False,
    Row(DiffEq),
    And(Box<System>, Box<System>),
    Or(Box<System>, Box<System>),
    Not(Box<System>),
}

impl System {
    /// Builds the system from a (normalized) predicate by substituting
    /// models through `lookup` and reducing each comparison to difference
    /// form. Fails if any comparison is not polynomial.
    pub fn build<F>(pred: &Pred, lookup: &F) -> Result<System, ExprError>
    where
        F: Fn(usize, usize) -> Result<Poly, ExprError>,
    {
        Ok(match pred {
            Pred::True => System::True,
            Pred::False => System::False,
            Pred::Cmp { lhs, op, rhs } => {
                let l = lhs.to_poly(lookup)?;
                let r = rhs.to_poly(lookup)?;
                System::Row(DiffEq { poly: l.sub(&r), op: *op })
            }
            Pred::And(a, b) => System::And(
                Box::new(System::build(a, lookup)?),
                Box::new(System::build(b, lookup)?),
            ),
            Pred::Or(a, b) => {
                System::Or(Box::new(System::build(a, lookup)?), Box::new(System::build(b, lookup)?))
            }
            Pred::Not(a) => System::Not(Box::new(System::build(a, lookup)?)),
        })
    }

    /// Solves the system over `domain`, returning the satisfying ranges.
    /// Also reports the number of rows solved (for cost accounting).
    /// Allocating wrapper over [`solve_with`].
    ///
    /// [`solve_with`]: System::solve_with
    pub fn solve(&self, domain: Span, rows_solved: &mut u64) -> RangeSet {
        self.solve_with(domain, rows_solved, &mut SolveScratch::default(), &mut Tracer::off())
    }

    /// [`solve`] with caller-owned scratch buffers and sub-phase
    /// attribution — bit-identical results, no intermediate heap
    /// allocation once the scratch is warm. Time is recorded into the
    /// tracer's phase table as `solve_assemble` (the linear-equality fast
    /// path, timed only for systems that take it), `solve_sturm` (root
    /// isolation: derivative recursion plus Brent, no Sturm chain) and
    /// `solve_refine` (sign analysis between roots).
    ///
    /// [`solve`]: System::solve
    pub fn solve_with(
        &self,
        domain: Span,
        rows_solved: &mut u64,
        s: &mut SolveScratch,
        tr: &mut Tracer,
    ) -> RangeSet {
        if self.is_conjunctive_linear_eq() {
            let m = tr.enter(Phase::SolveAssemble);
            let fast = self.linear_equality_solution(domain, rows_solved);
            tr.leave(m);
            return fast;
        }
        self.solve_general(domain, rows_solved, s, tr)
    }

    fn solve_general(
        &self,
        domain: Span,
        rows_solved: &mut u64,
        s: &mut SolveScratch,
        tr: &mut Tracer,
    ) -> RangeSet {
        match self {
            System::True => RangeSet::single(domain),
            System::False => RangeSet::empty(),
            System::Row(r) => {
                *rows_solved += 1;
                if let Some(rs) = solve_cmp_degenerate(&r.poly, r.op, domain) {
                    return rs;
                }
                let m = tr.enter(Phase::SolveSturm);
                poly_roots_into(
                    &r.poly,
                    domain.lo,
                    domain.hi,
                    SOLVE_TOL,
                    &mut s.cmp.roots,
                    &mut s.cmp.root_buf,
                );
                tr.enter(Phase::SolveRefine);
                let rs = solve_cmp_from_roots(
                    &r.poly,
                    r.op,
                    domain,
                    SOLVE_TOL,
                    &s.cmp.root_buf,
                    &mut s.cmp.cuts,
                );
                tr.leave(m);
                rs
            }
            System::And(a, b) => {
                let left = a.solve_general(domain, rows_solved, s, tr);
                if left.is_empty() {
                    // Short-circuit: conjunction can't recover.
                    return left;
                }
                left.intersect(&b.solve_general(domain, rows_solved, s, tr))
            }
            System::Or(a, b) => a
                .solve_general(domain, rows_solved, s, tr)
                .union(&b.solve_general(domain, rows_solved, s, tr)),
            System::Not(a) => a.solve_general(domain, rows_solved, s, tr).complement(domain),
        }
    }

    /// Fast path (§III-A): when the system is a pure conjunction of
    /// equality rows, all linear, the common solution is found by direct
    /// elimination — solve the first row, substitute into the rest.
    /// Allocation-free: the row fold walks the tree directly. Only for
    /// systems [`Self::is_conjunctive_linear_eq`] accepts.
    fn linear_equality_solution(&self, domain: Span, rows_solved: &mut u64) -> RangeSet {
        *rows_solved += self.row_count() as u64;
        let mut t: Option<f64> = None;
        let mut inconsistent = false;
        self.try_fold_rows(&mut |r: &DiffEq| {
            match r.poly.degree() {
                None => {} // 0 = 0: always true
                Some(0) => {
                    inconsistent = true;
                    return false;
                }
                Some(_) => {
                    let root = -r.poly.coeff(0) / r.poly.coeff(1);
                    match t {
                        None => t = Some(root),
                        Some(prev) if (prev - root).abs() <= SOLVE_TOL * (1.0 + prev.abs()) => {}
                        Some(_) => {
                            inconsistent = true;
                            return false;
                        }
                    }
                }
            }
            true
        });
        if inconsistent {
            return RangeSet::empty();
        }
        match t {
            Some(t)
                if domain.contains(t) || domain.is_point() && (t - domain.lo).abs() < SOLVE_TOL =>
            {
                RangeSet::single(Span::point(t))
            }
            Some(_) => RangeSet::empty(),
            // All rows identically zero: holds everywhere.
            None => RangeSet::single(domain),
        }
    }

    /// True when the system is a pure conjunction (Row/And only) whose rows
    /// are all linear equalities — the shape the elimination fast path
    /// handles. `True`/`False`/`Or`/`Not` anywhere disqualify, matching
    /// the old conjunctive-rows collection.
    fn is_conjunctive_linear_eq(&self) -> bool {
        match self {
            System::Row(r) => r.op == CmpOp::Eq && r.poly.degree().is_none_or(|d| d <= 1),
            System::And(a, b) => a.is_conjunctive_linear_eq() && b.is_conjunctive_linear_eq(),
            _ => false,
        }
    }

    /// Folds `f` over rows in [`rows`] order until it returns `false`.
    ///
    /// [`rows`]: System::rows
    fn try_fold_rows<'a>(&'a self, f: &mut impl FnMut(&'a DiffEq) -> bool) -> bool {
        match self {
            System::Row(r) => f(r),
            System::And(a, b) | System::Or(a, b) => a.try_fold_rows(f) && b.try_fold_rows(f),
            System::Not(a) => a.try_fold_rows(f),
            System::True | System::False => true,
        }
    }

    /// Visits every row in [`rows`] order without materializing the list.
    ///
    /// [`rows`]: System::rows
    fn for_each_row<'a>(&'a self, f: &mut impl FnMut(&'a DiffEq)) {
        match self {
            System::Row(r) => f(r),
            System::And(a, b) | System::Or(a, b) => {
                a.for_each_row(f);
                b.for_each_row(f);
            }
            System::Not(a) => a.for_each_row(f),
            System::True | System::False => {}
        }
    }

    /// All rows of the system (the matrix `D`), regardless of structure.
    pub fn rows(&self) -> Vec<&DiffEq> {
        let mut out = Vec::new();
        self.visit_rows(&mut out);
        out
    }

    /// Number of rows in the system without materializing them — the
    /// `system_size` stamped into flight-recorder solve events.
    pub fn row_count(&self) -> usize {
        match self {
            System::True | System::False => 0,
            System::Row(_) => 1,
            System::And(a, b) | System::Or(a, b) => a.row_count() + b.row_count(),
            System::Not(a) => a.row_count(),
        }
    }

    fn visit_rows<'a>(&'a self, out: &mut Vec<&'a DiffEq>) {
        match self {
            System::Row(r) => out.push(r),
            System::And(a, b) | System::Or(a, b) => {
                a.visit_rows(out);
                b.visit_rows(out);
            }
            System::Not(a) => a.visit_rows(out),
            System::True | System::False => {}
        }
    }

    /// Mutable row access in the same left-to-right order as [`rows`]
    /// (the order [`SystemTemplate`] compiles its row programs in).
    ///
    /// [`rows`]: System::rows
    fn for_each_row_mut(&mut self, f: &mut impl FnMut(&mut DiffEq)) {
        match self {
            System::Row(r) => f(r),
            System::And(a, b) | System::Or(a, b) => {
                a.for_each_row_mut(f);
                b.for_each_row_mut(f);
            }
            System::Not(a) => a.for_each_row_mut(f),
            System::True | System::False => {}
        }
    }

    /// Slack (§IV): `min_t ‖D·t‖∞` over the domain — a continuous measure
    /// of how close the system comes to producing a result. Allocating
    /// wrapper over [`slack_with`].
    ///
    /// [`slack_with`]: System::slack_with
    pub fn slack(&self, domain: Span) -> f64 {
        self.slack_with(domain, &mut SolveScratch::default())
    }

    /// [`slack`] with caller-owned scratch — bit-identical results, and no
    /// allocation once the scratch is warm. Exact up to the root
    /// tolerance: the envelope `max_i |p_i(t)|` bottoms out at an endpoint,
    /// at a root or critical point of one row, or at a root of `p_i − p_j`
    /// or `p_i + p_j`, so the norm is taken at every such instant the root
    /// kernels find and the smallest returned. No rows give 0, a point
    /// domain the norm at its instant; never NaN (a NaN row value counts as
    /// nothing, a NaN candidate is dropped), `+∞` only where every
    /// candidate's norm overflows. The rows, copied out in [`rows`] order,
    /// go through the kernel [`PendingSlack::resolve`] uses, so the two
    /// give the same bits.
    ///
    /// [`slack`]: System::slack
    /// [`rows`]: System::rows
    pub fn slack_with(&self, domain: Span, s: &mut SolveScratch) -> f64 {
        let mut one = std::mem::take(&mut s.rows);
        one.clear();
        one.record(self, domain);
        let slack = slack_of(one.rows(0), domain, s);
        s.rows = one;
        slack
    }
}

/// The max-norm `‖D·t‖∞` at one instant; a row that is NaN there adds
/// nothing (`f64::max` drops it).
fn norm_at(rows: &[Poly], t: f64) -> f64 {
    rows.iter().fold(0.0, |m, p| m.max(p.eval(t).abs()))
}

/// The slack kernel behind [`System::slack_with`] and [`PendingSlack`]:
/// the exact `min_t max_i |p_i(t)|` over `domain`, up to the root
/// tolerance. The envelope is piecewise smooth, so its minimum lies at an
/// endpoint, where one row's `|p_i|` bottoms out (a root or critical point
/// of `p_i`), or where two rows' magnitudes cross (a root of `p_i − p_j`
/// or `p_i + p_j`). Every such candidate comes from [`poly_roots_into`]
/// (closed form up to degree 2, Brent above) and the norm is taken at
/// each; the smallest wins.
///
/// No rows give 0, and a point domain the norm at its instant. The result
/// is never NaN: candidates outside the domain (NaN ones included) are
/// dropped and NaN row values count as nothing, so it lies in `[0, +∞]`,
/// `+∞` only where every candidate's norm overflows.
fn slack_of(rows: &[Poly], domain: Span, s: &mut SolveScratch) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    if domain.is_point() {
        return norm_at(rows, domain.lo);
    }
    let SolveScratch { cmp, cands, derived, .. } = s;
    cands.clear();
    cands.extend([domain.lo, domain.hi]);
    let mut add_roots = |p: &Poly| {
        poly_roots_into(p, domain.lo, domain.hi, SOLVE_TOL, &mut cmp.roots, &mut cmp.root_buf);
        cands.extend_from_slice(&cmp.root_buf);
    };
    for (i, p) in rows.iter().enumerate() {
        add_roots(p);
        p.derivative_into(derived);
        add_roots(derived);
        for q in &rows[i + 1..] {
            derived.copy_from(p);
            derived.sub_assign_poly(q);
            add_roots(derived);
            derived.copy_from(p);
            derived.add_assign_poly(q);
            add_roots(derived);
        }
    }
    cands
        .iter()
        .filter(|&&t| domain.lo <= t && t <= domain.hi)
        .fold(f64::INFINITY, |best, &t| best.min(norm_at(rows, t)))
}

/// Null results whose slack is owed but not yet computed: each one's row
/// polynomials and domain, copied into buffers reused from call to call.
///
/// A selective operator records every null result of its current call
/// here and clears it when the next call starts. Slack is read only after
/// a push that returned nothing, so results recorded in other pushes are
/// never resolved; those that are give the bits [`System::slack_with`]
/// would. Once warm, recording and resolving allocate nothing.
#[derive(Debug, Default)]
pub struct PendingSlack {
    /// Row polynomials of the recorded results, back to back. Only the
    /// first `used` are recorded; the rest keep their allocations.
    rows: Vec<Poly>,
    used: usize,
    /// Each recorded result's domain and the end of its rows.
    nulls: Vec<(Span, usize)>,
}

impl PendingSlack {
    /// Forgets every recorded null result.
    pub fn clear(&mut self) {
        self.used = 0;
        self.nulls.clear();
    }

    /// Records a null result of `sys` over `domain`.
    pub fn record(&mut self, sys: &System, domain: Span) {
        sys.for_each_row(&mut |r| {
            match self.rows.get_mut(self.used) {
                Some(row) => row.copy_from(&r.poly),
                None => self.rows.push(r.poly.clone()),
            }
            self.used += 1;
        });
        self.nulls.push((domain, self.used));
    }

    /// The rows of recorded result `i`.
    fn rows(&self, i: usize) -> &[Poly] {
        let start = if i == 0 { 0 } else { self.nulls[i - 1].1 };
        &self.rows[start..self.nulls[i].1]
    }

    /// The smallest slack over the recorded null results, taken in the
    /// order they were recorded; `None` when there are none.
    pub fn resolve(&self, s: &mut SolveScratch) -> Option<f64> {
        (0..self.nulls.len()).map(|i| slack_of(self.rows(i), self.nulls[i].0, s)).reduce(f64::min)
    }
}

/// A per-operator equation-system template: the predicate's boolean shape
/// and each row's difference-form program compiled once at operator
/// construction, so per-segment work reduces to substituting the incoming
/// models into the precompiled row programs — no `Pred` traversal and no
/// system-tree allocation on the hot path.
///
/// Rows compile into bytecode [`VmProgram`]s sharing one [`SlotMap`]:
/// substitution writes coefficients into preallocated VM slots, one write
/// per distinct `(input, attr)`, then runs each row program into the row's
/// polynomial buffer. [`System::build`] is the tree-walk reference the VM
/// is tested against.
#[derive(Debug, Clone)]
pub struct SystemTemplate {
    sys: System,
    /// VM row programs in [`System::rows`] order; each computes `lhs − rhs`.
    programs: Vec<VmProgram>,
    /// One slot per distinct `(input, attr)`, shared by all row programs.
    slots: SlotMap,
    /// The per-operator VM instance (slot storage + evaluation stack).
    vm: ExprVm,
}

impl SystemTemplate {
    /// Compiles a (normalized) predicate. Never fails: expressions outside
    /// the polynomial fragment surface as errors at [`substitute`] time,
    /// matching [`System::build`]'s behavior.
    ///
    /// [`substitute`]: SystemTemplate::substitute
    pub fn compile(pred: &Pred) -> SystemTemplate {
        let mut programs = Vec::new();
        let mut slots = SlotMap::new();
        let sys = Self::shape(pred, &mut programs, &mut slots);
        let mut vm = ExprVm::new();
        vm.ensure_slots(slots.len());
        SystemTemplate { sys, programs, slots, vm }
    }

    fn shape(pred: &Pred, programs: &mut Vec<VmProgram>, slots: &mut SlotMap) -> System {
        match pred {
            Pred::True => System::True,
            Pred::False => System::False,
            Pred::Cmp { lhs, op, rhs } => {
                programs.push(VmProgram::compile_diff(lhs, rhs, slots));
                System::Row(DiffEq { poly: Poly::constant(0.0), op: *op })
            }
            Pred::And(a, b) => System::And(
                Box::new(Self::shape(a, programs, slots)),
                Box::new(Self::shape(b, programs, slots)),
            ),
            Pred::Or(a, b) => System::Or(
                Box::new(Self::shape(a, programs, slots)),
                Box::new(Self::shape(b, programs, slots)),
            ),
            Pred::Not(a) => System::Not(Box::new(Self::shape(a, programs, slots))),
        }
    }

    /// Substitutes models through `lookup` into every row, returning the
    /// ready-to-solve system. On error the system must not be solved (it
    /// may be partially substituted); the next successful substitution
    /// rewrites every row. Allocating wrapper over [`substitute_into`].
    ///
    /// [`substitute_into`]: SystemTemplate::substitute_into
    pub fn substitute<F>(&mut self, lookup: &F) -> Result<&System, ExprError>
    where
        F: Fn(usize, usize) -> Result<Poly, ExprError>,
    {
        self.substitute_into(|input, attr, out| {
            out.copy_from(&lookup(input, attr)?);
            Ok(())
        })
    }

    /// [`substitute`] with a writer callback: `bind(input, attr, slot)`
    /// writes the model for `(input, attr)` directly into the VM slot
    /// buffer — called once per distinct attribute, not once per
    /// occurrence, and allocation-free once the template is warm.
    ///
    /// [`substitute`]: SystemTemplate::substitute
    pub fn substitute_into<F>(&mut self, mut bind: F) -> Result<&System, ExprError>
    where
        F: FnMut(usize, usize, &mut Poly) -> Result<(), ExprError>,
    {
        let SystemTemplate { sys, programs, slots, vm } = self;
        vm.ensure_slots(slots.len());
        for (i, &(input, attr)) in slots.attrs().iter().enumerate() {
            bind(input, attr, vm.slot_mut(i))?;
        }
        let mut idx = 0;
        let mut err: Option<ExprError> = None;
        sys.for_each_row_mut(&mut |row| {
            if err.is_none() {
                if let Err(e) = vm.run(&programs[idx], &mut row.poly) {
                    err = Some(e);
                }
                idx += 1;
            }
        });
        match err {
            Some(e) => Err(e),
            None => {
                debug_assert_eq!(idx, programs.len());
                Ok(&*sys)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_model::Expr;

    fn linear_lookup(
        slope0: f64,
        icpt0: f64,
        slope1: f64,
        icpt1: f64,
    ) -> impl Fn(usize, usize) -> Result<Poly, ExprError> {
        move |input, _| {
            Ok(if input == 0 { Poly::linear(icpt0, slope0) } else { Poly::linear(icpt1, slope1) })
        }
    }

    #[test]
    fn row_count_matches_rows() {
        let pred = Pred::Or(
            Box::new(Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0))),
            Box::new(Pred::Not(Box::new(Pred::And(
                Box::new(Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::c(1.0))),
                Box::new(Pred::True),
            )))),
        );
        let sys = System::build(&pred, &linear_lookup(1.0, 0.0, 0.0, 5.0)).unwrap();
        assert_eq!(sys.row_count(), sys.rows().len());
        assert_eq!(sys.row_count(), 2);
        assert_eq!(System::True.row_count(), 0);
    }

    #[test]
    fn figure1_transform() {
        // Fig. 1: A.x + A.v·t < B.v·t + B.a·t², with A.x=1, A.v=3, B.v=1, B.a=1.
        // Difference: 1 + 2t − t² < 0.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0));
        let lookup = |input: usize, _attr: usize| -> Result<Poly, ExprError> {
            Ok(if input == 0 { Poly::linear(1.0, 3.0) } else { Poly::new(vec![0.0, 1.0, 1.0]) })
        };
        let sys = System::build(&pred, &lookup).unwrap();
        let rows = sys.rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].poly, Poly::new(vec![1.0, 2.0, -1.0]));
        // 1 + 2t − t² < 0 ⇔ t > 1+√2 (for t ≥ 0). Root at 1+√2 ≈ 2.414.
        let mut n = 0;
        let sol = sys.solve(Span::new(0.0, 10.0), &mut n);
        assert_eq!(sol.len(), 1);
        assert!((sol.spans()[0].lo - (1.0 + 2f64.sqrt())).abs() < 1e-6);
        assert_eq!(sol.spans()[0].hi, 10.0);
        assert_eq!(n, 1);
    }

    #[test]
    fn conjunction_intersects_rows() {
        // x < y (crossing at t=3) AND x > 0 (x = 2t - 2: t > 1) → (3, 10)∩(1,10)
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0)).and(Pred::cmp(
            Expr::attr_of(0, 0),
            CmpOp::Gt,
            Expr::c(0.0),
        ));
        // x = 2t−2 ; y = t+1 → x<y ⇔ t−3<0 ⇔ t<3 ... recompute: x−y = t−3 <0 → t<3.
        let sys = System::build(&pred, &linear_lookup(2.0, -2.0, 1.0, 1.0)).unwrap();
        let mut n = 0;
        let sol = sys.solve(Span::new(0.0, 10.0), &mut n);
        assert_eq!(sol.len(), 1);
        let s = sol.spans()[0];
        assert!((s.lo - 1.0).abs() < 1e-8, "{s:?}");
        assert!((s.hi - 3.0).abs() < 1e-8, "{s:?}");
    }

    #[test]
    fn disjunction_unions() {
        // x < -5 OR x > 5 with x = t - 10 on [0, 20): t<5 or t>15.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::c(-5.0)).or(Pred::cmp(
            Expr::attr_of(0, 0),
            CmpOp::Gt,
            Expr::c(5.0),
        ));
        let sys = System::build(&pred, &linear_lookup(1.0, -10.0, 0.0, 0.0)).unwrap();
        let mut n = 0;
        let sol = sys.solve(Span::new(0.0, 20.0), &mut n);
        assert_eq!(sol.len(), 2);
        assert!((sol.spans()[0].hi - 5.0).abs() < 1e-8);
        assert!((sol.spans()[1].lo - 15.0).abs() < 1e-8);
    }

    #[test]
    fn negation_complements() {
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::c(0.0)).not();
        // x = t − 5: ¬(x<0) ⇔ t ≥ 5.
        let sys = System::build(&pred, &linear_lookup(1.0, -5.0, 0.0, 0.0)).unwrap();
        let mut n = 0;
        let sol = sys.solve(Span::new(0.0, 10.0), &mut n);
        assert_eq!(sol.len(), 1);
        assert!((sol.spans()[0].lo - 5.0).abs() < 1e-8);
    }

    #[test]
    fn equality_fast_path_consistent() {
        // Two equality rows with the same root: x = y at t=2 and x = z at t=2.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::c(2.0)).and(Pred::cmp(
            Expr::attr_of(0, 0),
            CmpOp::Eq,
            Expr::attr_of(1, 0),
        ));
        // x = t ; y = 2 (const): x=2 → t=2 ; x=y → t=2. Consistent.
        let sys = System::build(&pred, &linear_lookup(1.0, 0.0, 0.0, 2.0)).unwrap();
        let mut n = 0;
        let sol = sys.solve(Span::new(0.0, 10.0), &mut n);
        assert_eq!(sol.len(), 1);
        assert!(sol.spans()[0].is_point());
        assert!((sol.spans()[0].lo - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equality_fast_path_inconsistent() {
        // x = 2 (t=2) AND x = 4 (t=4): no common solution.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::c(2.0)).and(Pred::cmp(
            Expr::attr_of(0, 0),
            CmpOp::Eq,
            Expr::c(4.0),
        ));
        let sys = System::build(&pred, &linear_lookup(1.0, 0.0, 0.0, 0.0)).unwrap();
        let mut n = 0;
        assert!(sys.solve(Span::new(0.0, 10.0), &mut n).is_empty());
    }

    #[test]
    fn no_solution_when_predicate_never_holds() {
        // x > 100 with x = t on [0, 10): empty → operator produces nothing.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::c(100.0));
        let sys = System::build(&pred, &linear_lookup(1.0, 0.0, 0.0, 0.0)).unwrap();
        let mut n = 0;
        assert!(sys.solve(Span::new(0.0, 10.0), &mut n).is_empty());
    }

    #[test]
    fn slack_measures_distance_to_result() {
        // Row: x − 10 = 0 with x = t on [0, 5]: closest at t=5, slack 5.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::c(10.0));
        let sys = System::build(&pred, &linear_lookup(1.0, 0.0, 0.0, 0.0)).unwrap();
        let slack = sys.slack(Span::new(0.0, 5.0));
        assert!((slack - 5.0).abs() < 1e-6, "slack {slack}");
        // If the root is inside the domain, slack ≈ 0.
        let slack = sys.slack(Span::new(0.0, 20.0));
        assert!(slack.abs() < 1e-6);
    }

    #[test]
    fn slack_max_norm_over_rows() {
        // Two rows: t − 2 and t + 2 → ‖D·t‖∞ = max(|t−2|, |t+2|); min at t=0 → 2.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::c(2.0)).and(Pred::cmp(
            Expr::attr_of(0, 0),
            CmpOp::Eq,
            Expr::c(-2.0),
        ));
        let sys = System::build(&pred, &linear_lookup(1.0, 0.0, 0.0, 0.0)).unwrap();
        let slack = sys.slack(Span::new(-5.0, 5.0));
        assert!((slack - 2.0).abs() < 1e-6, "slack {slack}");
    }

    /// The kernel slack had before it went exact: the max-norm at 65 evenly
    /// spaced instants, then a 60-step ternary search in the bracket of the
    /// best one. The exact kernel must never come out above it.
    fn sampled_slack(rows: &[Poly], domain: Span) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        if domain.is_point() {
            return norm_at(rows, domain.lo);
        }
        const SAMPLES: usize = 64;
        let step = domain.len() / SAMPLES as f64;
        let (mut best_t, mut best) = (domain.lo, norm_at(rows, domain.lo));
        for i in 1..=SAMPLES {
            let t = domain.lo + step * i as f64;
            let v = norm_at(rows, t);
            if v < best {
                (best_t, best) = (t, v);
            }
        }
        let (mut lo, mut hi) = ((best_t - step).max(domain.lo), (best_t + step).min(domain.hi));
        for _ in 0..60 {
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if norm_at(rows, m1) <= norm_at(rows, m2) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        best.min(norm_at(rows, 0.5 * (lo + hi)))
    }

    #[test]
    fn exact_slack_is_the_true_minimum() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        let mut s = SolveScratch::default();
        let tol = |r: f64| 1e-9 * (1.0 + r.abs());
        for case in 0..300 {
            let rows: Vec<Poly> = (0..rng.gen_range(1..=4))
                .map(|_| {
                    let degree = rng.gen_range(0..=4);
                    Poly::new((0..=degree).map(|_| rng.gen_range(-5.0..5.0)).collect())
                })
                .collect();
            let lo = rng.gen_range(-5.0..5.0);
            let width = match rng.gen_range(0..4) {
                0 => 0.0,
                1 => rng.gen_range(0.0..pulse_math::EPS),
                _ => rng.gen_range(0.0..6.0),
            };
            let domain = Span::new(lo, lo + width);
            let slack = slack_of(&rows, domain, &mut s);
            let reference = sampled_slack(&rows, domain);
            assert!(slack <= reference + tol(reference), "case {case}: {slack} > {reference}");
            if domain.is_point() {
                // A point domain is read at its instant, as before.
                assert_eq!(slack.to_bits(), norm_at(&rows, lo).to_bits(), "case {case}");
                continue;
            }
            let grid = (0..=10_000)
                .map(|k| (domain.lo + domain.len() * k as f64 / 1e4).min(domain.hi))
                .fold(f64::INFINITY, |m, t| m.min(norm_at(&rows, t)));
            assert!(slack <= grid + tol(grid), "case {case}: {slack} > grid {grid}");
            // Attained at an instant of the domain, so never below the
            // true minimum.
            let attained = s.cands.iter().any(|&t| {
                domain.lo <= t && t <= domain.hi && norm_at(&rows, t).to_bits() == slack.to_bits()
            });
            assert!(attained, "case {case}: {slack} not attained in {domain:?}");
        }
    }

    #[test]
    fn exact_slack_finds_the_narrow_dip_sampling_steps_over() {
        // 0.01·(t−10)²(t−40.5)² plus a tilt: a broad dip of ≈1 near the
        // sample t = 10 and a narrow one of ≈0.1 near t = 40.5, halfway
        // between the samples at 40 and 41 (both ≈2.4).
        let tilt = 0.9 / 30.5;
        let quartic = Poly::linear(-10.0, 1.0)
            .powi(2)
            .mul(&Poly::linear(-40.5, 1.0).powi(2))
            .scale(0.01)
            .add(&Poly::linear(1.0 + 10.0 * tilt, -tilt));
        let (rows, domain) = ([quartic], Span::new(0.0, 64.0));
        let sampled = sampled_slack(&rows, domain);
        assert!((sampled - 1.0).abs() < 1e-3, "sampling should settle in the broad dip: {sampled}");
        let exact = slack_of(&rows, domain, &mut SolveScratch::default());
        assert!((exact - 0.1).abs() < 1e-3, "the narrow dip is the minimum: {exact}");
    }

    #[test]
    fn degenerate_slack_never_panics_or_gives_nan() {
        let mut s = SolveScratch::default();
        let d = Span::new(0.0, 10.0);
        assert_eq!(slack_of(&[], d, &mut s), 0.0);
        assert_eq!(slack_of(&[Poly::zero()], d, &mut s), 0.0);
        assert_eq!(slack_of(&[Poly::constant(-3.0), Poly::constant(2.0)], d, &mut s), 3.0);
        let domains = [
            d,
            Span::point(2.0),
            Span::new(-1e300, 1e300),
            Span { lo: 0.0, hi: f64::INFINITY },
            Span { lo: f64::NEG_INFINITY, hi: f64::INFINITY },
        ];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in 0..4 {
                let mut c = vec![1.0, -2.0, 0.5, 0.25];
                c[at] = bad;
                for rows in
                    [vec![Poly::new(c.clone())], vec![Poly::new(c), Poly::linear(-1.0, 1.0)]]
                {
                    for domain in domains {
                        let slack = slack_of(&rows, domain, &mut s);
                        assert!(slack >= 0.0, "{slack} for {rows:?} over {domain:?}");
                    }
                }
            }
        }
        for domain in domains {
            let rows = [Poly::new(vec![1.0, -2.0, 0.5, 0.25]), Poly::linear(-1.0, 1.0)];
            assert!(slack_of(&rows, domain, &mut s) >= 0.0, "{domain:?}");
        }
    }

    #[test]
    fn template_matches_build_across_shapes() {
        // The template must produce byte-identical rows to a fresh
        // System::build for every boolean/arithmetic shape in the language.
        let preds = [
            Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0)),
            Pred::cmp(
                Expr::attr_of(0, 0) * Expr::c(2.0) + Expr::Time,
                CmpOp::Ge,
                Expr::Pow(Box::new(Expr::attr_of(1, 0)), 2) - Expr::c(3.0),
            ),
            Pred::cmp(Expr::attr_of(0, 0), CmpOp::Eq, Expr::c(1.0)).and(Pred::cmp(
                Expr::attr_of(1, 0),
                CmpOp::Gt,
                Expr::c(0.0),
            )),
            Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::c(-1.0)).or(Pred::cmp(
                Expr::attr_of(0, 0),
                CmpOp::Gt,
                Expr::c(1.0),
            )
            .not()),
            Pred::cmp(
                Expr::Div(Box::new(Expr::attr_of(0, 0)), Box::new(Expr::c(4.0))),
                CmpOp::Le,
                Expr::Neg(Box::new(Expr::attr_of(1, 0))),
            ),
            Pred::True,
            Pred::False,
        ];
        let lookup = linear_lookup(2.0, -1.0, 0.5, 3.0);
        for pred in preds {
            let built = System::build(&pred, &lookup).unwrap();
            let mut tpl = SystemTemplate::compile(&pred);
            let sys = tpl.substitute(&lookup).unwrap();
            let (br, tr) = (built.rows(), sys.rows());
            assert_eq!(br.len(), tr.len(), "{pred:?}");
            for (b, t) in br.iter().zip(&tr) {
                assert_eq!(b.poly, t.poly, "{pred:?}");
                assert_eq!(b.op, t.op, "{pred:?}");
            }
            // Solutions agree too (exercises the boolean structure).
            let (mut n1, mut n2) = (0, 0);
            assert_eq!(
                built.solve(Span::new(-10.0, 10.0), &mut n1).spans(),
                sys.solve(Span::new(-10.0, 10.0), &mut n2).spans()
            );
        }
    }

    #[test]
    fn template_reuse_across_substitutions() {
        // Substituting twice with different models must fully overwrite the
        // first substitution's rows.
        let pred = Pred::cmp(Expr::attr_of(0, 0), CmpOp::Lt, Expr::attr_of(1, 0));
        let mut tpl = SystemTemplate::compile(&pred);
        tpl.substitute(&linear_lookup(1.0, 0.0, 0.0, 5.0)).unwrap();
        let sys = tpl.substitute(&linear_lookup(3.0, 2.0, 0.0, 8.0)).unwrap();
        // x = 3t + 2, y = 8: difference 3t − 6.
        assert_eq!(sys.rows()[0].poly, Poly::linear(-6.0, 3.0));
    }

    #[test]
    fn template_errors_match_build() {
        let sqrt_pred =
            Pred::cmp(Expr::Sqrt(Box::new(Expr::attr_of(0, 0))), CmpOp::Lt, Expr::c(1.0));
        let lookup = linear_lookup(1.0, 0.0, 0.0, 0.0);
        assert!(SystemTemplate::compile(&sqrt_pred).substitute(&lookup).is_err());
        let div_pred = Pred::cmp(
            Expr::Div(Box::new(Expr::c(1.0)), Box::new(Expr::attr_of(0, 0))),
            CmpOp::Lt,
            Expr::c(1.0),
        );
        // Divisor x = t is non-constant: both paths must reject.
        assert!(System::build(&div_pred, &lookup).is_err());
        assert!(SystemTemplate::compile(&div_pred).substitute(&lookup).is_err());
    }

    #[test]
    fn build_propagates_not_polynomial() {
        let pred = Pred::cmp(Expr::Sqrt(Box::new(Expr::attr_of(0, 0))), CmpOp::Lt, Expr::c(1.0));
        assert!(System::build(&pred, &linear_lookup(1.0, 0.0, 0.0, 0.0)).is_err());
        // After normalization it builds fine.
        assert!(System::build(&pred.normalize(), &linear_lookup(1.0, 0.0, 0.0, 0.0)).is_ok());
    }
}
