//! Comparison operators and sign analysis of polynomials.
//!
//! A Pulse difference equation is `p(t) R 0` for a relational operator
//! `R ∈ {<, ≤, =, ≠, ≥, >}` (§III-A). [`solve_poly_cmp`] turns one such row
//! into the [`RangeSet`] of times at which it holds: root finding plus sign
//! tests on the intervals between roots, exactly the paper's "combine root
//! finding with sign tests to yield a set of time ranges".

use crate::interval::{RangeSet, Span, EPS};
use crate::poly::Poly;
use crate::roots::{poly_roots_into, RootScratch};

/// The six standard relational comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Eq,
    Ne,
    Ge,
    Gt,
}

impl CmpOp {
    /// Applies the comparison to concrete values (with tolerance for `Eq`/`Ne`).
    pub fn test(&self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => (a - b).abs() <= EPS,
            CmpOp::Ne => (a - b).abs() > EPS,
            CmpOp::Ge => a >= b,
            CmpOp::Gt => a > b,
        }
    }

    /// The operator with both sides swapped (`a R b` ⇔ `b R.flip() a`).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
        }
    }

    /// Logical negation (`!(a R b)` ⇔ `a R.negate() b`).
    pub fn negate(&self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Gt => CmpOp::Le,
        }
    }

    /// Whether the boundary (root) itself satisfies the comparison with 0.
    pub fn accepts_zero(&self) -> bool {
        matches!(self, CmpOp::Le | CmpOp::Eq | CmpOp::Ge)
    }

    /// Whether a strictly negative value satisfies the comparison with 0.
    pub fn accepts_negative(&self) -> bool {
        matches!(self, CmpOp::Lt | CmpOp::Le | CmpOp::Ne)
    }

    /// Whether a strictly positive value satisfies the comparison with 0.
    pub fn accepts_positive(&self) -> bool {
        matches!(self, CmpOp::Gt | CmpOp::Ge | CmpOp::Ne)
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
        };
        f.write_str(s)
    }
}

/// Reusable buffers for [`solve_poly_cmp_append`] and
/// [`solve_poly_cmp_scratch`]: the root list, the interval cut list, and
/// the root-isolation scratch. One per solver loop. Once it and the output
/// vector are warm, [`solve_poly_cmp_append`] allocates nothing except for
/// `≠`, which normalizes its root points in a temporary set;
/// [`solve_poly_cmp_scratch`] also allocates the [`RangeSet`] it returns.
/// Fields are public so callers can drive the staged API
/// ([`solve_cmp_degenerate`] → [`poly_roots_into`] →
/// [`solve_cmp_from_roots`]) and attribute time to each stage.
#[derive(Debug, Default)]
pub struct CmpScratch {
    pub roots: RootScratch,
    pub root_buf: Vec<f64>,
    pub cuts: Vec<f64>,
}

/// Degenerate cases of `p(t) R 0` needing no root isolation: the
/// identically-zero polynomial and point domains. `Some(true)` when the
/// whole domain satisfies the row, `Some(false)` when none of it does.
fn degenerate(p: &Poly, op: CmpOp, domain: Span) -> Option<bool> {
    if p.is_zero() {
        return Some(op.accepts_zero());
    }
    if domain.is_point() {
        return Some(op.test(p.eval(domain.lo), 0.0));
    }
    None
}

/// Degenerate fast paths of `p(t) R 0` needing no root isolation: the
/// identically-zero polynomial and point domains.
pub fn solve_cmp_degenerate(p: &Poly, op: CmpOp, domain: Span) -> Option<RangeSet> {
    degenerate(p, op, domain)
        .map(|all| if all { RangeSet::single(domain) } else { RangeSet::empty() })
}

/// Solves `p(t) R 0` for `t ∈ domain`, returning the satisfying time ranges.
///
/// Equality over a non-zero polynomial yields isolated points; an
/// identically-zero polynomial makes `=`, `≤`, `≥` hold everywhere and `<`,
/// `>`, `≠` nowhere. Allocating wrapper over [`solve_poly_cmp_scratch`].
pub fn solve_poly_cmp(p: &Poly, op: CmpOp, domain: Span, tol: f64) -> RangeSet {
    solve_poly_cmp_scratch(p, op, domain, tol, &mut CmpScratch::default())
}

/// [`solve_poly_cmp`] with caller-owned scratch buffers — bit-identical
/// results, no intermediate heap allocation once the scratch is warm.
pub fn solve_poly_cmp_scratch(
    p: &Poly,
    op: CmpOp,
    domain: Span,
    tol: f64,
    s: &mut CmpScratch,
) -> RangeSet {
    let mut spans = Vec::new();
    solve_poly_cmp_append(p, op, domain, tol, s, &mut spans);
    RangeSet::from_spans(spans)
}

/// Appends the spans where `p(t) R 0` holds on `domain` to `out`, without
/// normalizing them. [`RangeSet::normalize_in_place`] over `out` then
/// yields [`solve_poly_cmp_scratch`]'s set bit for bit — also when `out`
/// collects several solutions, whose normalized concatenation is their
/// union.
pub fn solve_poly_cmp_append(
    p: &Poly,
    op: CmpOp,
    domain: Span,
    tol: f64,
    s: &mut CmpScratch,
    out: &mut Vec<Span>,
) {
    if let Some(all) = degenerate(p, op, domain) {
        if all {
            out.push(domain);
        }
        return;
    }
    poly_roots_into(p, domain.lo, domain.hi, tol, &mut s.roots, &mut s.root_buf);
    append_from_roots(p, op, domain, tol, &s.root_buf, &mut s.cuts, out);
}

/// Sign analysis of `p(t) R 0` on `domain` given `p`'s roots there (as
/// produced by [`poly_roots_into`]). Together with [`solve_cmp_degenerate`]
/// this is [`solve_poly_cmp_scratch`] split into stages so callers can time
/// isolation and refinement separately.
pub fn solve_cmp_from_roots(
    p: &Poly,
    op: CmpOp,
    domain: Span,
    tol: f64,
    roots: &[f64],
    cuts: &mut Vec<f64>,
) -> RangeSet {
    let mut spans = Vec::new();
    append_from_roots(p, op, domain, tol, roots, cuts, &mut spans);
    RangeSet::from_spans(spans)
}

/// [`solve_cmp_from_roots`]'s spans, appended to `out` unnormalized.
fn append_from_roots(
    p: &Poly,
    op: CmpOp,
    domain: Span,
    tol: f64,
    roots: &[f64],
    cuts: &mut Vec<f64>,
    out: &mut Vec<Span>,
) {
    match op {
        CmpOp::Eq => out.extend(roots.iter().map(|&r| Span::point(r))),
        CmpOp::Ne => {
            let eq = RangeSet::from_spans(roots.iter().map(|&r| Span::point(r)).collect());
            RangeSet::complement_into(eq.spans(), domain, out);
        }
        _ => {
            // Sign is constant between consecutive roots: sample midpoints.
            cuts.clear();
            cuts.reserve(roots.len() + 2);
            cuts.push(domain.lo);
            cuts.extend(
                roots.iter().copied().filter(|r| *r > domain.lo + EPS && *r < domain.hi - EPS),
            );
            cuts.push(domain.hi);
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1]);
                if b - a <= EPS {
                    continue;
                }
                let v = p.eval(0.5 * (a + b));
                let keep = if v > tol {
                    op.accepts_positive()
                } else if v < -tol {
                    op.accepts_negative()
                } else {
                    // Numerically zero across the subinterval (e.g. a flat
                    // tangency): keep only for boundary-accepting ops.
                    op.accepts_zero()
                };
                if keep {
                    out.push(Span::new(a, b));
                }
            }
            if op.accepts_zero() {
                // Re-attach roots so tangency points are not lost between
                // rejected neighbours (e.g. p ≤ 0 with p = (t-2)²).
                out.extend(roots.iter().map(|&r| Span::point(r)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(c: &[f64]) -> Poly {
        Poly::new(c.to_vec())
    }

    #[test]
    fn cmp_test_semantics() {
        assert!(CmpOp::Lt.test(1.0, 2.0));
        assert!(!CmpOp::Lt.test(2.0, 2.0));
        assert!(CmpOp::Le.test(2.0, 2.0));
        assert!(CmpOp::Eq.test(2.0, 2.0 + 1e-12));
        assert!(CmpOp::Ne.test(2.0, 3.0));
        assert!(CmpOp::Ge.test(3.0, 3.0));
        assert!(CmpOp::Gt.test(4.0, 3.0));
    }

    #[test]
    fn cmp_flip_negate() {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt] {
            for (a, b) in [(1.0, 2.0), (2.0, 2.0), (3.0, 2.0)] {
                assert_eq!(op.test(a, b), op.flip().test(b, a), "{op} flip");
                assert_eq!(op.test(a, b), !op.negate().test(a, b), "{op} negate");
            }
        }
    }

    #[test]
    fn linear_inequality() {
        // t - 5 < 0 on [0, 10) → [0, 5)
        let rs = solve_poly_cmp(&poly(&[-5.0, 1.0]), CmpOp::Lt, Span::new(0.0, 10.0), 1e-10);
        assert_eq!(rs.spans(), &[Span::new(0.0, 5.0)]);
        // t - 5 > 0 → [5, 10); boundary excluded only within tolerance
        let rs = solve_poly_cmp(&poly(&[-5.0, 1.0]), CmpOp::Gt, Span::new(0.0, 10.0), 1e-10);
        assert_eq!(rs.spans(), &[Span::new(5.0, 10.0)]);
    }

    #[test]
    fn equality_yields_points() {
        let rs = solve_poly_cmp(&poly(&[-5.0, 1.0]), CmpOp::Eq, Span::new(0.0, 10.0), 1e-10);
        assert_eq!(rs.spans(), &[Span::point(5.0)]);
        assert_eq!(rs.measure(), 0.0);
    }

    #[test]
    fn not_equal_excludes_points() {
        let rs = solve_poly_cmp(&poly(&[-5.0, 1.0]), CmpOp::Ne, Span::new(0.0, 10.0), 1e-10);
        assert_eq!(rs.len(), 2);
        assert!(!rs.contains(5.0));
        assert!(rs.contains(4.9));
        assert!(rs.contains(5.1));
    }

    #[test]
    fn quadratic_between_roots() {
        // (t-2)(t-8) < 0 → (2, 8)
        let p = poly(&[16.0, -10.0, 1.0]);
        let rs = solve_poly_cmp(&p, CmpOp::Lt, Span::new(0.0, 10.0), 1e-10);
        assert_eq!(rs.len(), 1);
        let s = rs.spans()[0];
        assert!((s.lo - 2.0).abs() < 1e-8 && (s.hi - 8.0).abs() < 1e-8);
    }

    #[test]
    fn zero_poly_semantics() {
        let d = Span::new(0.0, 1.0);
        assert_eq!(solve_poly_cmp(&Poly::zero(), CmpOp::Le, d, 1e-10).spans(), &[d]);
        assert!(solve_poly_cmp(&Poly::zero(), CmpOp::Lt, d, 1e-10).is_empty());
        assert_eq!(solve_poly_cmp(&Poly::zero(), CmpOp::Eq, d, 1e-10).spans(), &[d]);
        assert!(solve_poly_cmp(&Poly::zero(), CmpOp::Ne, d, 1e-10).is_empty());
    }

    #[test]
    fn tangency_kept_for_le() {
        // (t-2)² ≤ 0 holds only at t=2.
        let p = poly(&[4.0, -4.0, 1.0]);
        let rs = solve_poly_cmp(&p, CmpOp::Le, Span::new(0.0, 5.0), 1e-10);
        assert!(rs.contains(2.0), "{rs:?}");
        assert!(rs.measure() < 1e-6);
        // (t-2)² < 0 never holds.
        let rs = solve_poly_cmp(&p, CmpOp::Lt, Span::new(0.0, 5.0), 1e-10);
        assert!(rs.is_empty());
    }

    #[test]
    fn point_domain() {
        let p = poly(&[-5.0, 1.0]);
        let hit = solve_poly_cmp(&p, CmpOp::Eq, Span::point(5.0), 1e-10);
        assert_eq!(hit.spans(), &[Span::point(5.0)]);
        let miss = solve_poly_cmp(&p, CmpOp::Eq, Span::point(4.0), 1e-10);
        assert!(miss.is_empty());
    }

    #[test]
    fn no_solution_in_domain() {
        // t - 50 < 0 holds on the whole domain; > 0 nowhere.
        let p = poly(&[-50.0, 1.0]);
        let d = Span::new(0.0, 10.0);
        assert_eq!(solve_poly_cmp(&p, CmpOp::Lt, d, 1e-10).spans(), &[d]);
        assert!(solve_poly_cmp(&p, CmpOp::Gt, d, 1e-10).is_empty());
    }

    /// `p(t) R 0` as one allocating composition: a `RangeSet` per stage,
    /// `≠` as the complement of `=`. The reference the appending solver
    /// must match bit for bit.
    fn reference_solve(p: &Poly, op: CmpOp, domain: Span, tol: f64) -> RangeSet {
        if p.is_zero() {
            return if op.accepts_zero() { RangeSet::single(domain) } else { RangeSet::empty() };
        }
        if domain.is_point() {
            let holds = op.test(p.eval(domain.lo), 0.0);
            return if holds { RangeSet::single(domain) } else { RangeSet::empty() };
        }
        let roots = crate::roots::poly_roots_in(p, domain.lo, domain.hi, tol);
        let points = || RangeSet::from_spans(roots.iter().map(|&r| Span::point(r)).collect());
        match op {
            CmpOp::Eq => points(),
            CmpOp::Ne => points().complement(domain),
            _ => {
                let mut cuts = vec![domain.lo];
                cuts.extend(
                    roots.iter().filter(|r| **r > domain.lo + EPS && **r < domain.hi - EPS),
                );
                cuts.push(domain.hi);
                let mut spans = Vec::new();
                for w in cuts.windows(2) {
                    let (a, b) = (w[0], w[1]);
                    if b - a <= EPS {
                        continue;
                    }
                    let v = p.eval(0.5 * (a + b));
                    let keep = if v > tol {
                        op.accepts_positive()
                    } else if v < -tol {
                        op.accepts_negative()
                    } else {
                        op.accepts_zero()
                    };
                    if keep {
                        spans.push(Span::new(a, b));
                    }
                }
                if op.accepts_zero() {
                    spans.extend(roots.iter().map(|&r| Span::point(r)));
                }
                RangeSet::from_spans(spans)
            }
        }
    }

    #[test]
    fn append_then_normalize_equals_allocating_solve() {
        use crate::interval::tests::{random_spans, span_bits};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Eq, CmpOp::Ne, CmpOp::Ge, CmpOp::Gt];
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = CmpScratch::default();
        let mut out = Vec::new();
        for case in 0..2000 {
            // Roots on a coarse grid repeat (tangencies) and land on or
            // EPS-close to the domain's ends.
            let mut p = Poly::constant(rng.gen_range(-2.0..2.0));
            for _ in 0..rng.gen_range(0..4) {
                let r =
                    rng.gen_range(0..12) as f64 * 0.5 + rng.gen_range(-1..=1) as f64 * 0.5 * EPS;
                p = p.mul(&Poly::linear(-r, 1.0));
            }
            if case % 50 == 0 {
                p = Poly::zero();
            }
            let lo = rng.gen_range(0..4) as f64 * 0.5;
            let len = if case % 20 == 0 { 0.0 } else { rng.gen_range(0..8) as f64 * 0.5 };
            let domain = Span::new(lo, lo + len);
            for op in ops {
                let want = reference_solve(&p, op, domain, 1e-10);
                let got = solve_poly_cmp_scratch(&p, op, domain, 1e-10, &mut s);
                assert_eq!(span_bits(got.spans()), span_bits(want.spans()), "{p} {op} {domain:?}");
                // Appended after other spans, as the min/max envelope does.
                let prefix = random_spans(&mut rng, 4);
                out.clear();
                out.extend_from_slice(&prefix);
                solve_poly_cmp_append(&p, op, domain, 1e-10, &mut s, &mut out);
                RangeSet::normalize_in_place(&mut out);
                let want = RangeSet::from_spans(prefix).union(&want);
                assert_eq!(span_bits(&out), span_bits(want.spans()), "{p} {op} {domain:?}");
            }
        }
    }
}
