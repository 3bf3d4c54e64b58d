//! Dense univariate polynomials with `f64` coefficients.
//!
//! Pulse models attributes as time-invariant polynomials `a(t) = Σ c_i t^i`
//! (§II-B of the paper) and every operator transform manipulates them
//! symbolically: differences for selective predicates, derivatives for
//! min/max envelopes, antiderivatives for sum/avg window functions, and
//! `(t - w)` composition (binomial expansion) for window tail integrals.
//!
//! Coefficients are stored in ascending degree order with trailing
//! near-zeros trimmed, so `degree()` is meaningful and arithmetic stays
//! compact.

use std::fmt;

/// Coefficients whose magnitude falls below this are trimmed.
const COEFF_EPS: f64 = 1e-12;

/// True for a trailing coefficient that trimming drops (never NaN).
fn negligible(x: f64) -> bool {
    x.abs() < COEFF_EPS
}

/// A univariate polynomial `c[0] + c[1] t + c[2] t² + …`.
///
/// ```
/// use pulse_math::Poly;
/// // x(t) = 1 + 3t, y(t) = t + t² — Figure 1's models.
/// let x = Poly::linear(1.0, 3.0);
/// let y = Poly::new(vec![0.0, 1.0, 1.0]);
/// // The difference form x(t) − y(t) = 1 + 2t − t².
/// let d = x.sub(&y);
/// assert_eq!(d.coeffs(), &[1.0, 2.0, -1.0]);
/// // Its root in [0, 10] is 1 + √2: where the predicate x < y flips.
/// let roots = pulse_math::poly_roots_in(&d, 0.0, 10.0, 1e-12);
/// assert!((roots[0] - (1.0 + 2f64.sqrt())).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Poly {
    c: Vec<f64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { c: Vec::new() }
    }

    /// The constant polynomial `k`.
    pub fn constant(k: f64) -> Self {
        Poly::new(vec![k])
    }

    /// The identity polynomial `t`.
    pub fn t() -> Self {
        Poly::new(vec![0.0, 1.0])
    }

    /// A linear polynomial `b + a·t`.
    pub fn linear(b: f64, a: f64) -> Self {
        Poly::new(vec![b, a])
    }

    /// Builds from ascending coefficients, trimming trailing near-zeros.
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Poly { c: coeffs };
        p.trim();
        p
    }

    fn trim(&mut self) {
        while matches!(self.c.last(), Some(&x) if negligible(x)) {
            self.c.pop();
        }
    }

    /// Ascending coefficients (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[f64] {
        &self.c
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.c.len().checked_sub(1)
    }

    /// True for the (numerically) zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.c.is_empty()
    }

    /// True when the polynomial is a constant (degree 0 or zero).
    pub fn is_constant(&self) -> bool {
        self.c.len() <= 1
    }

    /// Leading coefficient (0 for the zero polynomial).
    pub fn leading(&self) -> f64 {
        self.c.last().copied().unwrap_or(0.0)
    }

    /// Coefficient of `t^i` (0 beyond the stored degree).
    pub fn coeff(&self, i: usize) -> f64 {
        self.c.get(i).copied().unwrap_or(0.0)
    }

    /// Evaluates at `t` using Horner's rule.
    pub fn eval(&self, t: f64) -> f64 {
        Poly::eval_coeffs(&self.c, t)
    }

    /// [`Self::eval`] over bare ascending coefficients, for callers that
    /// pack many polynomials into one flat buffer.
    pub fn eval_coeffs(c: &[f64], t: f64) -> f64 {
        c.iter().rev().fold(0.0, |acc, &c| acc * t + c)
    }

    /// Batch Horner evaluation over a chunk of sample times.
    ///
    /// The inner loop runs over the contiguous `f64` arrays (coefficient
    /// outer, samples inner), so it vectorizes where the per-point `eval`
    /// cannot. Each lane performs the identical `acc·t + c` sequence, so
    /// results are bit-identical to calling [`Poly::eval`] per point.
    pub fn eval_many(&self, ts: &[f64], out: &mut [f64]) {
        debug_assert_eq!(ts.len(), out.len());
        out.fill(0.0);
        for &c in self.c.iter().rev() {
            for (o, &t) in out.iter_mut().zip(ts) {
                *o = *o * t + c;
            }
        }
    }

    /// Replaces `self` with a copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Poly) {
        self.c.clear();
        self.c.extend_from_slice(&other.c);
    }

    /// Replaces `self` with the constant polynomial `k`, reusing the
    /// allocation; bit-identical to `Poly::constant(k)`.
    pub fn set_constant(&mut self, k: f64) {
        self.c.clear();
        self.c.push(k);
        self.trim();
    }

    /// Writes `self.powi(n)` into `out`, with `base` and `tmp` as staging
    /// buffers; the repeated-squaring sequence matches [`Poly::powi`]
    /// exactly, so coefficients are bit-identical.
    pub fn powi_into(&self, mut n: u32, out: &mut Poly, base: &mut Poly, tmp: &mut Poly) {
        base.copy_from(self);
        out.set_constant(1.0);
        while n > 0 {
            if n & 1 == 1 {
                out.mul_into(base, tmp);
                std::mem::swap(out, tmp);
            }
            base.mul_into(base, tmp);
            std::mem::swap(base, tmp);
            n >>= 1;
        }
    }

    /// In-place pointwise sum; bit-identical to `self.add(other)`.
    pub fn add_assign_poly(&mut self, other: &Poly) {
        let n = self.c.len().max(other.c.len());
        self.c.resize(n, 0.0);
        for (i, slot) in self.c.iter_mut().enumerate() {
            *slot += other.coeff(i);
        }
        self.trim();
    }

    /// In-place pointwise difference; bit-identical to `self.sub(other)`.
    pub fn sub_assign_poly(&mut self, other: &Poly) {
        let n = self.c.len().max(other.c.len());
        self.c.resize(n, 0.0);
        for (i, slot) in self.c.iter_mut().enumerate() {
            *slot -= other.coeff(i);
        }
        self.trim();
    }

    /// In-place negation; bit-identical to `self.neg()`.
    pub fn neg_assign(&mut self) {
        for c in &mut self.c {
            *c = -*c;
        }
        self.trim();
    }

    /// In-place scalar multiple; bit-identical to `self.scale(k)`.
    pub fn scale_assign(&mut self, k: f64) {
        for c in &mut self.c {
            *c *= k;
        }
        self.trim();
    }

    /// Writes `self · other` into `out`, reusing its allocation; the
    /// accumulation order matches [`Poly::mul`] exactly, so coefficients
    /// are bit-identical.
    pub fn mul_into(&self, other: &Poly, out: &mut Poly) {
        Poly::mul_coeffs_into(&self.c, &other.c, out);
    }

    /// [`Self::mul_into`] over bare trimmed coefficient slices.
    fn mul_coeffs_into(x: &[f64], y: &[f64], out: &mut Poly) {
        out.c.clear();
        if x.is_empty() || y.is_empty() {
            return;
        }
        out.c.resize(x.len() + y.len() - 1, 0.0);
        for (i, &a) in x.iter().enumerate() {
            for (j, &b) in y.iter().enumerate() {
                out.c[i + j] += a * b;
            }
        }
        out.trim();
    }

    /// In-place `self + Poly::constant(k)`; bit-identical to `add`, which
    /// also adds `0.0` to every higher coefficient.
    fn add_constant_assign(&mut self, k: f64) {
        let k_len = if negligible(k) { 0 } else { 1 };
        if self.c.len() < k_len {
            self.c.push(0.0);
        }
        for (i, slot) in self.c.iter_mut().enumerate() {
            *slot += if i < k_len { k } else { 0.0 };
        }
        self.trim();
    }

    /// Writes `self.compose_linear(a, b)` into `out`, with `tmp` as a
    /// staging buffer. The Horner steps and their intermediate trims match
    /// [`Poly::compose_linear`] exactly, so coefficients are bit-identical.
    pub fn compose_linear_into(&self, a: f64, b: f64, out: &mut Poly, tmp: &mut Poly) {
        // `Poly::linear(b, a)`, trimmed the same way, without allocating.
        let inner = [b, a];
        let inner_len = inner.iter().rposition(|&x| !negligible(x)).map_or(0, |i| i + 1);
        out.c.clear();
        for &c in self.c.iter().rev() {
            Poly::mul_coeffs_into(&out.c, &inner[..inner_len], tmp);
            std::mem::swap(out, tmp);
            out.add_constant_assign(c);
        }
    }

    /// Writes the first derivative into `out`, reusing its allocation;
    /// bit-identical to [`Poly::derivative`].
    pub fn derivative_into(&self, out: &mut Poly) {
        out.c.clear();
        self.derivative_append(&mut out.c);
    }

    /// Pointwise sum.
    pub fn add(&self, other: &Poly) -> Poly {
        let n = self.c.len().max(other.c.len());
        let mut out = vec![0.0; n];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.coeff(i) + other.coeff(i);
        }
        Poly::new(out)
    }

    /// Pointwise difference `self − other`; this is the paper's "difference
    /// form" `x(t) − y(t)` of a predicate `x R y`.
    pub fn sub(&self, other: &Poly) -> Poly {
        let n = self.c.len().max(other.c.len());
        let mut out = vec![0.0; n];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.coeff(i) - other.coeff(i);
        }
        Poly::new(out)
    }

    /// Negation.
    pub fn neg(&self) -> Poly {
        Poly::new(self.c.iter().map(|c| -c).collect())
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Poly {
        Poly::new(self.c.iter().map(|c| c * k).collect())
    }

    /// Product (convolution of coefficients).
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0.0; self.c.len() + other.c.len() - 1];
        for (i, &a) in self.c.iter().enumerate() {
            for (j, &b) in other.c.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
        Poly::new(out)
    }

    /// Integer power by repeated squaring.
    pub fn powi(&self, mut n: u32) -> Poly {
        let mut base = self.clone();
        let mut acc = Poly::constant(1.0);
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.mul(&base);
            }
            base = base.mul(&base);
            n >>= 1;
        }
        acc
    }

    /// First derivative.
    pub fn derivative(&self) -> Poly {
        let mut d = Poly::zero();
        self.derivative_into(&mut d);
        d
    }

    /// Appends the coefficients of [`Self::derivative`] to `out`, trimmed
    /// like every polynomial's, with no allocation of its own. Returns how
    /// many it appended (0 for a constant).
    pub fn derivative_append(&self, out: &mut Vec<f64>) -> usize {
        let start = out.len();
        out.extend(self.c.iter().enumerate().skip(1).map(|(i, &c)| c * i as f64));
        while matches!(out[start..].last(), Some(&x) if x.abs() < COEFF_EPS) {
            out.pop();
        }
        out.len() - start
    }

    /// Antiderivative with zero constant term: `∫ Σ cᵢtⁱ = Σ cᵢ/(i+1) tⁱ⁺¹`
    /// (Eq. 2 of the paper, without the lower limit applied).
    pub fn antiderivative(&self) -> Poly {
        let mut out = vec![0.0; self.c.len() + 1];
        for (i, &c) in self.c.iter().enumerate() {
            out[i + 1] = c / (i + 1) as f64;
        }
        Poly::new(out)
    }

    /// Definite integral over `[lo, hi]`.
    pub fn integrate(&self, lo: f64, hi: f64) -> f64 {
        let f = self.antiderivative();
        f.eval(hi) - f.eval(lo)
    }

    /// Composition with a linear map: returns `q(t) = p(a·t + b)`.
    ///
    /// With `a = 1, b = −w` this is the binomial-theorem expansion of
    /// `p(t − w)` used by the window tail integral (§III-B).
    pub fn compose_linear(&self, a: f64, b: f64) -> Poly {
        let inner = Poly::linear(b, a);
        let mut acc = Poly::zero();
        for &c in self.c.iter().rev() {
            acc = acc.mul(&inner).add(&Poly::constant(c));
        }
        acc
    }

    /// `p(t + dt)` — re-bases a model onto a shifted time origin.
    pub fn shift_origin(&self, dt: f64) -> Poly {
        self.compose_linear(1.0, dt)
    }

    /// Largest coefficient magnitude (a cheap polynomial "size").
    pub fn max_coeff(&self) -> f64 {
        self.c.iter().fold(0.0_f64, |m, c| m.max(c.abs()))
    }

    /// Maximum of `|p(t)|` over `[lo, hi]`, via critical points.
    pub fn max_abs_on(&self, lo: f64, hi: f64) -> f64 {
        let mut best = self.eval(lo).abs().max(self.eval(hi).abs());
        for r in crate::roots::poly_roots_in(&self.derivative(), lo, hi, 1e-10) {
            best = best.max(self.eval(r).abs());
        }
        best
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, &c) in self.c.iter().enumerate() {
            if c.abs() < COEFF_EPS {
                continue;
            }
            if !first {
                write!(f, " {} ", if c < 0.0 { "-" } else { "+" })?;
            } else if c < 0.0 {
                write!(f, "-")?;
            }
            let a = c.abs();
            match i {
                0 => write!(f, "{a}")?,
                1 => write!(f, "{a}t")?,
                _ => write!(f, "{a}t^{i}")?,
            }
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(c: &[f64]) -> Poly {
        Poly::new(c.to_vec())
    }

    #[test]
    fn eval_horner() {
        let q = p(&[1.0, 2.0, 3.0]); // 1 + 2t + 3t²
        assert_eq!(q.eval(0.0), 1.0);
        assert_eq!(q.eval(1.0), 6.0);
        assert_eq!(q.eval(2.0), 17.0);
    }

    #[test]
    fn zero_polynomial_properties() {
        let z = Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.eval(42.0), 0.0);
        assert_eq!(z.leading(), 0.0);
        // Constructing from all-zero coefficients also yields zero.
        assert!(p(&[0.0, 0.0]).is_zero());
    }

    #[test]
    fn add_sub_cancel() {
        let a = p(&[1.0, 2.0, 3.0]);
        let b = p(&[1.0, 2.0, 3.0]);
        assert!(a.sub(&b).is_zero());
        assert_eq!(a.add(&b), p(&[2.0, 4.0, 6.0]));
        // Leading-term cancellation reduces the degree.
        let c = p(&[0.0, 1.0, 3.0]);
        assert_eq!(a.sub(&c).degree(), Some(1));
    }

    #[test]
    fn mul_matches_eval() {
        let a = p(&[1.0, 1.0]); // 1 + t
        let b = p(&[-2.0, 0.0, 1.0]); // t² − 2
        let prod = a.mul(&b);
        for t in [-2.0, -0.5, 0.0, 1.3, 4.0] {
            assert!((prod.eval(t) - a.eval(t) * b.eval(t)).abs() < 1e-9);
        }
        assert_eq!(prod.degree(), Some(3));
    }

    #[test]
    fn powers() {
        let a = p(&[1.0, 1.0]);
        assert_eq!(a.powi(0), Poly::constant(1.0));
        assert_eq!(a.powi(2), p(&[1.0, 2.0, 1.0]));
        assert_eq!(a.powi(3), p(&[1.0, 3.0, 3.0, 1.0]));
    }

    #[test]
    fn derivative_antiderivative_roundtrip() {
        let a = p(&[4.0, 3.0, 2.0, 1.0]);
        let d = a.derivative();
        assert_eq!(d, p(&[3.0, 4.0, 3.0]));
        // d/dt ∫p = p
        assert_eq!(a.antiderivative().derivative(), a);
    }

    #[test]
    fn flat_derivative_matches_derivative() {
        // Trailing near-zeros are trimmed the same way; constants add none
        // and leave what the buffer already held (here a zero) alone.
        for a in
            [p(&[4.0, 3.0, 2.0, 1.0]), p(&[1.0, 2.0, 1e-13]), Poly::constant(7.0), Poly::zero()]
        {
            let mut flat = vec![0.0];
            let n = a.derivative_append(&mut flat);
            assert_eq!(&flat[1..], a.derivative().coeffs(), "{a}");
            assert_eq!(n, flat.len() - 1);
            for t in [-2.5, 0.0, 3.25] {
                let want = a.derivative().eval(t);
                assert_eq!(Poly::eval_coeffs(&flat[1..], t).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn definite_integral() {
        let a = p(&[0.0, 2.0]); // 2t, ∫₀¹ = 1
        assert!((a.integrate(0.0, 1.0) - 1.0).abs() < 1e-12);
        let c = Poly::constant(5.0);
        assert!((c.integrate(2.0, 4.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn compose_linear_binomial() {
        // p(t) = t², p(t-3) = t² - 6t + 9
        let a = p(&[0.0, 0.0, 1.0]);
        let shifted = a.compose_linear(1.0, -3.0);
        assert_eq!(shifted, p(&[9.0, -6.0, 1.0]));
        for t in [-1.0, 0.0, 2.5, 7.0] {
            assert!((shifted.eval(t) - a.eval(t - 3.0)).abs() < 1e-9);
        }
    }

    #[test]
    fn shift_origin_rebases() {
        let a = p(&[1.0, 2.0]); // 1 + 2t
        let s = a.shift_origin(10.0); // value at local t equals a at t+10
        assert!((s.eval(0.0) - a.eval(10.0)).abs() < 1e-12);
        assert!((s.eval(5.0) - a.eval(15.0)).abs() < 1e-12);
    }

    #[test]
    fn max_abs_on_interval() {
        // t² - 1 on [-2, 2]: |p| max is 3 at the endpoints, local max 1 at t=0.
        let a = p(&[-1.0, 0.0, 1.0]);
        assert!((a.max_abs_on(-2.0, 2.0) - 3.0).abs() < 1e-9);
        assert!((a.max_abs_on(-0.5, 0.5) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let cases = [
            (p(&[1.0, 2.0, 3.0]), p(&[0.5, -2.0])),
            (p(&[0.0, 1.0]), p(&[0.0, -1.0])),
            (Poly::zero(), p(&[4.0, 5.0, 6.0])),
            (p(&[1e-3, -7.0, 2.5, 0.25]), Poly::zero()),
        ];
        for (a, b) in &cases {
            let mut x = a.clone();
            x.add_assign_poly(b);
            assert_eq!(x, a.add(b));
            let mut x = a.clone();
            x.sub_assign_poly(b);
            assert_eq!(x, a.sub(b));
            let mut x = a.clone();
            x.neg_assign();
            assert_eq!(x, a.neg());
            let mut x = a.clone();
            x.scale_assign(-1.5);
            assert_eq!(x, a.scale(-1.5));
            let mut out = p(&[9.0, 9.0]);
            a.mul_into(b, &mut out);
            assert_eq!(out, a.mul(b));
            let mut d = p(&[9.0]);
            a.derivative_into(&mut d);
            assert_eq!(d, a.derivative());
            let mut c = p(&[1.0, 1.0, 1.0, 1.0]);
            c.copy_from(a);
            assert_eq!(&c, a);
            for n in 0..5u32 {
                let (mut out, mut base, mut tmp) = (p(&[7.0]), p(&[7.0]), p(&[7.0]));
                a.powi_into(n, &mut out, &mut base, &mut tmp);
                assert_eq!(out, a.powi(n), "n={n}");
            }
        }
        let mut k = p(&[1.0, 2.0]);
        k.set_constant(4.5);
        assert_eq!(k, Poly::constant(4.5));
        k.set_constant(0.0);
        assert_eq!(k, Poly::constant(0.0));
        assert!(k.is_zero());
    }

    fn bits(q: &Poly) -> Vec<u64> {
        q.coeffs().iter().map(|c| c.to_bits()).collect()
    }

    /// Ordinary values, values trimming drops, and exact zeros.
    fn coeff() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::*;
        prop_oneof![-8.0..8.0_f64, -COEFF_EPS..COEFF_EPS, Just(0.0)]
    }

    proptest::proptest! {
        /// Degrees 0–4, the zero polynomial, and near-zero coefficients
        /// both in `self` and in the linear map.
        #[test]
        fn compose_linear_into_is_bit_identical(
            c in proptest::prelude::prop::collection::vec(coeff(), 0..=5),
            a in coeff(),
            b in coeff(),
        ) {
            let q = Poly::new(c);
            let (mut out, mut tmp) = (p(&[9.0, 9.0, 9.0]), p(&[9.0]));
            q.compose_linear_into(a, b, &mut out, &mut tmp);
            proptest::prop_assert_eq!(bits(&out), bits(&q.compose_linear(a, b)));
        }
    }

    #[test]
    fn eval_many_matches_eval() {
        let q = p(&[1.0, -2.0, 0.5, 3.0]);
        let ts: Vec<f64> = (0..37).map(|i| -3.0 + 0.2 * i as f64).collect();
        let mut out = vec![0.0; ts.len()];
        q.eval_many(&ts, &mut out);
        for (t, o) in ts.iter().zip(&out) {
            assert_eq!(q.eval(*t).to_bits(), o.to_bits(), "t={t}");
        }
    }

    #[test]
    fn display_formatting() {
        assert_eq!(p(&[1.0, -2.0, 3.0]).to_string(), "1 - 2t + 3t^2");
        assert_eq!(Poly::zero().to_string(), "0");
    }
}
