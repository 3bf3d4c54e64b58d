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
//! compact. Up to `INLINE` (4) of them live inside the `Poly` itself, so the
//! low-degree polynomials every segment carries cost no heap allocation to
//! build, clone or drop; higher degrees spill to a `Vec`.

use std::fmt;

/// Coefficients whose magnitude falls below this are trimmed.
const COEFF_EPS: f64 = 1e-12;

/// Coefficients a polynomial holds without a heap allocation (degree ≤ 3):
/// models are linear, window functions and min/max differences quadratic,
/// and cubics still fit.
const INLINE: usize = 4;

/// True for a trailing coefficient that trimming drops (never NaN).
fn negligible(x: f64) -> bool {
    x.abs() < COEFF_EPS
}

/// Coefficient `i` of `c`, 0 beyond its end.
fn at(c: &[f64], i: usize) -> f64 {
    c.get(i).copied().unwrap_or(0.0)
}

/// A polynomial's ascending coefficients: inline up to [`INLINE`] of them,
/// on the heap above that. New polynomials and clones that fit go inline;
/// a spilled buffer shrunk in place stays spilled, so the in-place and
/// `*_into` methods keep reusing its allocation.
enum Coeffs {
    Inline { len: u8, buf: [f64; INLINE] },
    Spilled(Vec<f64>),
}

impl Coeffs {
    const EMPTY: Coeffs = Coeffs::Inline { len: 0, buf: [0.0; INLINE] };

    /// `n` zeros.
    fn zeros(n: usize) -> Self {
        if n <= INLINE {
            Coeffs::Inline { len: n as u8, buf: [0.0; INLINE] }
        } else {
            Coeffs::Spilled(vec![0.0; n])
        }
    }

    fn from_slice(c: &[f64]) -> Self {
        let mut out = Coeffs::zeros(c.len());
        out.as_mut_slice().copy_from_slice(c);
        out
    }

    fn as_slice(&self) -> &[f64] {
        match self {
            Coeffs::Inline { len, buf } => &buf[..*len as usize],
            Coeffs::Spilled(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [f64] {
        match self {
            Coeffs::Inline { len, buf } => &mut buf[..*len as usize],
            Coeffs::Spilled(v) => v,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn truncate(&mut self, n: usize) {
        match self {
            Coeffs::Inline { len, .. } => {
                if n < *len as usize {
                    *len = n as u8;
                }
            }
            Coeffs::Spilled(v) => v.truncate(n),
        }
    }

    /// Resizes to `n`, filling new slots with zeros.
    fn resize(&mut self, n: usize) {
        match self {
            Coeffs::Inline { len, buf } if n <= INLINE => {
                if n > *len as usize {
                    buf[*len as usize..n].fill(0.0);
                }
                *len = n as u8;
            }
            Coeffs::Inline { len, buf } => {
                let mut v = Vec::with_capacity(n);
                v.extend_from_slice(&buf[..*len as usize]);
                v.resize(n, 0.0);
                *self = Coeffs::Spilled(v);
            }
            Coeffs::Spilled(v) => v.resize(n, 0.0),
        }
    }

    /// Replaces the contents with `c`, keeping a spilled buffer's
    /// allocation.
    fn assign(&mut self, c: &[f64]) {
        match self {
            Coeffs::Spilled(v) => {
                v.clear();
                v.extend_from_slice(c);
            }
            Coeffs::Inline { .. } => *self = Coeffs::from_slice(c),
        }
    }
}

impl Clone for Coeffs {
    fn clone(&self) -> Self {
        match self {
            Coeffs::Inline { len, buf } => Coeffs::Inline { len: *len, buf: *buf },
            Coeffs::Spilled(v) => Coeffs::from_slice(v),
        }
    }
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
#[derive(Clone)]
pub struct Poly {
    c: Coeffs,
}

impl PartialEq for Poly {
    /// Equal coefficients, wherever they are stored.
    fn eq(&self, other: &Poly) -> bool {
        self.coeffs() == other.coeffs()
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Poly").field("c", &self.coeffs()).finish()
    }
}

impl Default for Poly {
    fn default() -> Self {
        Poly::zero()
    }
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { c: Coeffs::EMPTY }
    }

    /// A trimmed polynomial of `n` coefficients that `fill` writes over
    /// zeros, built in place.
    fn build(n: usize, fill: impl FnOnce(&mut [f64])) -> Self {
        let mut c = Coeffs::zeros(n);
        fill(c.as_mut_slice());
        Poly::trimmed(c)
    }

    /// `c` trimmed, and moved inline if it then fits.
    fn trimmed(c: Coeffs) -> Self {
        let mut p = Poly { c };
        p.trim();
        if let Coeffs::Spilled(v) = &p.c {
            if v.len() <= INLINE {
                p.c = Coeffs::from_slice(v);
            }
        }
        p
    }

    /// The constant polynomial `k`.
    pub fn constant(k: f64) -> Self {
        Poly::build(1, |c| c[0] = k)
    }

    /// The identity polynomial `t`.
    pub fn t() -> Self {
        Poly::linear(0.0, 1.0)
    }

    /// A linear polynomial `b + a·t`.
    pub fn linear(b: f64, a: f64) -> Self {
        Poly::build(2, |c| c.copy_from_slice(&[b, a]))
    }

    /// Builds from ascending coefficients, trimming trailing near-zeros.
    pub fn new(coeffs: Vec<f64>) -> Self {
        Poly::trimmed(Coeffs::Spilled(coeffs))
    }

    /// `c`'s length without its trailing near-zeros.
    fn trimmed_len(c: &[f64]) -> usize {
        c.iter().rposition(|&x| !negligible(x)).map_or(0, |i| i + 1)
    }

    fn trim(&mut self) {
        self.c.truncate(Poly::trimmed_len(self.c.as_slice()));
    }

    /// Ascending coefficients (empty for the zero polynomial).
    pub fn coeffs(&self) -> &[f64] {
        self.c.as_slice()
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.c.len().checked_sub(1)
    }

    /// True for the (numerically) zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs().is_empty()
    }

    /// True when the polynomial is a constant (degree 0 or zero).
    pub fn is_constant(&self) -> bool {
        self.c.len() <= 1
    }

    /// Leading coefficient (0 for the zero polynomial).
    pub fn leading(&self) -> f64 {
        self.coeffs().last().copied().unwrap_or(0.0)
    }

    /// Coefficient of `t^i` (0 beyond the stored degree).
    pub fn coeff(&self, i: usize) -> f64 {
        at(self.coeffs(), i)
    }

    /// Evaluates at `t` using Horner's rule.
    pub fn eval(&self, t: f64) -> f64 {
        Poly::eval_coeffs(self.coeffs(), t)
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
        for &c in self.coeffs().iter().rev() {
            for (o, &t) in out.iter_mut().zip(ts) {
                *o = *o * t + c;
            }
        }
    }

    /// Replaces `self` with a copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &Poly) {
        match (&self.c, &other.c) {
            (Coeffs::Inline { .. }, Coeffs::Inline { .. }) => self.c = other.c.clone(),
            _ => self.c.assign(other.coeffs()),
        }
    }

    /// Replaces `self` with the constant polynomial `k`, reusing the
    /// allocation; bit-identical to `Poly::constant(k)`.
    pub fn set_constant(&mut self, k: f64) {
        self.c.assign(&[k]);
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
        let o = other.coeffs();
        self.c.resize(self.c.len().max(o.len()));
        for (i, slot) in self.c.as_mut_slice().iter_mut().enumerate() {
            *slot += at(o, i);
        }
        self.trim();
    }

    /// In-place pointwise difference; bit-identical to `self.sub(other)`.
    pub fn sub_assign_poly(&mut self, other: &Poly) {
        let o = other.coeffs();
        self.c.resize(self.c.len().max(o.len()));
        for (i, slot) in self.c.as_mut_slice().iter_mut().enumerate() {
            *slot -= at(o, i);
        }
        self.trim();
    }

    /// In-place negation; bit-identical to `self.neg()`.
    pub fn neg_assign(&mut self) {
        for c in self.c.as_mut_slice() {
            *c = -*c;
        }
        self.trim();
    }

    /// In-place scalar multiple; bit-identical to `self.scale(k)`.
    pub fn scale_assign(&mut self, k: f64) {
        for c in self.c.as_mut_slice() {
            *c *= k;
        }
        self.trim();
    }

    /// Writes `self · other` into `out`, reusing its allocation; the
    /// accumulation order matches [`Poly::mul`] exactly, so coefficients
    /// are bit-identical.
    pub fn mul_into(&self, other: &Poly, out: &mut Poly) {
        Poly::mul_coeffs_into(self.coeffs(), other.coeffs(), out);
    }

    /// The convolution `x · y` of trimmed coefficient slices, accumulated
    /// into `out`'s zeros.
    fn convolve(x: &[f64], y: &[f64], out: &mut [f64]) {
        for (i, &a) in x.iter().enumerate() {
            for (j, &b) in y.iter().enumerate() {
                out[i + j] += a * b;
            }
        }
    }

    /// [`Self::mul_into`] over bare trimmed coefficient slices.
    fn mul_coeffs_into(x: &[f64], y: &[f64], out: &mut Poly) {
        out.c.truncate(0);
        if x.is_empty() || y.is_empty() {
            return;
        }
        out.c.resize(x.len() + y.len() - 1);
        Poly::convolve(x, y, out.c.as_mut_slice());
        out.trim();
    }

    /// In-place `self + Poly::constant(k)`; bit-identical to `add`, which
    /// also adds `0.0` to every higher coefficient.
    fn add_constant_assign(&mut self, k: f64) {
        let k_len = if negligible(k) { 0 } else { 1 };
        self.c.resize(self.c.len().max(k_len));
        for (i, slot) in self.c.as_mut_slice().iter_mut().enumerate() {
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
        let inner = &inner[..Poly::trimmed_len(&inner)];
        out.c.truncate(0);
        for &c in self.coeffs().iter().rev() {
            Poly::mul_coeffs_into(out.coeffs(), inner, tmp);
            std::mem::swap(out, tmp);
            out.add_constant_assign(c);
        }
    }

    /// Writes the first derivative into `out`, reusing its allocation;
    /// bit-identical to [`Poly::derivative`].
    pub fn derivative_into(&self, out: &mut Poly) {
        let c = self.coeffs();
        out.c.truncate(0);
        out.c.resize(c.len().saturating_sub(1));
        for (d, (i, &x)) in out.c.as_mut_slice().iter_mut().zip(c.iter().enumerate().skip(1)) {
            *d = x * i as f64;
        }
        out.trim();
    }

    /// Pointwise sum.
    pub fn add(&self, other: &Poly) -> Poly {
        let (x, y) = (self.coeffs(), other.coeffs());
        Poly::build(x.len().max(y.len()), |out| {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = at(x, i) + at(y, i);
            }
        })
    }

    /// Pointwise difference `self − other`; this is the paper's "difference
    /// form" `x(t) − y(t)` of a predicate `x R y`.
    pub fn sub(&self, other: &Poly) -> Poly {
        let (x, y) = (self.coeffs(), other.coeffs());
        Poly::build(x.len().max(y.len()), |out| {
            for (i, slot) in out.iter_mut().enumerate() {
                *slot = at(x, i) - at(y, i);
            }
        })
    }

    /// Negation.
    pub fn neg(&self) -> Poly {
        let x = self.coeffs();
        Poly::build(x.len(), |out| out.iter_mut().zip(x).for_each(|(o, c)| *o = -c))
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Poly {
        let x = self.coeffs();
        Poly::build(x.len(), |out| out.iter_mut().zip(x).for_each(|(o, c)| *o = c * k))
    }

    /// Product (convolution of coefficients).
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let (x, y) = (self.coeffs(), other.coeffs());
        Poly::build(x.len() + y.len() - 1, |out| Poly::convolve(x, y, out))
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
        out.extend(self.coeffs().iter().enumerate().skip(1).map(|(i, &c)| c * i as f64));
        out.truncate(start + Poly::trimmed_len(&out[start..]));
        out.len() - start
    }

    /// Antiderivative with zero constant term: `∫ Σ cᵢtⁱ = Σ cᵢ/(i+1) tⁱ⁺¹`
    /// (Eq. 2 of the paper, without the lower limit applied).
    pub fn antiderivative(&self) -> Poly {
        let x = self.coeffs();
        Poly::build(x.len() + 1, |out| {
            for (i, &c) in x.iter().enumerate() {
                out[i + 1] = c / (i + 1) as f64;
            }
        })
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
        for &c in self.coeffs().iter().rev() {
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
        self.coeffs().iter().fold(0.0_f64, |m, c| m.max(c.abs()))
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
        for (i, &c) in self.coeffs().iter().enumerate() {
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

    /// True when `q`'s coefficients sit inline, not on the heap.
    fn inline(q: &Poly) -> bool {
        matches!(q.c, Coeffs::Inline { .. })
    }

    #[test]
    fn poly_fits_in_five_words() {
        assert!(std::mem::size_of::<Poly>() <= 40, "{}", std::mem::size_of::<Poly>());
    }

    #[test]
    fn ops_cross_the_inline_boundary() {
        let a = p(&[1.0, 2.0, 0.5]);
        let b = p(&[-1.0, 0.0, 3.0, 1.0]);
        // Degree 5: spills; the values agree with the factors'.
        let prod = a.mul(&b);
        assert_eq!(prod.degree(), Some(5));
        assert!(!inline(&prod));
        for t in [-1.5, 0.0, 2.0] {
            assert!((prod.eval(t) - a.eval(t) * b.eval(t)).abs() < 1e-9);
        }
        // ∫ of a cubic is a quartic, and d/dt takes it back inline.
        let anti = b.antiderivative();
        assert_eq!(anti.degree(), Some(4));
        assert!(!inline(&anti));
        assert_eq!(anti.derivative(), b);
        assert!(inline(&anti.derivative()));
        // (1 + t)⁵ by repeated squaring, then shifted back to t⁵.
        let five = p(&[1.0, 1.0]).powi(5);
        assert_eq!(five, p(&[1.0, 5.0, 10.0, 10.0, 5.0, 1.0]));
        assert_eq!(five.compose_linear(1.0, -1.0), p(&[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]));
        // Cancelling the high terms trims back to degree 2. A result built
        // fresh goes inline; a spilled buffer shrunk in place keeps its
        // allocation, and a clone of it goes inline.
        let low = p(&[3.0, 2.0, 1.0]);
        let high = prod.add(&low);
        assert_eq!(high.sub(&prod), low);
        assert!(inline(&high.sub(&prod)));
        let mut shrunk = high.clone();
        shrunk.sub_assign_poly(&prod);
        assert_eq!(shrunk, low);
        assert!(!inline(&shrunk));
        assert!(inline(&shrunk.clone()));
        // In place, through the `*_into` staging buffers both ways.
        let (mut out, mut base, mut tmp) = (Poly::zero(), Poly::zero(), Poly::zero());
        p(&[1.0, 1.0]).powi_into(5, &mut out, &mut base, &mut tmp);
        assert_eq!(out, five);
        p(&[2.0, 1.0]).powi_into(2, &mut out, &mut base, &mut tmp);
        assert_eq!(out, p(&[4.0, 4.0, 1.0]));
        five.compose_linear_into(1.0, -1.0, &mut out, &mut tmp);
        assert_eq!(out, five.compose_linear(1.0, -1.0));
        // A constant from a spilled buffer.
        let mut k = prod.clone();
        k.set_constant(2.5);
        assert_eq!(k, Poly::constant(2.5));
    }

    #[test]
    fn eq_and_debug_ignore_the_storage() {
        let spilled = p(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut shrunk = spilled.clone();
        shrunk.sub_assign_poly(&p(&[0.0, 0.0, 0.0, 4.0, 5.0]));
        let fresh = p(&[1.0, 2.0, 3.0]);
        assert!(!inline(&shrunk) && inline(&fresh));
        assert_eq!(shrunk, fresh);
        assert_ne!(shrunk, spilled);
        assert_eq!(format!("{shrunk:?}"), format!("{fresh:?}"));
        assert_eq!(format!("{fresh:?}"), "Poly { c: [1.0, 2.0, 3.0] }");
        assert_eq!(format!("{spilled:?}"), "Poly { c: [1.0, 2.0, 3.0, 4.0, 5.0] }");
        assert_eq!(format!("{:?}", Poly::zero()), "Poly { c: [] }");
        assert_eq!(Poly::default(), Poly::new(Vec::new()));
    }

    /// The `Vec<f64>` arithmetic every `Poly` op must match bit for bit:
    /// each step in the same order, trimmed the same way.
    mod reference {
        use super::super::COEFF_EPS;

        pub fn trim(mut v: Vec<f64>) -> Vec<f64> {
            while matches!(v.last(), Some(&x) if x.abs() < COEFF_EPS) {
                v.pop();
            }
            v
        }

        fn at(v: &[f64], i: usize) -> f64 {
            v.get(i).copied().unwrap_or(0.0)
        }

        pub fn add(x: &[f64], y: &[f64]) -> Vec<f64> {
            trim((0..x.len().max(y.len())).map(|i| at(x, i) + at(y, i)).collect())
        }

        pub fn sub(x: &[f64], y: &[f64]) -> Vec<f64> {
            trim((0..x.len().max(y.len())).map(|i| at(x, i) - at(y, i)).collect())
        }

        pub fn neg(x: &[f64]) -> Vec<f64> {
            trim(x.iter().map(|c| -c).collect())
        }

        pub fn scale(x: &[f64], k: f64) -> Vec<f64> {
            trim(x.iter().map(|c| c * k).collect())
        }

        pub fn mul(x: &[f64], y: &[f64]) -> Vec<f64> {
            if x.is_empty() || y.is_empty() {
                return Vec::new();
            }
            let mut out = vec![0.0; x.len() + y.len() - 1];
            for (i, &a) in x.iter().enumerate() {
                for (j, &b) in y.iter().enumerate() {
                    out[i + j] += a * b;
                }
            }
            trim(out)
        }

        pub fn powi(x: &[f64], mut n: u32) -> Vec<f64> {
            let (mut base, mut acc) = (x.to_vec(), vec![1.0]);
            while n > 0 {
                if n & 1 == 1 {
                    acc = mul(&acc, &base);
                }
                base = mul(&base, &base);
                n >>= 1;
            }
            acc
        }

        pub fn derivative(x: &[f64]) -> Vec<f64> {
            trim(x.iter().enumerate().skip(1).map(|(i, &c)| c * i as f64).collect())
        }

        pub fn antiderivative(x: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; x.len() + 1];
            for (i, &c) in x.iter().enumerate() {
                out[i + 1] = c / (i + 1) as f64;
            }
            trim(out)
        }

        pub fn compose_linear(x: &[f64], a: f64, b: f64) -> Vec<f64> {
            let inner = trim(vec![b, a]);
            let mut acc = Vec::new();
            for &c in x.iter().rev() {
                acc = add(&mul(&acc, &inner), &trim(vec![c]));
            }
            acc
        }
    }

    fn vbits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|c| c.to_bits()).collect()
    }

    /// Staging buffers of both storages: inline, and spilled past
    /// [`INLINE`] before being cleared.
    fn buffers() -> [Poly; 2] {
        let mut spilled = p(&[9.0; INLINE + 3]);
        spilled.set_constant(9.0);
        [p(&[9.0]), spilled]
    }

    proptest::proptest! {
        /// Degrees 0–8 on both sides of the inline limit: every op, and
        /// every in-place twin into buffers of either storage, matches the
        /// `Vec` reference's coefficient bits.
        #[test]
        fn ops_match_the_vec_reference_bit_for_bit(
            x in proptest::prelude::prop::collection::vec(coeff(), 0..=9),
            y in proptest::prelude::prop::collection::vec(coeff(), 0..=9),
            k in coeff(),
            a in coeff(),
            n in 0u32..4,
        ) {
            use proptest::prop_assert_eq;
            let (xp, yp) = (Poly::new(x.clone()), Poly::new(y.clone()));
            let (x, y) = (reference::trim(x), reference::trim(y));
            prop_assert_eq!(bits(&xp), vbits(&x));
            let want = [
                (xp.add(&yp), reference::add(&x, &y)),
                (xp.sub(&yp), reference::sub(&x, &y)),
                (xp.neg(), reference::neg(&x)),
                (xp.scale(k), reference::scale(&x, k)),
                (xp.mul(&yp), reference::mul(&x, &y)),
                (xp.powi(n), reference::powi(&x, n)),
                (xp.derivative(), reference::derivative(&x)),
                (xp.antiderivative(), reference::antiderivative(&x)),
                (xp.compose_linear(a, k), reference::compose_linear(&x, a, k)),
                (Poly::constant(k), reference::trim(vec![k])),
                (Poly::linear(k, a), reference::trim(vec![k, a])),
            ];
            for (got, want) in &want {
                prop_assert_eq!(bits(got), vbits(want));
            }
            for [mut out, mut tmp] in [buffers(), { let [i, s] = buffers(); [s, i] }] {
                let mut base = out.clone();
                out.copy_from(&xp);
                out.add_assign_poly(&yp);
                prop_assert_eq!(bits(&out), vbits(&reference::add(&x, &y)));
                out.copy_from(&xp);
                out.sub_assign_poly(&yp);
                prop_assert_eq!(bits(&out), vbits(&reference::sub(&x, &y)));
                out.copy_from(&xp);
                out.neg_assign();
                prop_assert_eq!(bits(&out), vbits(&reference::neg(&x)));
                out.copy_from(&xp);
                out.scale_assign(k);
                prop_assert_eq!(bits(&out), vbits(&reference::scale(&x, k)));
                xp.mul_into(&yp, &mut out);
                prop_assert_eq!(bits(&out), vbits(&reference::mul(&x, &y)));
                xp.derivative_into(&mut out);
                prop_assert_eq!(bits(&out), vbits(&reference::derivative(&x)));
                xp.powi_into(n, &mut out, &mut base, &mut tmp);
                prop_assert_eq!(bits(&out), vbits(&reference::powi(&x, n)));
                xp.compose_linear_into(a, k, &mut out, &mut tmp);
                prop_assert_eq!(bits(&out), vbits(&reference::compose_linear(&x, a, k)));
                out.set_constant(k);
                prop_assert_eq!(bits(&out), vbits(&reference::trim(vec![k])));
            }
            let mut flat = vec![1.0];
            xp.derivative_append(&mut flat);
            prop_assert_eq!(vbits(&flat[1..]), vbits(&reference::derivative(&x)));
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
