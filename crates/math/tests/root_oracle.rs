//! Property tests cross-checking the fast root isolator (derivative
//! recursion + Brent) against the Sturm-certified oracle, and validating
//! the algebraic identities the equation systems rely on.

use proptest::prelude::*;
use pulse_math::{certified_roots, count_roots, poly_roots_in, sturm::div_rem, Poly};

fn arb_poly(max_deg: usize) -> impl Strategy<Value = Poly> {
    prop::collection::vec(-8.0..8.0_f64, 1..=max_deg + 1).prop_map(Poly::new)
}

/// Roots built from chosen locations, so clustering is controlled.
fn poly_from_roots(roots: &[f64]) -> Poly {
    roots.iter().fold(Poly::constant(1.0), |acc, &r| acc.mul(&Poly::linear(-r, 1.0)))
}

proptest! {
    /// The fast path finds exactly the certified number of distinct roots,
    /// at the certified locations, for well-separated root sets.
    #[test]
    fn fast_path_agrees_with_sturm_oracle(
        mut roots in prop::collection::vec(-9.0..9.0_f64, 1..5)
    ) {
        // Separate the roots: below ~1e-3 both finders merge them.
        roots.sort_by(f64::total_cmp);
        roots.dedup_by(|a, b| (*a - *b).abs() < 0.05);
        let p = poly_from_roots(&roots);
        let fast = poly_roots_in(&p, -10.0, 10.0, 1e-12);
        let cert = certified_roots(&p, -10.0, 10.0);
        prop_assert_eq!(fast.len(), roots.len(), "fast count for {}", p);
        prop_assert_eq!(cert.len(), roots.len(), "certified count for {}", p);
        prop_assert_eq!(count_roots(&p, -10.0, 10.0), roots.len());
        for ((f, c), want) in fast.iter().zip(&cert).zip(&roots) {
            prop_assert!((f - want).abs() < 1e-6, "fast {} vs {}", f, want);
            prop_assert!((c - want).abs() < 1e-6, "cert {} vs {}", c, want);
        }
    }

    /// Division identity: dividend = divisor · quotient + remainder, with
    /// deg(remainder) < deg(divisor).
    #[test]
    fn division_identity_random(a in arb_poly(6), b in arb_poly(3)) {
        prop_assume!(!b.is_zero());
        prop_assume!(b.leading().abs() > 0.1); // avoid ill-conditioned divisors
        let (q, r) = div_rem(&a, &b);
        let recon = b.mul(&q).add(&r);
        let scale = 1.0 + a.max_coeff().max(q.max_coeff() * b.max_coeff());
        for (i, want) in a.coeffs().iter().enumerate() {
            prop_assert!(
                (recon.coeff(i) - want).abs() < 1e-6 * scale,
                "coeff {} of {} vs {}",
                i, recon, a
            );
        }
        if let (Some(rd), Some(bd)) = (r.degree(), b.degree()) {
            prop_assert!(rd < bd);
        }
    }

    /// Every root either finder reports really is a root.
    #[test]
    fn reported_roots_are_roots(p in arb_poly(5)) {
        let scale = 1.0 + p.max_coeff();
        for r in poly_roots_in(&p, -10.0, 10.0, 1e-12) {
            prop_assert!(p.eval(r).abs() < 1e-4 * scale, "fast root {} of {}", r, p);
        }
        for r in certified_roots(&p, -10.0, 10.0) {
            prop_assert!(p.eval(r).abs() < 1e-4 * scale, "cert root {} of {}", r, p);
        }
    }

    /// Sign changes only happen at reported roots: between consecutive
    /// roots (and interval edges) the polynomial keeps one sign.
    #[test]
    fn sign_constant_between_roots(p in arb_poly(4)) {
        prop_assume!(!p.is_zero());
        let mut cuts = vec![-10.0];
        cuts.extend(poly_roots_in(&p, -10.0, 10.0, 1e-12));
        cuts.push(10.0);
        let scale = 1.0 + p.max_coeff();
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if b - a < 1e-6 {
                continue;
            }
            // Sample strictly inside and compare signs, skipping samples
            // numerically near zero (tangency).
            let samples: Vec<f64> = (1..8)
                .map(|i| a + (b - a) * i as f64 / 8.0)
                .map(|t| p.eval(t))
                .filter(|v| v.abs() > 1e-5 * scale)
                .collect();
            if samples.len() >= 2 {
                let first_positive = samples[0] > 0.0;
                for v in &samples[1..] {
                    prop_assert_eq!(
                        *v > 0.0,
                        first_positive,
                        "sign flip without a root in ({}, {}) for {}",
                        a, b, p
                    );
                }
            }
        }
    }
}
