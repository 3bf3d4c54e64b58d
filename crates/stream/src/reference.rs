//! Shared truth-comparison core: the margin-gated tolerances that decide
//! when a continuous answer and a discrete reference may legitimately
//! disagree, and when a disagreement is a guarantee breach.
//!
//! The paper's contract is that model-based answers deviate from the true
//! discrete answers by at most the user's error bound ε. Checking that
//! contract — offline in the qa oracle, or live in the runtime's shadow
//! auditor — needs one shared budget model: ε itself, the observation
//! noise, the sampling interval (Riemann slope error), and the worst
//! signal magnitude (window-edge misalignment). Both consumers import
//! this module so the offline and in-production comparators cannot
//! drift apart.
//!
//! The formulas here are deliberately *sufficient* bands, not tight
//! bounds: anything outside them is a real bug, anything inside is
//! within what the validator's ε plus measurement effects permit.

use pulse_model::Segment;

use crate::logical::AggFunc;

/// Stream calibration constants the tolerance model scales with. These
/// describe the *input signal*, not the query: observation noise
/// amplitude, worst slope, sampling interval, and worst absolute value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Calibration {
    /// Observation noise amplitude added on top of the true signal.
    pub noise: f64,
    /// Worst absolute slope of any track (units per second).
    pub max_slope: f64,
    /// Sampling interval between successive tuples of one key (seconds).
    pub sample_dt: f64,
    /// Worst absolute signal value (for window-edge misalignment terms).
    pub max_abs: f64,
}

/// The tolerance budget: the promised bound ε, the prediction horizon,
/// and the stream calibration. Every comparator tolerance derives from
/// these five numbers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ToleranceModel {
    /// The user's error bound ε — the paper's headline guarantee.
    pub bound: f64,
    /// Prediction horizon: how far past its solve a model is trusted.
    pub horizon: f64,
    /// Input-signal calibration.
    pub cal: Calibration,
}

impl ToleranceModel {
    /// Tolerance unit: how far a fresh, validated model may sit from
    /// truth (ε plus one noise amplitude).
    pub fn unit(&self) -> f64 {
        self.bound + self.cal.noise
    }

    /// Margin gate (input units): boundary band inside which engines may
    /// legitimately disagree about a predicate.
    pub fn margin_gate(&self) -> f64 {
        3.0 * self.unit() + self.cal.max_slope * self.cal.sample_dt + 1e-6
    }

    /// Tolerance for a continuous model value against exact truth,
    /// scaled by the chain sensitivity (L1 coefficient mass).
    pub fn model_value_tol(&self, sens: f64) -> f64 {
        sens.max(1.0) * 1.5 * (self.bound + 3.0 * self.cal.noise) + 1e-6
    }

    /// Tolerance for a discrete sample against exact truth (noise only —
    /// the discrete engine passes observations through unchanged).
    pub fn discrete_value_tol(&self, sens: f64) -> f64 {
        sens.max(1.0) * 1.5 * self.cal.noise + 1e-6
    }

    /// Tolerance for a min/max window close: one sample of slope drift
    /// plus two tolerance units (envelope endpoints).
    pub fn minmax_tol(&self) -> f64 {
        self.cal.max_slope * self.cal.sample_dt + 2.0 * self.unit() + 1e-3
    }

    /// Tolerance for a sum window close, comparing Σ samples · dt against
    /// ∫ f dt: model error over the window, Riemann slope error, and one
    /// sample of edge misalignment on each side.
    pub fn sum_tol(&self, width: f64) -> f64 {
        (self.unit() + self.cal.max_slope * self.cal.sample_dt) * width
            + 2.0 * self.cal.max_abs * self.cal.sample_dt
            + 1e-3
    }

    /// Tolerance for an avg window close: the sum budget divided through
    /// by the window width.
    pub fn avg_tol(&self, width: f64) -> f64 {
        self.unit()
            + self.cal.max_slope * self.cal.sample_dt
            + 2.0 * self.cal.max_abs * self.cal.sample_dt / width
            + 1e-3
    }

    /// True when `t` lies beyond the trusted horizon of a model solved at
    /// `solve_ts` (with one sample of grid slack).
    pub fn beyond_horizon(&self, t: f64, solve_ts: f64) -> bool {
        t > solve_ts + self.horizon - 2.0 * self.cal.sample_dt
    }

    /// True when `t` sits within the boundary band of any slope break —
    /// instants where the model and the signal legitimately diverge.
    pub fn near_breakpoint(&self, t: f64, breaks: &[f64]) -> bool {
        let dt = self.cal.sample_dt;
        breaks.iter().any(|b| (t - b).abs() <= 2.0 * dt)
    }

    /// True when a min/max window closing at `close` saw a disturbance
    /// (slope break or re-model) it cannot forget: the envelope keeps no
    /// retractions, so predictions made just before the event stay in it
    /// until their horizon runs out.
    pub fn window_disturbed(&self, close: f64, width: f64, events: &[f64]) -> bool {
        let dt = self.cal.sample_dt;
        events.iter().any(|b| *b > close - width - self.horizon - dt && *b <= close + dt)
    }

    /// Compares one aggregate window close: `dv` is the discrete
    /// reference value, `qv` the continuous engine's window value.
    /// Returns `None` when the pair is not comparable (COUNT is not a
    /// continuous-time quantity; SUM needs a known sampling interval to
    /// map Σ samples onto ∫ f dt).
    pub fn compare_agg(&self, func: AggFunc, width: f64, dv: f64, qv: f64) -> Option<Comparison> {
        let (deviation, allowance) = match func {
            AggFunc::Min | AggFunc::Max => ((dv - qv).abs(), self.minmax_tol()),
            AggFunc::Sum => {
                if self.cal.sample_dt <= 0.0 {
                    return None;
                }
                ((dv * self.cal.sample_dt - qv).abs(), self.sum_tol(width))
            }
            AggFunc::Avg => ((dv - qv).abs(), self.avg_tol(width)),
            AggFunc::Count => return None,
        };
        Some(Comparison { deviation, allowance })
    }
}

/// One comparator verdict: observed deviation against the allowance the
/// tolerance model grants at that point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Absolute observed deviation.
    pub deviation: f64,
    /// Allowance (the promised ε after direction/derived-budget scaling).
    pub allowance: f64,
}

impl Comparison {
    /// Strict violation: the deviation exceeds what was promised.
    pub fn is_breach(&self) -> bool {
        self.deviation > self.allowance
    }

    /// Headroom in basis points: 10000 means the answer is exact, 0 means
    /// the allowance is fully consumed (or breached). A non-positive
    /// allowance has no headroom to report.
    pub fn headroom_bp(&self) -> u64 {
        if self.allowance <= 0.0 {
            return 0;
        }
        (((1.0 - self.deviation / self.allowance).max(0.0)) * 10000.0).min(10000.0) as u64
    }
}

/// One id-blind segment identity: key, span bits, model coefficient bits,
/// unmodeled value bits.
pub type SegPrint = (u64, u64, u64, Vec<u64>, Vec<u64>);

/// Id-blind bit-exact fingerprint of an output multiset. Segment ids are
/// process-global (fresh per runtime), so equality must ignore them; spans,
/// model coefficients, and unmodeled values must match to the bit.
pub fn fingerprint(segs: &[Segment]) -> Vec<SegPrint> {
    let mut v: Vec<_> = segs
        .iter()
        .map(|s| {
            (
                s.key,
                s.span.lo.to_bits(),
                s.span.hi.to_bits(),
                s.models.iter().flat_map(|p| p.coeffs().iter().map(|c| c.to_bits())).collect(),
                s.unmodeled.iter().map(|u| u.to_bits()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol() -> ToleranceModel {
        ToleranceModel {
            bound: 0.1,
            horizon: 1.5,
            cal: Calibration { noise: 0.05, max_slope: 2.0, sample_dt: 0.1, max_abs: 10.0 },
        }
    }

    #[test]
    fn budget_terms_compose() {
        let t = tol();
        assert!((t.unit() - 0.15).abs() < 1e-12);
        assert!((t.margin_gate() - (3.0 * 0.15 + 0.2 + 1e-6)).abs() < 1e-12);
        // Sensitivity floor: a chain cannot shrink the budget below 1×.
        assert!(t.model_value_tol(0.5) < t.model_value_tol(2.0));
        assert_eq!(t.model_value_tol(0.2), t.model_value_tol(1.0));
        assert!(t.sum_tol(2.0) > t.avg_tol(2.0));
    }

    #[test]
    fn horizon_and_breakpoint_gates() {
        let t = tol();
        assert!(!t.beyond_horizon(1.0, 0.0));
        assert!(t.beyond_horizon(1.31, 0.0));
        assert!(t.near_breakpoint(1.05, &[1.2]));
        assert!(!t.near_breakpoint(0.9, &[1.2]));
        // Disturbance window reaches back width + horizon + dt.
        assert!(t.window_disturbed(5.0, 1.0, &[2.5]));
        assert!(!t.window_disturbed(5.0, 1.0, &[2.3]));
        assert!(!t.window_disturbed(5.0, 1.0, &[5.2]));
    }

    #[test]
    fn compare_agg_per_function() {
        let t = tol();
        let c = t.compare_agg(AggFunc::Max, 1.0, 3.0, 3.1).unwrap();
        assert!(!c.is_breach());
        assert!(t.compare_agg(AggFunc::Max, 1.0, 3.0, 13.0).unwrap().is_breach());
        // Sum compares Σ·dt against the integral.
        let c = t.compare_agg(AggFunc::Sum, 1.0, 30.0, 3.0).unwrap();
        assert!((c.deviation - 0.0).abs() < 1e-12);
        assert!(t.compare_agg(AggFunc::Count, 1.0, 3.0, 3.0).is_none());
        let mut z = t;
        z.cal.sample_dt = 0.0;
        assert!(z.compare_agg(AggFunc::Sum, 1.0, 3.0, 3.0).is_none());
    }

    #[test]
    fn headroom_basis_points() {
        assert_eq!(Comparison { deviation: 0.0, allowance: 1.0 }.headroom_bp(), 10000);
        assert_eq!(Comparison { deviation: 0.5, allowance: 1.0 }.headroom_bp(), 5000);
        assert_eq!(Comparison { deviation: 2.0, allowance: 1.0 }.headroom_bp(), 0);
        assert_eq!(Comparison { deviation: 0.0, allowance: 0.0 }.headroom_bp(), 0);
        assert!(Comparison { deviation: 1.0 + 1e-9, allowance: 1.0 }.is_breach());
        assert!(!Comparison { deviation: 1.0, allowance: 1.0 }.is_breach());
    }

    #[test]
    fn fingerprint_is_id_blind_and_sorted() {
        use pulse_math::Span;
        use pulse_model::SegmentId;
        let seg = |id: u64, key: u64| Segment {
            id: SegmentId(id),
            key,
            span: Span { lo: 0.0, hi: 1.0 },
            models: Default::default(),
            unmodeled: vec![1.5],
        };
        let a = vec![seg(1, 7), seg(2, 3)];
        let b = vec![seg(9, 3), seg(8, 7)];
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
