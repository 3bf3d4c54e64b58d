//! Piecewise-linear track workload for the differential-testing harness.
//!
//! Unlike [`crate::moving`], which reconstructs ground truth from its own
//! (possibly noisy) tuple stream, this generator builds the *exact*
//! underlying piecewise-polynomial signal first and derives everything else
//! from it: noiseless truth values and slopes at any instant, the sampled
//! tuple stream (with controllable observation noise), the leg breakpoints
//! (the instants where model predictions go stale), and the scale bounds a
//! comparison oracle needs to budget its tolerances. That separation is
//! what lets `pulse-qa` gate its discrete-vs-continuous comparisons on
//! truth margins instead of on the engines under test.
//!
//! Schema and MODEL clause are shared with the moving-object workload:
//! `x (modeled), vx (coefficient), y (modeled), vy (coefficient)`.

use pulse_math::{Poly, Span};
use pulse_model::{Models, Schema, Segment, StreamModel, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Axes carried by each track (x and y).
pub const AXES: usize = 2;

/// Generator configuration. All randomness is derived from `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackConfig {
    /// Number of tracks (keys `0..keys`).
    pub keys: u64,
    /// Seconds between samples of each track (all keys share the grid).
    pub sample_dt: f64,
    /// Seconds between slope changes; breaks fall on `k · leg_duration`.
    pub leg_duration: f64,
    /// Maximum |slope| per axis.
    pub max_slope: f64,
    /// Uniform observation noise amplitude added to sampled positions
    /// (never to the velocity coefficients, mirroring GPS-style feeds).
    pub noise: f64,
    /// Initial values drawn uniformly from `[-base_range, base_range]`.
    pub base_range: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrackConfig {
    fn default() -> Self {
        TrackConfig {
            keys: 4,
            sample_dt: 0.05,
            leg_duration: 4.0,
            max_slope: 4.0,
            noise: 0.0,
            base_range: 50.0,
            seed: 7,
        }
    }
}

/// The track stream schema (same as [`crate::moving::schema`]).
pub fn schema() -> Schema {
    crate::moving::schema()
}

/// The MODEL clause (same as [`crate::moving::stream_model`]).
pub fn stream_model() -> StreamModel {
    crate::moving::stream_model()
}

#[derive(Debug, Clone, Copy)]
struct Leg {
    t0: f64,
    v0: f64,
    slope: f64,
}

/// Exact piecewise-linear signals for every key, fixed at construction.
#[derive(Debug, Clone)]
pub struct TrackSet {
    cfg: TrackConfig,
    duration: f64,
    /// `legs[key][axis]` — time-ordered legs covering `[0, duration)`.
    legs: Vec<[Vec<Leg>; AXES]>,
}

impl TrackSet {
    /// Builds the exact signals over `[0, duration)`.
    pub fn generate(cfg: TrackConfig, duration: f64) -> Self {
        assert!(cfg.keys > 0 && cfg.sample_dt > 0.0 && cfg.leg_duration > 0.0);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n_legs = (duration / cfg.leg_duration).ceil().max(1.0) as usize;
        let legs = (0..cfg.keys)
            .map(|_| {
                std::array::from_fn(|_| {
                    let mut v = rng.gen_range(-cfg.base_range..cfg.base_range);
                    let mut out = Vec::with_capacity(n_legs);
                    for leg in 0..n_legs {
                        let slope = rng.gen_range(-cfg.max_slope..cfg.max_slope);
                        let t0 = leg as f64 * cfg.leg_duration;
                        out.push(Leg { t0, v0: v, slope });
                        v += slope * cfg.leg_duration;
                    }
                    out
                })
            })
            .collect();
        TrackSet { cfg, duration, legs }
    }

    /// The configuration this set was generated from.
    pub fn config(&self) -> &TrackConfig {
        &self.cfg
    }

    /// End of the generated time range.
    pub fn duration(&self) -> f64 {
        self.duration
    }

    fn leg(&self, key: u64, axis: usize, t: f64) -> &Leg {
        let legs = &self.legs[key as usize][axis];
        let i = ((t / self.cfg.leg_duration) as usize).min(legs.len() - 1);
        &legs[i]
    }

    /// Exact (noiseless) value of `key`'s `axis` at time `t`.
    pub fn truth(&self, key: u64, axis: usize, t: f64) -> f64 {
        let l = self.leg(key, axis, t);
        l.v0 + l.slope * (t - l.t0)
    }

    /// Exact slope of `key`'s `axis` at time `t`.
    pub fn slope(&self, key: u64, axis: usize, t: f64) -> f64 {
        self.leg(key, axis, t).slope
    }

    /// Instants in `(0, duration)` where any slope changes — around these
    /// the engines' predictions are legitimately stale for up to one
    /// sample interval, so comparisons should skip a guard band.
    pub fn breakpoints(&self) -> Vec<f64> {
        let mut t = self.cfg.leg_duration;
        let mut out = Vec::new();
        while t < self.duration {
            out.push(t);
            t += self.cfg.leg_duration;
        }
        out
    }

    /// Largest |truth value| attained anywhere (tolerance scaling).
    pub fn max_abs(&self) -> f64 {
        let mut m: f64 = 0.0;
        for key in &self.legs {
            for axis in key {
                for l in axis {
                    let end = l.v0 + l.slope * self.cfg.leg_duration;
                    m = m.max(l.v0.abs()).max(end.abs());
                }
            }
        }
        m
    }

    /// The sampled tuple stream: every key on the shared grid
    /// `0, dt, 2·dt, …`, time-ordered, with uniform position noise.
    /// Velocity coefficients are exact, so a MODEL clause instantiated
    /// from any tuple reproduces the current leg exactly (modulo noise).
    pub fn tuples(&self) -> Vec<Tuple> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let steps = (self.duration / self.cfg.sample_dt).round() as usize;
        let mut out = Vec::with_capacity(steps * self.cfg.keys as usize);
        for step in 0..steps {
            let ts = step as f64 * self.cfg.sample_dt;
            for key in 0..self.cfg.keys {
                let mut noise = || {
                    if self.cfg.noise > 0.0 {
                        rng.gen_range(-self.cfg.noise..self.cfg.noise)
                    } else {
                        0.0
                    }
                };
                let (nx, ny) = (noise(), noise());
                out.push(Tuple::new(
                    key,
                    ts,
                    vec![
                        self.truth(key, 0, ts) + nx,
                        self.slope(key, 0, ts),
                        self.truth(key, 1, ts) + ny,
                        self.slope(key, 1, ts),
                    ],
                ));
            }
        }
        out
    }

    /// Ground-truth segments: one per key per leg, models `[x(t), y(t)]`.
    pub fn ground_truth(&self) -> Vec<Segment> {
        let mut out = Vec::new();
        for key in 0..self.cfg.keys {
            let n = self.legs[key as usize][0].len();
            for i in 0..n {
                let lo = i as f64 * self.cfg.leg_duration;
                let hi = ((i + 1) as f64 * self.cfg.leg_duration).min(self.duration);
                if hi <= lo {
                    continue;
                }
                let models: Models = (0..AXES)
                    .map(|axis| {
                        let l = &self.legs[key as usize][axis][i];
                        // v0 + slope·(t − t0) as a polynomial in absolute t.
                        Poly::linear(l.v0 - l.slope * l.t0, l.slope)
                    })
                    .collect();
                out.push(Segment::new(key, Span::new(lo, hi), models, Vec::new()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TrackConfig {
        TrackConfig {
            keys: 3,
            sample_dt: 0.25,
            leg_duration: 2.0,
            noise: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn deterministic_and_grid_shaped() {
        let a = TrackSet::generate(cfg(), 6.0);
        let b = TrackSet::generate(cfg(), 6.0);
        assert_eq!(a.tuples(), b.tuples());
        let tuples = a.tuples();
        assert_eq!(tuples.len(), 3 * 24);
        assert!(tuples.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn noiseless_tuples_match_truth_and_slopes() {
        let set = TrackSet::generate(cfg(), 6.0);
        for t in set.tuples() {
            assert_eq!(t.values[0], set.truth(t.key, 0, t.ts));
            assert_eq!(t.values[1], set.slope(t.key, 0, t.ts));
            assert_eq!(t.values[2], set.truth(t.key, 1, t.ts));
            assert_eq!(t.values[3], set.slope(t.key, 1, t.ts));
        }
    }

    #[test]
    fn truth_is_continuous_across_breaks() {
        let set = TrackSet::generate(cfg(), 8.0);
        for bp in set.breakpoints() {
            for key in 0..3 {
                for axis in 0..AXES {
                    let before = set.truth(key, axis, bp - 1e-9);
                    let after = set.truth(key, axis, bp + 1e-9);
                    assert!((before - after).abs() < 1e-6, "jump at {bp}");
                }
            }
        }
        assert_eq!(set.breakpoints(), vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn ground_truth_segments_evaluate_to_truth() {
        let set = TrackSet::generate(cfg(), 6.0);
        let segs = set.ground_truth();
        for t in set.tuples() {
            let seg = segs
                .iter()
                .find(|s| s.key == t.key && s.span.contains(t.ts))
                .expect("full coverage");
            assert!((seg.eval(0, t.ts) - t.values[0]).abs() < 1e-9);
            assert!((seg.eval(1, t.ts) - t.values[2]).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_is_bounded_and_leaves_coefficients_exact() {
        let set = TrackSet::generate(TrackConfig { noise: 0.5, ..cfg() }, 4.0);
        for t in set.tuples() {
            assert!((t.values[0] - set.truth(t.key, 0, t.ts)).abs() <= 0.5);
            assert_eq!(t.values[1], set.slope(t.key, 0, t.ts), "vx stays exact");
        }
    }

    #[test]
    fn max_abs_bounds_every_truth_value() {
        let set = TrackSet::generate(cfg(), 8.0);
        let bound = set.max_abs();
        for t in set.tuples() {
            assert!(t.values[0].abs() <= bound + 1e-9);
            assert!(t.values[2].abs() <= bound + 1e-9);
        }
    }
}
