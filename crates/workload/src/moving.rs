//! Synthetic moving-object workload (§V-A).
//!
//! "The synthetic workload generator simulates a moving object, exposing
//! controls to vary stream rates, attribute values' rates of change, and
//! parameters relating to model fitting." Objects move with
//! piecewise-constant velocity; the leg duration divided by the sample
//! interval is exactly the paper's *tuples per segment* model-fit knob
//! (x-axis of Fig. 5).
//!
//! Schema: `x (modeled), vx (coefficient), y (modeled), vy (coefficient)`.

use pulse_math::{Poly, Span};
use pulse_model::{AttrKind, Expr, ModelSpec, Schema, Segment, StreamModel, Tuple};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct MovingConfig {
    /// Number of objects (keys).
    pub objects: usize,
    /// Seconds between samples of each object (stream rate =
    /// `objects / sample_dt`).
    pub sample_dt: f64,
    /// Seconds between velocity changes; `leg_duration / sample_dt` is the
    /// tuples-per-segment model fit.
    pub leg_duration: f64,
    /// Maximum speed per axis.
    pub max_speed: f64,
    /// Uniform observation noise amplitude added to positions.
    pub noise: f64,
    /// RNG seed (generators are deterministic).
    pub seed: u64,
}

impl Default for MovingConfig {
    fn default() -> Self {
        MovingConfig {
            objects: 10,
            sample_dt: 0.1,
            leg_duration: 10.0,
            max_speed: 5.0,
            noise: 0.0,
            seed: 42,
        }
    }
}

/// The moving-object stream schema.
pub fn schema() -> Schema {
    Schema::of(&[
        ("x", AttrKind::Modeled),
        ("vx", AttrKind::Coefficient),
        ("y", AttrKind::Modeled),
        ("vy", AttrKind::Coefficient),
    ])
}

/// The MODEL clause of Figure 1: `x(t) = x + vx·t`, `y(t) = y + vy·t`.
pub fn stream_model() -> StreamModel {
    StreamModel::new(
        schema(),
        vec![
            ModelSpec::new(0, Expr::attr(0) + Expr::attr(1) * Expr::Time),
            ModelSpec::new(2, Expr::attr(2) + Expr::attr(3) * Expr::Time),
        ],
    )
    .expect("static model spec")
}

struct ObjectState {
    x: f64,
    y: f64,
    vx: f64,
    vy: f64,
    next_turn: f64,
}

/// Deterministic moving-object generator.
pub struct MovingObjectGen {
    cfg: MovingConfig,
    rng: StdRng,
    objects: Vec<ObjectState>,
}

impl MovingObjectGen {
    pub fn new(cfg: MovingConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let objects = (0..cfg.objects)
            .map(|_| ObjectState {
                x: rng.gen_range(-100.0..100.0),
                y: rng.gen_range(-100.0..100.0),
                vx: rng.gen_range(-cfg.max_speed..cfg.max_speed),
                vy: rng.gen_range(-cfg.max_speed..cfg.max_speed),
                next_turn: cfg.leg_duration,
            })
            .collect();
        MovingObjectGen { cfg, rng, objects }
    }

    /// Generates all samples over `[0, duration)`, time-ordered.
    ///
    /// Tuples carry the *current* position and velocity, so a MODEL clause
    /// instantiated from any tuple reproduces the trajectory exactly
    /// (modulo noise) until the next velocity change.
    pub fn generate(&mut self, duration: f64) -> Vec<Tuple> {
        let steps = (duration / self.cfg.sample_dt).round() as usize;
        let mut out = Vec::with_capacity(steps * self.objects.len());
        for step in 0..steps {
            let ts = step as f64 * self.cfg.sample_dt;
            for key in 0..self.objects.len() {
                // Velocity changes happen on leg boundaries.
                if ts >= self.objects[key].next_turn {
                    let (vx, vy) = (
                        self.rng.gen_range(-self.cfg.max_speed..self.cfg.max_speed),
                        self.rng.gen_range(-self.cfg.max_speed..self.cfg.max_speed),
                    );
                    let o = &mut self.objects[key];
                    o.vx = vx;
                    o.vy = vy;
                    o.next_turn += self.cfg.leg_duration;
                }
                let (nx, ny) = if self.cfg.noise > 0.0 {
                    (
                        self.rng.gen_range(-self.cfg.noise..self.cfg.noise),
                        self.rng.gen_range(-self.cfg.noise..self.cfg.noise),
                    )
                } else {
                    (0.0, 0.0)
                };
                let o = &self.objects[key];
                out.push(Tuple::new(key as u64, ts, vec![o.x + nx, o.vx, o.y + ny, o.vy]));
                let o = &mut self.objects[key];
                o.x += o.vx * self.cfg.sample_dt;
                o.y += o.vy * self.cfg.sample_dt;
            }
        }
        out
    }

    /// Ground-truth segments for the same run: one per object per leg,
    /// exactly the segments predictive processing would build from the leg
    /// boundary tuples. (Reconstructed from the tuple stream, so call it on
    /// a *fresh* generator with the same config.)
    pub fn ground_truth(cfg: &MovingConfig, duration: f64) -> Vec<Segment> {
        let mut gen = MovingObjectGen::new(cfg.clone());
        let tuples = gen.generate(duration);
        let mut out: Vec<Segment> = Vec::new();
        let mut last: Vec<Option<(f64, f64, f64)>> = vec![None; cfg.objects]; // (vx, vy, since)
        for t in &tuples {
            let key = t.key as usize;
            let (x, vx, y, vy) = (t.values[0], t.values[1], t.values[2], t.values[3]);
            let is_new = match last[key] {
                Some((pvx, pvy, _)) => (pvx - vx).abs() > 1e-12 || (pvy - vy).abs() > 1e-12,
                None => true,
            };
            if is_new {
                // Close the previous leg at this timestamp.
                if let Some(seg) =
                    out.iter_mut().rev().find(|s| s.key == t.key && s.span.hi > duration - 1e-9)
                {
                    seg.span = Span::new(seg.span.lo, t.ts);
                }
                let mx = Poly::linear(x - vx * t.ts, vx);
                let my = Poly::linear(y - vy * t.ts, vy);
                out.push(Segment::new(t.key, Span::new(t.ts, duration), vec![mx, my], Vec::new()));
                last[key] = Some((vx, vy, t.ts));
            }
        }
        out.sort_by(|a, b| a.span.lo.total_cmp(&b.span.lo));
        out
    }

    /// Tuples per segment implied by the configuration.
    pub fn tuples_per_segment(cfg: &MovingConfig) -> f64 {
        cfg.leg_duration / cfg.sample_dt
    }
}

/// Finds the ground-truth segment covering `(key, ts)`. Errors (instead of
/// panicking) with the key's covered spans when coverage is missing, so a
/// generator/ground-truth mismatch is diagnosable from the message.
pub fn segment_covering(segs: &[Segment], key: u64, ts: f64) -> Result<&Segment, String> {
    segs.iter().find(|s| s.key == key && s.span.contains(ts)).ok_or_else(|| {
        let spans: Vec<String> = segs
            .iter()
            .filter(|s| s.key == key)
            .map(|s| format!("[{:.3}, {:.3})", s.span.lo, s.span.hi))
            .collect();
        format!(
            "no ground-truth segment covers key {key} at ts {ts}; \
             key has {} segment(s): {}",
            spans.len(),
            spans.join(" ")
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_with_seed() {
        let cfg = MovingConfig::default();
        let a = MovingObjectGen::new(cfg.clone()).generate(5.0);
        let b = MovingObjectGen::new(cfg).generate(5.0);
        assert_eq!(a, b);
    }

    #[test]
    fn rate_and_count() {
        let cfg = MovingConfig { objects: 4, sample_dt: 0.5, ..Default::default() };
        let tuples = MovingObjectGen::new(cfg).generate(10.0);
        assert_eq!(tuples.len(), 4 * 20);
        // Time-ordered.
        assert!(tuples.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn positions_follow_velocity_within_leg() {
        let cfg = MovingConfig {
            objects: 1,
            sample_dt: 1.0,
            leg_duration: 100.0, // single leg
            noise: 0.0,
            ..Default::default()
        };
        let tuples = MovingObjectGen::new(cfg).generate(10.0);
        let (x0, vx) = (tuples[0].values[0], tuples[0].values[1]);
        for t in &tuples {
            assert!((t.values[0] - (x0 + vx * t.ts)).abs() < 1e-9);
            assert_eq!(t.values[1], vx, "velocity constant within leg");
        }
    }

    #[test]
    fn ground_truth_matches_tuples() {
        let cfg = MovingConfig {
            objects: 3,
            sample_dt: 0.25,
            leg_duration: 2.0,
            noise: 0.0,
            ..Default::default()
        };
        let segs = MovingObjectGen::ground_truth(&cfg, 8.0);
        let tuples = MovingObjectGen::new(cfg).generate(8.0);
        for t in &tuples {
            let seg = segment_covering(&segs, t.key, t.ts).expect("full coverage");
            assert!((seg.eval(0, t.ts) - t.values[0]).abs() < 1e-6, "x mismatch");
            assert!((seg.eval(1, t.ts) - t.values[2]).abs() < 1e-6, "y mismatch");
        }
    }

    #[test]
    fn tuples_per_segment_knob() {
        let cfg = MovingConfig { sample_dt: 0.1, leg_duration: 10.0, ..Default::default() };
        assert_eq!(MovingObjectGen::tuples_per_segment(&cfg), 100.0);
        // Legs change velocities: more than one distinct velocity over time.
        let tuples = MovingObjectGen::new(MovingConfig {
            objects: 1,
            sample_dt: 0.5,
            leg_duration: 2.0,
            ..Default::default()
        })
        .generate(20.0);
        let mut vels: Vec<f64> = tuples.iter().map(|t| t.values[1]).collect();
        vels.dedup();
        assert!(vels.len() >= 5, "velocity changes every leg: {}", vels.len());
    }

    #[test]
    fn model_clause_reproduces_leg() {
        let sm = stream_model();
        let cfg = MovingConfig {
            objects: 1,
            sample_dt: 0.5,
            leg_duration: 4.0,
            noise: 0.0,
            ..Default::default()
        };
        let tuples = MovingObjectGen::new(cfg).generate(4.0);
        let seg = sm.segment_for(&tuples[0], 4.0).unwrap();
        for t in &tuples {
            assert!((seg.eval(0, t.ts) - t.values[0]).abs() < 1e-9);
        }
    }
}
