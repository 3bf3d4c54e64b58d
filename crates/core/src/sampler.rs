//! Output sampling — turning result segments back into tuples.
//!
//! §III-C: "Once the processed segment reaches an output stream, we produce
//! output tuples via a sampling process. For selective operators, this
//! requires a user-defined sampling rate"; for aggregates the rate is
//! inferred from the window's slide parameter.

use pulse_math::EPS;
use pulse_model::{Segment, Tuple};

/// Samples result segments onto a fixed time grid.
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    /// Samples per second.
    pub rate: f64,
}

impl Sampler {
    /// User-specified output rate (selective operators).
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "sampling rate must be positive");
        Sampler { rate }
    }

    /// Rate inferred from an aggregate's slide: one output per window close.
    pub fn from_slide(slide: f64) -> Self {
        Sampler::new(1.0 / slide)
    }

    /// Tuples for one segment: every grid point within its span, in
    /// strictly increasing time (a point segment yields exactly one tuple
    /// at its instant). Where the step is under the ulp of `t`, grid
    /// points that round to the instant before them are skipped.
    pub fn sample_segment(&self, seg: &Segment) -> Vec<Tuple> {
        let eval = |t: f64| -> Tuple {
            let mut values: Vec<f64> = seg.models.iter().map(|m| m.eval(t)).collect();
            values.extend_from_slice(&seg.unmodeled);
            Tuple::new(seg.key, t, values)
        };
        if seg.span.is_point() {
            return vec![eval(seg.span.lo)];
        }
        let step = 1.0 / self.rate;
        let k0 = (seg.span.lo / step).ceil();
        // `ceil` can land the first point an ulp short of the span.
        let first = (k0 * step).max(seg.span.lo);
        // Later points are their grid index times `step`, not a running
        // sum: a sum drifts off the grid, and stops advancing once `step`
        // is under half an ulp of `t`.
        let later = ((k0 as i64).saturating_add(1)..=i64::MAX).map(|k| k as f64 * step);
        let mut last = f64::NEG_INFINITY;
        std::iter::once(first)
            .chain(later)
            .take_while(|&t| t < seg.span.hi - EPS)
            .filter(|&t| t > std::mem::replace(&mut last, t))
            .map(eval)
            .collect()
    }

    /// Tuples for a batch of segments, time-ordered.
    pub fn sample(&self, segs: &[Segment]) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = segs.iter().flat_map(|s| self.sample_segment(s)).collect();
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        out
    }

    /// [`Self::sample`] plus staleness accounting against the input
    /// watermark (the max tuple timestamp the runtime has ingested).
    /// Samples at or before the watermark are *settled* — the inputs that
    /// could invalidate them have been seen; samples beyond it are
    /// *speculative*, riding on the predictive models (the whole point of
    /// Pulse, but worth measuring: how far ahead of its inputs the system
    /// answers, and how much of the output is still exposed to revision).
    pub fn sample_with_watermark(
        &self,
        segs: &[Segment],
        watermark: f64,
    ) -> (Vec<Tuple>, SampleStaleness) {
        let out = self.sample(segs);
        let mut st = SampleStaleness::default();
        for t in &out {
            if t.ts <= watermark + EPS {
                st.settled += 1;
            } else {
                st.speculative += 1;
                st.max_lead = st.max_lead.max(t.ts - watermark);
            }
        }
        (out, st)
    }
}

/// How a batch of output samples stands relative to the input watermark.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct SampleStaleness {
    /// Samples at or behind the watermark (inputs already seen).
    pub settled: u64,
    /// Samples ahead of the watermark (predictions still exposed to
    /// revision by future arrivals).
    pub speculative: u64,
    /// Furthest any sample ran ahead of the watermark, in stream seconds.
    pub max_lead: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulse_math::{Poly, Span};

    #[test]
    fn samples_on_grid() {
        let s = Segment::single(1, Span::new(0.25, 1.05), Poly::linear(0.0, 2.0));
        let tuples = Sampler::new(10.0).sample_segment(&s);
        // Grid points 0.3, 0.4, …, 1.0 → 8 samples.
        assert_eq!(tuples.len(), 8);
        assert!((tuples[0].ts - 0.3).abs() < 1e-9);
        assert!((tuples[0].values[0] - 0.6).abs() < 1e-9);
        assert!((tuples.last().unwrap().ts - 1.0).abs() < 1e-9);
    }

    #[test]
    fn grid_points_do_not_drift() {
        // A running sum of 0.1 drifts off `k · 0.1` within a few steps.
        let s = Segment::single(1, Span::new(0.25, 1000.05), Poly::constant(0.0));
        let tuples = Sampler::new(10.0).sample_segment(&s);
        assert_eq!(tuples.len(), 9998);
        for (k, tuple) in (3..).zip(&tuples) {
            assert_eq!(tuple.ts.to_bits(), (k as f64 * 0.1).to_bits(), "k = {k}");
        }
    }

    #[test]
    fn steps_below_the_ulp_of_t_terminate() {
        // Unix-epoch seconds at 100 MHz: the 1e-8 step is under half the
        // ulp of 1.7e9 (2.4e-7), so `t += step` would never advance.
        let (lo, hi, rate) = (1.7e9, 1.7e9 + 1e-5, 1e8);
        let (tx, rx) = std::sync::mpsc::channel();
        let sampler = std::thread::spawn(move || {
            let s = Segment::single(1, Span::new(lo, hi), Poly::constant(0.0));
            tx.send(Sampler::new(rate).sample_segment(&s)).expect("the test awaits the samples");
        });
        // A regression would loop, so bound the wait instead of hanging.
        let tuples = rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("sampling a sub-ulp grid must terminate");
        sampler.join().expect("the sampling thread ran to its end");
        // One sample per distinct `f64` the grid points of the span round
        // to: about 1,000 grid points, but index `k` near 1.7e17 is only
        // representable in steps of 32, so they take 31 values.
        let step = 1.0 / rate;
        let mut grid: Vec<f64> = ((lo / step).floor() as i64..=(hi / step).ceil() as i64)
            .map(|k| (k as f64 * step).max(lo))
            .filter(|&t| t < hi)
            .collect();
        grid.dedup();
        assert_eq!(grid.len(), 31);
        assert_eq!(tuples.len(), grid.len());
        assert_eq!(tuples[0].ts, lo);
        assert!(tuples.windows(2).all(|w| w[0].ts < w[1].ts), "timestamps strictly increase");
        assert!(tuples.iter().all(|t| t.ts >= lo && t.ts < hi));
    }

    #[test]
    fn point_segment_yields_one_tuple() {
        let s = Segment::single(3, Span::point(2.5), Poly::linear(1.0, 2.0));
        let tuples = Sampler::new(1.0).sample_segment(&s);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].ts, 2.5);
        assert_eq!(tuples[0].values[0], 6.0);
        assert_eq!(tuples[0].key, 3);
    }

    #[test]
    fn unmodeled_values_carried_through() {
        let s = Segment::new(0, Span::new(0.0, 1.0), vec![Poly::constant(1.0)], vec![7.0, 8.0]);
        let tuples = Sampler::new(2.0).sample_segment(&s);
        assert_eq!(tuples[0].values, vec![1.0, 7.0, 8.0]);
    }

    #[test]
    fn from_slide_rate() {
        let s = Sampler::from_slide(2.0);
        assert!((s.rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batch_sampling_sorted() {
        let a = Segment::single(1, Span::new(1.0, 2.0), Poly::constant(1.0));
        let b = Segment::single(2, Span::new(0.0, 1.0), Poly::constant(2.0));
        let tuples = Sampler::new(2.0).sample(&[a, b]);
        assert!(tuples.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn watermark_splits_settled_from_speculative() {
        // Span [0, 2) at 2 Hz → samples at 0.0, 0.5, 1.0, 1.5.
        let s = Segment::single(1, Span::new(0.0, 2.0), Poly::constant(1.0));
        let (tuples, st) = Sampler::new(2.0).sample_with_watermark(&[s], 0.75);
        assert_eq!(tuples.len(), 4);
        assert_eq!(st.settled, 2, "0.0 and 0.5 are behind the watermark");
        assert_eq!(st.speculative, 2);
        assert!((st.max_lead - 0.75).abs() < 1e-9, "1.5 − 0.75");
        // Watermark past the span: everything settled, no lead.
        let s = Segment::single(1, Span::new(0.0, 2.0), Poly::constant(1.0));
        let (_, st) = Sampler::new(2.0).sample_with_watermark(&[s], 10.0);
        assert_eq!((st.settled, st.speculative), (4, 0));
        assert_eq!(st.max_lead, 0.0);
    }
}
