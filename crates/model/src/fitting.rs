//! The modeling component: fitting piecewise polynomials to tuple streams.
//!
//! Historical processing (§II-A) computes a continuous-time model of a
//! stored stream once and feeds it to many what-if queries. The paper uses
//! "an online segmentation-based algorithm [Keogh et al. 2001] to find a
//! piecewise linear model": [`OnlineSegmenter`] implements that
//! sliding-window scheme (grow a window while the fit stays within the
//! error budget, emit and restart when it breaks), and [`bottom_up`] the
//! offline variant (merge adjacent segments cheapest-first).

use crate::segment::{Models, Segment};
use crate::tuple::Tuple;
use pulse_math::{fit_poly, IncrementalLinFit, Poly, Span};
use std::collections::HashMap;

/// Residual-checking strategy of the online segmenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// Re-verify every buffered sample after each extension — the exact
    /// sliding-window algorithm (O(n) per sample, O(n²) per segment).
    #[default]
    Full,
    /// Check only the newest sample against the running least-squares fit —
    /// the O(1)-per-sample approximation used for high-rate streams (the
    /// paper's ~40k tuples/s modeling throughput needs this; older samples
    /// were verified when they arrived and the fit drifts slowly).
    /// Degree-1 only; higher degrees fall back to `Full`.
    NewPoint,
}

/// Configuration for both fitting algorithms.
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Maximum absolute residual tolerated between any sample and its model.
    pub max_error: f64,
    /// Polynomial degree (1 reproduces the paper's piecewise-linear models).
    pub degree: usize,
    /// Hard cap on samples per segment (bounds solver input sizes).
    pub max_points: usize,
    /// Residual checking strategy.
    pub check: CheckMode,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig { max_error: 0.5, degree: 1, max_points: 100_000, check: CheckMode::Full }
    }
}

/// A buffered sample: timestamp plus one value per modeled attribute.
type Sample = (f64, Vec<f64>);

/// Fits one segment through `samples` (local-time least squares per
/// attribute) and returns the per-attribute polynomials in absolute time
/// together with the worst residual.
fn fit_samples(samples: &[Sample], n_attrs: usize, degree: usize) -> (Vec<Poly>, f64) {
    let t0 = samples[0].0;
    let mut models = Vec::with_capacity(n_attrs);
    for a in 0..n_attrs {
        let pts: Vec<(f64, f64)> = samples.iter().map(|(t, v)| (t - t0, v[a])).collect();
        let local = if degree == 1 {
            let mut fit = IncrementalLinFit::new();
            for &(t, v) in &pts {
                fit.push(t, v);
            }
            fit.line()
        } else {
            let deg = degree.min(pts.len().saturating_sub(1));
            fit_poly(&pts, deg).unwrap_or_else(|_| {
                Poly::constant(pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64)
            })
        };
        models.push(local.compose_linear(1.0, -t0));
    }
    let mut worst = 0.0_f64;
    for (t, vals) in samples {
        for (a, model) in models.iter().enumerate() {
            worst = worst.max((model.eval(*t) - vals[a]).abs());
        }
    }
    (models, worst)
}

/// Online sliding-window segmentation for one entity's stream.
///
/// `push` returns a completed [`Segment`] whenever extending the current
/// window past the new sample would exceed the error budget; the new sample
/// then seeds the next window. `flush` closes the final window.
#[derive(Debug)]
pub struct OnlineSegmenter {
    cfg: FitConfig,
    n_attrs: usize,
    key: u64,
    buf: Vec<Sample>,
    /// Fast path: one running least-squares line per attribute, in local
    /// time (t − window start).
    fast_fits: Vec<IncrementalLinFit>,
    fast_t0: f64,
    last_ts: f64,
    last_dt: f64,
    /// Total samples consumed (exposed for tuples-per-segment accounting).
    pub samples_in: u64,
    /// Total segments emitted.
    pub segments_out: u64,
}

impl OnlineSegmenter {
    pub fn new(cfg: FitConfig, n_attrs: usize, key: u64) -> Self {
        OnlineSegmenter {
            cfg,
            n_attrs,
            key,
            buf: Vec::new(),
            fast_fits: Vec::new(),
            fast_t0: 0.0,
            last_ts: 0.0,
            last_dt: 1.0,
            samples_in: 0,
            segments_out: 0,
        }
    }

    fn is_fast(&self) -> bool {
        self.cfg.check == CheckMode::NewPoint && self.cfg.degree == 1
    }

    /// Feeds one sample; may emit the segment that just closed.
    pub fn push(&mut self, ts: f64, values: &[f64]) -> Option<Segment> {
        assert_eq!(values.len(), self.n_attrs, "sample arity mismatch");
        self.samples_in += 1;
        if self.is_fast() {
            return self.push_fast(ts, values);
        }
        if let Some(&(prev, _)) = self.buf.last() {
            if ts > prev {
                self.last_dt = ts - prev;
            }
        }
        self.buf.push((ts, values.to_vec()));
        let need = self.cfg.degree + 1;
        if self.buf.len() <= need {
            return None;
        }
        let (_, worst) = fit_samples(&self.buf, self.n_attrs, self.cfg.degree);
        if worst <= self.cfg.max_error && self.buf.len() < self.cfg.max_points {
            return None;
        }
        // The newest sample broke the window: close the segment over the
        // accepted prefix, valid until the breaking sample's timestamp.
        let breaking = self.buf.pop().unwrap();
        let seg = self.close(breaking.0);
        self.buf.push(breaking);
        seg
    }

    /// O(1)-per-sample path: test the newcomer against the running fit; on
    /// a break, the running fit *is* the segment model.
    fn push_fast(&mut self, ts: f64, values: &[f64]) -> Option<Segment> {
        if self.fast_fits.is_empty() {
            self.fast_fits = vec![IncrementalLinFit::new(); self.n_attrs];
            self.fast_t0 = ts;
        }
        let n = self.fast_fits[0].len();
        if n > 0 && ts > self.last_ts {
            self.last_dt = ts - self.last_ts;
        }
        let breaks = n >= 2
            && (n >= self.cfg.max_points
                || self.fast_fits.iter().zip(values).any(|(fit, &v)| {
                    (fit.line().eval(ts - self.fast_t0) - v).abs() > self.cfg.max_error
                }));
        if breaks {
            let seg = self.close_fast(ts);
            self.fast_fits = vec![IncrementalLinFit::new(); self.n_attrs];
            self.fast_t0 = ts;
            for (fit, &v) in self.fast_fits.iter_mut().zip(values) {
                fit.push(0.0, v);
            }
            self.last_ts = ts;
            return seg;
        }
        for (fit, &v) in self.fast_fits.iter_mut().zip(values) {
            fit.push(ts - self.fast_t0, v);
        }
        self.last_ts = ts;
        None
    }

    fn close_fast(&mut self, hi: f64) -> Option<Segment> {
        if self.fast_fits.is_empty() || self.fast_fits[0].is_empty() {
            return None;
        }
        let t0 = self.fast_t0;
        let models: Models =
            self.fast_fits.iter().map(|f| f.line().compose_linear(1.0, -t0)).collect();
        self.segments_out += 1;
        Some(Segment::new(self.key, Span::new(t0, hi.max(t0 + 1e-9)), models, Vec::new()))
    }

    /// Closes and returns the current window, if non-empty.
    pub fn flush(&mut self) -> Option<Segment> {
        if self.is_fast() {
            let seg = self.close_fast(self.last_ts + self.last_dt);
            self.fast_fits.clear();
            return seg;
        }
        if self.buf.is_empty() {
            return None;
        }
        let hi = self.buf.last().unwrap().0 + self.last_dt;
        self.close(hi)
    }

    fn close(&mut self, hi: f64) -> Option<Segment> {
        if self.buf.is_empty() {
            return None;
        }
        let (models, _) = fit_samples(&self.buf, self.n_attrs, self.cfg.degree);
        let lo = self.buf[0].0;
        self.buf.clear();
        self.segments_out += 1;
        Some(Segment::new(self.key, Span::new(lo, hi.max(lo + 1e-9)), models, Vec::new()))
    }
}

/// Offline bottom-up segmentation (the standard counterpart of the online
/// algorithm): start from minimal segments and repeatedly merge the adjacent
/// pair whose merged fit has the smallest residual, while it stays within
/// budget.
pub fn bottom_up(samples: &[Sample], n_attrs: usize, cfg: &FitConfig) -> Vec<Segment> {
    if samples.is_empty() {
        return Vec::new();
    }
    let unit = cfg.degree + 1;
    // Initial fine partition.
    let mut parts: Vec<Vec<Sample>> = samples.chunks(unit).map(|c| c.to_vec()).collect();
    loop {
        if parts.len() < 2 {
            break;
        }
        // Cheapest adjacent merge.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..parts.len() - 1 {
            let mut merged = parts[i].clone();
            merged.extend_from_slice(&parts[i + 1]);
            let (_, cost) = fit_samples(&merged, n_attrs, cfg.degree);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((i, cost));
            }
        }
        match best {
            Some((i, cost)) if cost <= cfg.max_error => {
                let right = parts.remove(i + 1);
                parts[i].extend(right);
            }
            _ => break,
        }
    }
    // Materialize segments; each ends where the next begins.
    let dt = if samples.len() >= 2 {
        (samples[samples.len() - 1].0 - samples[0].0) / (samples.len() - 1) as f64
    } else {
        1.0
    };
    let mut out = Vec::with_capacity(parts.len());
    for (i, part) in parts.iter().enumerate() {
        let (models, _) = fit_samples(part, n_attrs, cfg.degree);
        let lo = part[0].0;
        let hi = if i + 1 < parts.len() { parts[i + 1][0].0 } else { part.last().unwrap().0 + dt };
        out.push(Segment::new(0, Span::new(lo, hi.max(lo + 1e-9)), models, Vec::new()));
    }
    out
}

/// The modeling operator: segments a keyed tuple stream online.
///
/// `modeled` lists the value indices to model (schema modeled order). One
/// [`OnlineSegmenter`] is kept per key; [`StreamFitter::finish`] flushes all
/// of them.
pub struct StreamFitter {
    cfg: FitConfig,
    modeled: Vec<usize>,
    fitters: HashMap<u64, OnlineSegmenter>,
}

impl StreamFitter {
    pub fn new(cfg: FitConfig, modeled: Vec<usize>) -> Self {
        StreamFitter { cfg, modeled, fitters: HashMap::new() }
    }

    /// Feeds one tuple; returns a segment when one closes for its key.
    pub fn push(&mut self, tuple: &Tuple) -> Option<Segment> {
        let vals: Vec<f64> = self.modeled.iter().map(|&i| tuple.values[i]).collect();
        let cfg = self.cfg.clone();
        let n = self.modeled.len();
        let fitter = self
            .fitters
            .entry(tuple.key)
            .or_insert_with(|| OnlineSegmenter::new(cfg, n, tuple.key));
        fitter.push(tuple.ts, &vals)
    }

    /// Flushes every per-key window.
    pub fn finish(&mut self) -> Vec<Segment> {
        let mut out: Vec<Segment> = self.fitters.values_mut().filter_map(|f| f.flush()).collect();
        out.sort_by(|a, b| a.span.lo.total_cmp(&b.span.lo));
        out
    }

    /// Total samples consumed across keys.
    pub fn samples_in(&self) -> u64 {
        self.fitters.values().map(|f| f.samples_in).sum()
    }

    /// Total segments emitted across keys (excluding unflushed windows).
    pub fn segments_out(&self) -> u64 {
        self.fitters.values().map(|f| f.segments_out).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_samples(n: usize, slope: f64) -> Vec<Sample> {
        (0..n).map(|i| (i as f64, vec![slope * i as f64])).collect()
    }

    #[test]
    fn single_line_stays_one_segment() {
        let cfg = FitConfig { max_error: 0.1, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 1, 7);
        for (t, v) in line_samples(50, 2.0) {
            assert!(seg.push(t, &v).is_none(), "pure line must not split");
        }
        let s = seg.flush().unwrap();
        assert_eq!(s.key, 7);
        assert!((s.eval(0, 10.0) - 20.0).abs() < 1e-6);
        assert_eq!(seg.segments_out, 1);
    }

    #[test]
    fn slope_change_splits() {
        let cfg = FitConfig { max_error: 0.05, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 1, 0);
        let mut emitted = Vec::new();
        // Slope 1 for 30 samples, then slope -1.
        for i in 0..60 {
            let t = i as f64;
            let v = if i < 30 { t } else { 30.0 - (t - 30.0) };
            if let Some(s) = seg.push(t, &[v]) {
                emitted.push(s);
            }
        }
        emitted.extend(seg.flush());
        assert!(emitted.len() >= 2, "kink must split: got {}", emitted.len());
        // All residuals within budget on each emitted segment.
        for s in &emitted {
            for i in 0..60 {
                let t = i as f64;
                if !s.span.contains(t) {
                    continue;
                }
                let v = if i < 30 { t } else { 30.0 - (t - 30.0) };
                assert!((s.eval(0, t) - v).abs() <= 0.05 + 1e-9, "residual exceeded at t={t}");
            }
        }
        // Segments tile the time axis without overlap.
        for w in emitted.windows(2) {
            assert!(w[0].span.hi <= w[1].span.lo + 1e-9);
        }
    }

    #[test]
    fn noisy_line_respects_budget() {
        // Deterministic "noise" below the threshold must not split.
        let cfg = FitConfig { max_error: 0.5, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 1, 0);
        let mut count = 0;
        for i in 0..200 {
            let t = i as f64;
            let v = 3.0 * t + 0.2 * ((i % 3) as f64 - 1.0);
            if seg.push(t, &[v]).is_some() {
                count += 1;
            }
        }
        assert_eq!(count, 0);
    }

    #[test]
    fn max_points_caps_segments() {
        let cfg = FitConfig { max_error: 1e9, max_points: 10, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 1, 0);
        let mut emitted = 0;
        for (t, v) in line_samples(35, 1.0) {
            if seg.push(t, &v).is_some() {
                emitted += 1;
            }
        }
        assert!(emitted >= 3, "cap must force splits, got {emitted}");
    }

    #[test]
    fn multi_attribute_break_on_any() {
        let cfg = FitConfig { max_error: 0.1, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 2, 0);
        let mut splits = 0;
        for i in 0..40 {
            let t = i as f64;
            let a = t; // perfectly linear
            let b = if i < 20 { 0.0 } else { 5.0 }; // second attr jumps
            if seg.push(t, &[a, b]).is_some() {
                splits += 1;
            }
        }
        assert!(splits >= 1, "jump in second attribute must split");
    }

    #[test]
    fn quadratic_degree_two_fit() {
        let cfg = FitConfig { max_error: 0.01, degree: 2, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 1, 0);
        for i in 0..30 {
            let t = i as f64 * 0.5;
            let v = 1.0 + 2.0 * t - 0.25 * t * t;
            assert!(seg.push(t, &[v]).is_none(), "exact quadratic must not split");
        }
        let s = seg.flush().unwrap();
        assert!((s.eval(0, 4.0) - (1.0 + 8.0 - 4.0)).abs() < 1e-6);
    }

    #[test]
    fn bottom_up_merges_line() {
        let cfg = FitConfig { max_error: 0.1, ..Default::default() };
        let segs = bottom_up(&line_samples(40, 1.5), 1, &cfg);
        assert_eq!(segs.len(), 1);
        assert!((segs[0].eval(0, 20.0) - 30.0).abs() < 1e-6);
    }

    #[test]
    fn bottom_up_respects_kink() {
        let cfg = FitConfig { max_error: 0.05, ..Default::default() };
        let samples: Vec<Sample> = (0..40)
            .map(|i| {
                let t = i as f64;
                let v = if i < 20 { t } else { 40.0 - t };
                (t, vec![v])
            })
            .collect();
        let segs = bottom_up(&samples, 1, &cfg);
        assert!(segs.len() >= 2);
        // Tiling without overlap.
        for w in segs.windows(2) {
            assert!(w[0].span.hi <= w[1].span.lo + 1e-9);
        }
    }

    #[test]
    fn bottom_up_empty_input() {
        let cfg = FitConfig::default();
        assert!(bottom_up(&[], 1, &cfg).is_empty());
    }

    #[test]
    fn fast_path_tracks_line() {
        let cfg = FitConfig { max_error: 0.1, check: CheckMode::NewPoint, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 1, 3);
        for (t, v) in line_samples(50, 2.0) {
            assert!(seg.push(t, &v).is_none(), "pure line must not split (fast)");
        }
        let s = seg.flush().unwrap();
        assert_eq!(s.key, 3);
        assert!((s.eval(0, 10.0) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn fast_path_splits_on_kink() {
        let cfg = FitConfig { max_error: 0.05, check: CheckMode::NewPoint, ..Default::default() };
        let mut seg = OnlineSegmenter::new(cfg, 1, 0);
        let mut emitted = Vec::new();
        for i in 0..60 {
            let t = i as f64;
            let v = if i < 30 { t } else { 30.0 - (t - 30.0) };
            if let Some(s) = seg.push(t, &[v]) {
                emitted.push(s);
            }
        }
        emitted.extend(seg.flush());
        assert!(emitted.len() >= 2, "kink must split (fast): got {}", emitted.len());
        for w in emitted.windows(2) {
            assert!(w[0].span.hi <= w[1].span.lo + 1e-9, "tiling");
        }
    }

    #[test]
    fn fast_path_much_cheaper_than_full() {
        // Not a timing test: just verify the fast path emits comparable
        // segment counts on the same data.
        let data = line_samples(200, 1.0);
        let mut full =
            OnlineSegmenter::new(FitConfig { max_error: 0.1, ..Default::default() }, 1, 0);
        let mut fast = OnlineSegmenter::new(
            FitConfig { max_error: 0.1, check: CheckMode::NewPoint, ..Default::default() },
            1,
            0,
        );
        let mut nf = 0;
        let mut nq = 0;
        for (t, v) in &data {
            if full.push(*t, v).is_some() {
                nf += 1;
            }
            if fast.push(*t, v).is_some() {
                nq += 1;
            }
        }
        assert_eq!(nf, 0);
        assert_eq!(nq, 0);
    }

    #[test]
    fn stream_fitter_separates_keys() {
        let cfg = FitConfig { max_error: 0.1, ..Default::default() };
        let mut f = StreamFitter::new(cfg, vec![0]);
        for i in 0..20 {
            let t = i as f64;
            f.push(&Tuple::new(1, t, vec![t]));
            f.push(&Tuple::new(2, t, vec![-t]));
        }
        let segs = f.finish();
        assert_eq!(segs.len(), 2);
        let k1 = segs.iter().find(|s| s.key == 1).unwrap();
        let k2 = segs.iter().find(|s| s.key == 2).unwrap();
        assert!((k1.eval(0, 5.0) - 5.0).abs() < 1e-6);
        assert!((k2.eval(0, 5.0) + 5.0).abs() < 1e-6);
        assert_eq!(f.samples_in(), 40);
    }
}
