//! Validating query processing (§IV): query inversion, bound splitting,
//! and the accuracy/slack validation modes.
//!
//! Pulse guarantees user-specified accuracy bounds *without* running the
//! discrete query: output bounds are inverted to input bounds (walking the
//! lineage recorded during processing, §IV-B) and arriving tuples are
//! checked against their segment's model at the query *inputs*. Only a
//! violation — or a previously unseen situation — re-runs the solver.

use crate::lineage::LineageStore;
use pulse_math::EPS;
use pulse_model::{Segment, SegmentId};
use std::collections::HashMap;

/// A two-sided absolute error bound `[−below, +above]` around a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub below: f64,
    pub above: f64,
}

impl Bound {
    /// Symmetric bound `±eps`.
    pub fn symmetric(eps: f64) -> Self {
        assert!(eps >= 0.0, "bound must be non-negative");
        Bound { below: eps, above: eps }
    }

    /// Total width of the allowed range.
    pub fn width(&self) -> f64 {
        self.below + self.above
    }

    /// Whether `actual` lies within the bound around `predicted`.
    pub fn admits(&self, predicted: f64, actual: f64) -> bool {
        let d = actual - predicted;
        d >= -self.below - EPS && d <= self.above + EPS
    }

    /// Scales both sides.
    pub fn scale(&self, k: f64) -> Bound {
        Bound { below: self.below * k, above: self.above * k }
    }
}

/// Sorts `allocations` by key and keeps the tightest bound of each key
/// (the conservative choice when several paths allocate to one key).
pub(crate) fn keep_tightest<K: Ord + Copy>(allocations: &mut Vec<(K, Bound)>) {
    allocations.sort_unstable_by_key(|&(k, _)| k);
    allocations.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1.below = kept.1.below.min(next.1.below);
            kept.1.above = kept.1.above.min(next.1.above);
        }
        same
    });
}

/// A bound-splitting heuristic (§IV-C): apportions an output bound across
/// the input segments that caused the output. Implementations must be
/// conservative — allocated input ranges may not exceed the output range.
pub trait SplitHeuristic {
    /// Appends one share of `bound` per input, in input order, to `out`.
    /// There are `n` inputs; `gradient(i)` is input `i`'s `Σ |x′(t)|` at
    /// the midpoint of the output's span (only heuristics that weigh by
    /// rate of change call it). `dep_count` is
    /// `|D(o)| = |translations ∪ inferences|` for the operator being
    /// inverted.
    fn split_into(
        &self,
        bound: Bound,
        n: usize,
        gradient: &mut dyn FnMut(usize) -> f64,
        dep_count: usize,
        out: &mut Vec<Bound>,
    );

    /// [`Self::split_into`] over whole segments: each input's share, by id.
    fn split(
        &self,
        output: &Segment,
        bound: Bound,
        inputs: &[&Segment],
        dep_count: usize,
    ) -> Vec<(SegmentId, Bound)> {
        let mid = output.span.mid();
        let mut gradient =
            |i: usize| inputs[i].models.iter().map(|m| m.derivative().eval(mid).abs()).sum::<f64>();
        let mut shares = Vec::with_capacity(inputs.len());
        self.split_into(bound, inputs.len(), &mut gradient, dep_count, &mut shares);
        inputs.iter().map(|s| s.id).zip(shares).collect()
    }
}

/// Equi-split: uniform allocation `[oˡ/n, oᵘ/n]` across every contributing
/// key and attribute dependency.
#[derive(Debug, Clone, Copy, Default)]
pub struct EquiSplit;

impl SplitHeuristic for EquiSplit {
    fn split_into(
        &self,
        bound: Bound,
        n: usize,
        _gradient: &mut dyn FnMut(usize) -> f64,
        dep_count: usize,
        out: &mut Vec<Bound>,
    ) {
        let share = bound.scale(1.0 / (n * dep_count.max(1)).max(1) as f64);
        out.extend(std::iter::repeat_n(share, n));
    }
}

/// Gradient split: allocates proportionally to each input model's rate of
/// change, capturing "the contribution of each particular input model to
/// the output result". Falls back to equi-split when all gradients vanish.
#[derive(Debug, Clone, Copy, Default)]
pub struct GradientSplit;

impl SplitHeuristic for GradientSplit {
    fn split_into(
        &self,
        bound: Bound,
        n: usize,
        gradient: &mut dyn FnMut(usize) -> f64,
        dep_count: usize,
        out: &mut Vec<Bound>,
    ) {
        // The weights sit in `out` until the total is known.
        let start = out.len();
        let mut total = 0.0;
        for i in 0..n {
            let w = gradient(i);
            total += w;
            out.push(Bound { below: w, above: w });
        }
        if total < EPS {
            out.truncate(start);
            return EquiSplit.split_into(bound, n, gradient, dep_count, out);
        }
        let d = dep_count.max(1) as f64;
        for share in &mut out[start..] {
            *share = bound.scale(share.below / total / d);
        }
    }
}

/// Walks lineage from an output segment down to source segments, splitting
/// the output bound at each level — the query-inversion dataflow of §IV-B.
pub struct BoundInverter<'a> {
    store: &'a LineageStore,
    heuristic: &'a dyn SplitHeuristic,
    /// Dependency count applied at every split (a full implementation
    /// would carry per-operator translation/inference sets; this build
    /// applies a plan-wide count, which is conservative when ≥ the max).
    dep_count: usize,
}

/// Buffers [`BoundInverter::invert_into`] reuses from one inversion to the
/// next, so a warm inversion allocates nothing.
#[derive(Debug, Default)]
pub struct InvertScratch {
    frontier: Vec<(SegmentId, Bound)>,
    inputs: Vec<SegmentId>,
    shares: Vec<Bound>,
    sources: Vec<(SegmentId, Bound)>,
}

impl InvertScratch {
    /// The last inversion's result: one tightest bound per source segment,
    /// ordered by id.
    pub fn sources(&self) -> &[(SegmentId, Bound)] {
        &self.sources
    }
}

impl<'a> BoundInverter<'a> {
    pub fn new(
        store: &'a LineageStore,
        heuristic: &'a dyn SplitHeuristic,
        dep_count: usize,
    ) -> Self {
        BoundInverter { store, heuristic, dep_count }
    }

    /// Inverts `bound` at `output` into bounds at the source segments.
    /// A source reached along several paths keeps its tightest allocation
    /// (conservative).
    pub fn invert(&self, output: SegmentId, bound: Bound) -> HashMap<SegmentId, Bound> {
        let mut scratch = InvertScratch::default();
        self.invert_into(output, bound, &mut scratch);
        scratch.sources.into_iter().collect()
    }

    /// [`Self::invert`] into reusable buffers; the result is
    /// [`InvertScratch::sources`]. A segment without parents (a source, or
    /// one the store no longer holds) takes its share as is; parents the
    /// store no longer holds take none.
    pub fn invert_into(&self, output: SegmentId, bound: Bound, s: &mut InvertScratch) {
        s.sources.clear();
        s.frontier.clear();
        s.frontier.push((output, bound));
        while let Some((id, b)) = s.frontier.pop() {
            let Some(node) = self.store.snapshot(id).filter(|n| !n.parents.is_empty()) else {
                s.sources.push((id, b));
                continue;
            };
            s.inputs.clear();
            s.inputs.extend(node.parents.iter().copied().filter(|&p| self.store.contains(p)));
            if s.inputs.is_empty() {
                continue;
            }
            let (store, inputs, mid) = (self.store, &s.inputs, node.span.mid());
            let mut gradient =
                |i: usize| store.snapshot(inputs[i]).map_or(0.0, |p| p.gradient(mid));
            s.shares.clear();
            self.heuristic.split_into(
                b,
                inputs.len(),
                &mut gradient,
                self.dep_count,
                &mut s.shares,
            );
            s.frontier.extend(s.inputs.iter().copied().zip(s.shares.iter().copied()));
        }
        keep_tightest(&mut s.sources);
    }
}

/// Source-qualified validation key: a real composite, not a packed word.
/// (An earlier build packed `(source << 48) ^ key` into one `u64`, which
/// silently collided for keys ≥ 2⁴⁸ — e.g. `(1, 0)` and `(0, 1 << 48)` —
/// letting one stream's validation mode shadow another's.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct VKey {
    pub source: u32,
    pub key: u64,
}

impl VKey {
    pub fn new(source: usize, key: u64) -> Self {
        VKey { source: source as u32, key }
    }
}

impl std::hash::Hash for VKey {
    /// One word instead of the derived two: the validator's map spends a
    /// multiply per word on the per-tuple fast path. With `source` mixed
    /// into the high bits, a key ≥ 2⁴⁸ of one source can share its hash
    /// with one key of each other source, whatever the seed. That costs a
    /// probe, never a wrong answer, since `Eq` compares both fields.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64((self.source as u64).rotate_left(48) ^ self.key);
    }
}

/// Per-key validation state: accuracy bounds while results exist, slack
/// bounds after a null result ("Pulse alternates between performing
/// accuracy and slack validation based on whether previous inputs caused
/// query results").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValidationMode {
    /// Check tuples against the model within the inverted accuracy bound.
    Accuracy(Bound),
    /// Check that tuples stay within the slack band of the null result.
    Slack(f64),
}

impl ValidationMode {
    /// The allowance in force for a signed deviation `d`: the directional
    /// side of an accuracy bound (above for `d ≥ 0`, below otherwise), or
    /// the band of a slack bound. This is the exact tolerance the runtime
    /// promises on the suppressed path, which makes it the comparison
    /// allowance for the shadow auditor too.
    pub fn allowance_for(&self, d: f64) -> f64 {
        match *self {
            ValidationMode::Accuracy(b) => {
                if d >= 0.0 {
                    b.above
                } else {
                    b.below
                }
            }
            ValidationMode::Slack(s) => s,
        }
    }
}

/// Serializable summary of a validator's counters and installed modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ValidatorStats {
    /// Checks performed (the cheap per-tuple cost of Pulse's fast path).
    pub checks: u64,
    /// Violations detected.
    pub violations: u64,
    /// Keys currently under accuracy validation.
    pub accuracy_keys: u64,
    /// Keys currently under slack validation.
    pub slack_keys: u64,
}

impl ValidatorStats {
    /// Accumulates another validator's counters (shard merging).
    pub fn absorb(&mut self, other: &ValidatorStats) {
        self.checks += other.checks;
        self.violations += other.violations;
        self.accuracy_keys += other.accuracy_keys;
        self.slack_keys += other.slack_keys;
    }
}

/// The numbers behind one validation verdict (what
/// [`Validator::check_explained`] reports to the flight recorder).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOutcome {
    /// Verdict: prediction still stands.
    pub ok: bool,
    /// Observed |actual − predicted| (infinite for unknown keys).
    pub deviation: f64,
    /// The allowance in force for the deviation's direction.
    pub allowance: f64,
}

/// EWMA weight for the per-key drift estimate (≈ the last 16 checks).
const DRIFT_ALPHA: f64 = 1.0 / 16.0;
/// Consecutive violations on one key that count as a burst — the model is
/// systematically wrong for the key, not unlucky on one tuple.
pub const BURST_LEN: u32 = 3;
/// Mean consumed-budget ratio above which a key counts as *hot*: still
/// validating, but so close to its allowance that any drift will violate.
pub const HOT_RATIO: f64 = 0.8;

/// Per-key error-budget accounting, maintained on every check of a key
/// with an installed mode. All plain arithmetic on the owning thread — a
/// handful of flops per check, no allocation, no atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KeyAccuracy {
    /// Checks performed against this key's installed modes.
    pub checks: u64,
    /// Σ consumed-budget ratios (deviation / allowance), over `ratio_count`
    /// checks with a positive allowance. Ratio 0 = prediction exact,
    /// 1 = budget exhausted, >1 = violation.
    pub ratio_sum: f64,
    pub ratio_count: u64,
    /// Worst consumed-budget ratio observed.
    pub ratio_max: f64,
    /// EWMA of the *signed* deviation: a persistent sign means the model
    /// systematically over/under-predicts (drift), even while every
    /// individual check still passes.
    pub drift: f64,
    /// Current run of consecutive violations.
    pub burst: u32,
    /// Longest such run.
    pub burst_max: u32,
}

impl KeyAccuracy {
    /// Folds one verdict in; returns `true` when this violation completed
    /// a burst (the run just reached [`BURST_LEN`]).
    fn note(&mut self, d: f64, deviation: f64, allowance: f64, ok: bool) -> bool {
        self.checks += 1;
        if allowance > EPS && deviation.is_finite() {
            let ratio = deviation / allowance;
            self.ratio_sum += ratio;
            self.ratio_count += 1;
            if ratio > self.ratio_max {
                self.ratio_max = ratio;
            }
        }
        if d.is_finite() {
            self.drift += (d - self.drift) * DRIFT_ALPHA;
        }
        if ok {
            self.burst = 0;
            false
        } else {
            self.burst += 1;
            if self.burst > self.burst_max {
                self.burst_max = self.burst;
            }
            if self.burst == BURST_LEN {
                // Count the burst and restart the run: 2·BURST_LEN
                // consecutive violations are two bursts, not one long one.
                self.burst = 0;
                true
            } else {
                false
            }
        }
    }

    /// Mean consumed-budget ratio (0 when no ratio was recordable).
    pub fn mean_ratio(&self) -> f64 {
        if self.ratio_count == 0 {
            0.0
        } else {
            self.ratio_sum / self.ratio_count as f64
        }
    }
}

/// Aggregate accuracy telemetry over a validator's keys — what the runtime
/// exports as gauges and `BENCH_scaling.json` embeds. Mergeable across
/// shards ([`Self::absorb`]), like [`ValidatorStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct AccuracySummary {
    /// Keys with an installed validation mode.
    pub keys: u64,
    /// Checks that produced a consumed-budget ratio.
    pub ratio_count: u64,
    /// Mean consumed-budget ratio across those checks.
    pub mean_budget_ratio: f64,
    /// Worst ratio any key ever saw.
    pub max_budget_ratio: f64,
    /// Keys whose *mean* ratio exceeds [`HOT_RATIO`].
    pub hot_keys: u64,
    /// Mean |drift| across keys.
    pub mean_drift: f64,
    /// Largest |drift| of any key.
    pub max_drift: f64,
    /// Violation bursts detected (runs reaching [`BURST_LEN`]).
    pub bursts: u64,
    /// Longest violation run on any key.
    pub burst_max: u32,
}

impl AccuracySummary {
    /// Accumulates another summary (shard merging); means merge weighted
    /// by their respective populations.
    pub fn absorb(&mut self, o: &AccuracySummary) {
        let rc = self.ratio_count + o.ratio_count;
        if rc > 0 {
            self.mean_budget_ratio = (self.mean_budget_ratio * self.ratio_count as f64
                + o.mean_budget_ratio * o.ratio_count as f64)
                / rc as f64;
        }
        let keys = self.keys + o.keys;
        if keys > 0 {
            self.mean_drift =
                (self.mean_drift * self.keys as f64 + o.mean_drift * o.keys as f64) / keys as f64;
        }
        self.ratio_count = rc;
        self.keys = keys;
        self.max_budget_ratio = self.max_budget_ratio.max(o.max_budget_ratio);
        self.hot_keys += o.hot_keys;
        self.max_drift = self.max_drift.max(o.max_drift);
        self.bursts += o.bursts;
        self.burst_max = self.burst_max.max(o.burst_max);
    }
}

/// A key's validation state: its installed mode plus its accuracy
/// accounting. The runtime keeps it in the key's slot beside the key's
/// predictive segment, as an `Option` that stays `None` until the key's
/// first solve installs a mode; [`Validator`] reads and writes it there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyState {
    pub mode: ValidationMode,
    pub acc: KeyAccuracy,
}

/// Input-side validator: decides, per tuple, whether the current prediction
/// still stands (true) or the solver must re-run (false).
///
/// It holds no per-key state: each call takes the key's
/// `Option<KeyState>` from wherever the caller keeps it (the runtime's key
/// slot), so the suppressed path finds a key's segment and its mode with
/// one lookup. What it keeps are the counters over every key, including
/// how many keys are in each mode, updated on every mode change.
#[derive(Debug, Default)]
pub struct Validator {
    /// Checks performed (the cheap per-tuple cost of Pulse's fast path).
    pub checks: u64,
    /// Violations detected.
    pub violations: u64,
    /// Violation bursts detected across all keys (runs of [`BURST_LEN`]).
    pub bursts: u64,
    /// The numbers behind the most recent *failing* check — read by the
    /// runtime right after a violation to feed the budget-ratio histogram
    /// without re-deriving deviation/allowance.
    last_violation: Option<CheckOutcome>,
    /// The most recent check's outcome, failing or not, for the map-based
    /// reference the runtime's tests compare against.
    #[cfg(test)]
    pub(crate) last_outcome: Option<CheckOutcome>,
    /// Keys whose installed mode is accuracy validation.
    accuracy_keys: u64,
    /// Keys whose installed mode is slack validation.
    slack_keys: u64,
}

impl Validator {
    pub fn new() -> Self {
        Validator::default()
    }

    /// Installs `mode` in a key's `state`: an accuracy bound after a
    /// successful inversion, a slack bound (negative slack clamps to 0)
    /// after a null result. The key's accuracy accounting survives mode
    /// changes.
    pub fn install(&mut self, state: &mut Option<KeyState>, mode: ValidationMode) {
        let mode = match mode {
            ValidationMode::Slack(slack) => ValidationMode::Slack(slack.max(0.0)),
            accuracy => accuracy,
        };
        match state {
            Some(s) => {
                *self.keys_in(s.mode) -= 1;
                s.mode = mode;
            }
            None => *state = Some(KeyState { mode, acc: KeyAccuracy::default() }),
        }
        *self.keys_in(mode) += 1;
    }

    /// The running count of keys in `mode`'s kind of validation.
    fn keys_in(&mut self, mode: ValidationMode) -> &mut u64 {
        match mode {
            ValidationMode::Accuracy(_) => &mut self.accuracy_keys,
            ValidationMode::Slack(_) => &mut self.slack_keys,
        }
    }

    /// The numbers behind the most recent violation.
    pub fn last_violation(&self) -> Option<CheckOutcome> {
        self.last_violation
    }

    /// Validates an observation against its prediction, given the key's
    /// validation state. A key with no installed mode fails validation (no
    /// previously known result — the solver must run, per the paper's
    /// "only … in the presence of errors, or no previously known
    /// results").
    pub fn check(&mut self, state: &mut Option<KeyState>, predicted: f64, actual: f64) -> bool {
        self.check_explained(state, predicted, actual).ok
    }

    /// [`Self::check`] plus the numbers behind the verdict, for the flight
    /// recorder's `ValidationOutcome` events: the observed deviation and the
    /// allowance it was measured against (the directional side of an
    /// accuracy bound, the band of a slack bound). Unknown keys report an
    /// infinite deviation against a zero allowance — "no previously known
    /// results" always solves. This is the one verdict path: per-key
    /// accuracy accounting and counters update here. (For an accuracy bound
    /// the directional compare is equivalent to `Bound::admits`: `|d| ≤
    /// side + EPS` with `side` picked by `d`'s sign.)
    pub fn check_explained(
        &mut self,
        state: &mut Option<KeyState>,
        predicted: f64,
        actual: f64,
    ) -> CheckOutcome {
        self.checks += 1;
        let d = actual - predicted;
        let outcome = match state {
            Some(state) => {
                let (deviation, allowance) = (d.abs(), state.mode.allowance_for(d));
                let ok = deviation <= allowance + EPS;
                if state.acc.note(d, deviation, allowance, ok) {
                    self.bursts += 1;
                }
                CheckOutcome { ok, deviation, allowance }
            }
            None => CheckOutcome { ok: false, deviation: f64::INFINITY, allowance: 0.0 },
        };
        if !outcome.ok {
            self.violations += 1;
            self.last_violation = Some(outcome);
        }
        #[cfg(test)]
        {
            self.last_outcome = Some(outcome);
        }
        outcome
    }

    /// Counter and mode-population summary.
    pub fn stats(&self) -> ValidatorStats {
        ValidatorStats {
            checks: self.checks,
            violations: self.violations,
            accuracy_keys: self.accuracy_keys,
            slack_keys: self.slack_keys,
        }
    }

    /// Aggregate accuracy telemetry across `states`, the installed states
    /// of every key this validator checks.
    pub fn accuracy<'a>(&self, states: impl IntoIterator<Item = &'a KeyState>) -> AccuracySummary {
        let mut s = AccuracySummary { bursts: self.bursts, ..Default::default() };
        let mut ratio_sum = 0.0;
        let mut drift_sum = 0.0;
        for st in states {
            s.keys += 1;
            ratio_sum += st.acc.ratio_sum;
            s.ratio_count += st.acc.ratio_count;
            s.max_budget_ratio = s.max_budget_ratio.max(st.acc.ratio_max);
            let drift = st.acc.drift.abs();
            drift_sum += drift;
            s.max_drift = s.max_drift.max(drift);
            if st.acc.mean_ratio() > HOT_RATIO {
                s.hot_keys += 1;
            }
            s.burst_max = s.burst_max.max(st.acc.burst_max);
        }
        if s.ratio_count > 0 {
            s.mean_budget_ratio = ratio_sum / s.ratio_count as f64;
        }
        if s.keys > 0 {
            s.mean_drift = drift_sum / s.keys as f64;
        }
        s
    }
}

/// The validator as it was before its per-key state moved into the
/// runtime's key slots: one map from [`VKey`] to [`KeyState`], probed on
/// every check. Kept as the reference the slot-held state must match bit
/// for bit; the runtime's test builds feed it every check and install.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::keymap::KeyMap;

    #[derive(Debug, Default)]
    pub(crate) struct MapValidator {
        pub(crate) modes: KeyMap<VKey, KeyState>,
        pub(crate) checks: u64,
        pub(crate) violations: u64,
        pub(crate) bursts: u64,
        pub(crate) last_violation: Option<CheckOutcome>,
    }

    impl MapValidator {
        pub(crate) fn set_accuracy(&mut self, key: VKey, bound: Bound) {
            self.modes
                .entry(key)
                .and_modify(|s| s.mode = ValidationMode::Accuracy(bound))
                .or_insert(KeyState {
                    mode: ValidationMode::Accuracy(bound),
                    acc: Default::default(),
                });
        }

        pub(crate) fn set_slack(&mut self, key: VKey, slack: f64) {
            let mode = ValidationMode::Slack(slack.max(0.0));
            self.modes
                .entry(key)
                .and_modify(|s| s.mode = mode)
                .or_insert(KeyState { mode, acc: Default::default() });
        }

        pub(crate) fn check_explained(
            &mut self,
            key: VKey,
            predicted: f64,
            actual: f64,
        ) -> CheckOutcome {
            self.checks += 1;
            let d = actual - predicted;
            let outcome = match self.modes.get_mut(&key) {
                Some(state) => {
                    let (deviation, allowance) = (d.abs(), state.mode.allowance_for(d));
                    let ok = deviation <= allowance + EPS;
                    if state.acc.note(d, deviation, allowance, ok) {
                        self.bursts += 1;
                    }
                    CheckOutcome { ok, deviation, allowance }
                }
                None => CheckOutcome { ok: false, deviation: f64::INFINITY, allowance: 0.0 },
            };
            if !outcome.ok {
                self.violations += 1;
                self.last_violation = Some(outcome);
            }
            outcome
        }

        pub(crate) fn stats(&self) -> ValidatorStats {
            let accuracy_keys = self
                .modes
                .values()
                .filter(|s| matches!(s.mode, ValidationMode::Accuracy(_)))
                .count() as u64;
            ValidatorStats {
                checks: self.checks,
                violations: self.violations,
                accuracy_keys,
                slack_keys: self.modes.len() as u64 - accuracy_keys,
            }
        }

        pub(crate) fn accuracy(&self) -> AccuracySummary {
            let mut s = AccuracySummary { bursts: self.bursts, ..Default::default() };
            let mut ratio_sum = 0.0;
            let mut drift_sum = 0.0;
            for st in self.modes.values() {
                s.keys += 1;
                ratio_sum += st.acc.ratio_sum;
                s.ratio_count += st.acc.ratio_count;
                s.max_budget_ratio = s.max_budget_ratio.max(st.acc.ratio_max);
                let drift = st.acc.drift.abs();
                drift_sum += drift;
                s.max_drift = s.max_drift.max(drift);
                if st.acc.mean_ratio() > HOT_RATIO {
                    s.hot_keys += 1;
                }
                s.burst_max = s.burst_max.max(st.acc.burst_max);
            }
            if s.ratio_count > 0 {
                s.mean_budget_ratio = ratio_sum / s.ratio_count as f64;
            }
            if s.keys > 0 {
                s.mean_drift = drift_sum / s.keys as f64;
            }
            s
        }

        /// Mirrors an install the runtime made in `key`'s slot.
        pub(crate) fn install(&mut self, key: VKey, mode: ValidationMode) {
            match mode {
                ValidationMode::Accuracy(bound) => self.set_accuracy(key, bound),
                ValidationMode::Slack(slack) => self.set_slack(key, slack),
            }
        }

        /// Mirrors a check the runtime just made with `live` on `key`'s
        /// slot-held `state`: the same outcome, bit for bit, and the same
        /// state afterwards.
        pub(crate) fn mirror_check(
            &mut self,
            key: VKey,
            predicted: f64,
            actual: f64,
            live: &Validator,
            state: &Option<KeyState>,
        ) {
            let want = self.check_explained(key, predicted, actual);
            let got = live.last_outcome.expect("the live validator just checked");
            let bits = |o: CheckOutcome| (o.ok, o.deviation.to_bits(), o.allowance.to_bits());
            assert_eq!(bits(got), bits(want), "{key:?}: {predicted} → {actual}");
            assert_eq!(state.as_ref(), self.modes.get(&key), "{key:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keymap::KeyMap;
    use crate::lineage::LineageStore;
    use pulse_math::{Poly, Span};

    fn seg_with(slope: f64) -> Segment {
        Segment::single(1, Span::new(0.0, 10.0), Poly::linear(0.0, slope))
    }

    #[test]
    fn bound_admits() {
        let b = Bound::symmetric(1.0);
        assert!(b.admits(5.0, 5.5));
        assert!(b.admits(5.0, 4.0));
        assert!(!b.admits(5.0, 6.5));
        let asym = Bound { below: 0.0, above: 2.0 };
        assert!(asym.admits(5.0, 6.9));
        assert!(!asym.admits(5.0, 4.5));
    }

    #[test]
    fn equi_split_uniform_and_conservative() {
        let out = seg_with(1.0);
        let (a, b) = (seg_with(2.0), seg_with(3.0));
        let parts = EquiSplit.split(&out, Bound::symmetric(1.0), &[&a, &b], 1);
        assert_eq!(parts.len(), 2);
        for (_, pb) in &parts {
            assert!((pb.below - 0.5).abs() < 1e-12);
        }
        // Dependencies shrink the shares further.
        let parts = EquiSplit.split(&out, Bound::symmetric(1.0), &[&a, &b], 2);
        assert!((parts[0].1.below - 0.25).abs() < 1e-12);
        // Conservative: Σ allocations ≤ bound.
        let total: f64 = parts.iter().map(|(_, b)| b.below).sum();
        assert!(total <= 1.0 + 1e-12);
    }

    #[test]
    fn gradient_split_weights_by_rate_of_change() {
        let out = seg_with(1.0);
        let fast = seg_with(9.0);
        let slow = seg_with(1.0);
        let parts = GradientSplit.split(&out, Bound::symmetric(1.0), &[&fast, &slow], 1);
        let fast_share = parts.iter().find(|(id, _)| *id == fast.id).unwrap().1;
        let slow_share = parts.iter().find(|(id, _)| *id == slow.id).unwrap().1;
        assert!((fast_share.below - 0.9).abs() < 1e-9);
        assert!((slow_share.below - 0.1).abs() < 1e-9);
        let total: f64 = parts.iter().map(|(_, b)| b.below).sum();
        assert!(total <= 1.0 + 1e-9, "conservative");
    }

    #[test]
    fn gradient_split_falls_back_on_flat_models() {
        let out = seg_with(0.0);
        let (a, b) = (seg_with(0.0), seg_with(0.0));
        let parts = GradientSplit.split(&out, Bound::symmetric(1.0), &[&a, &b], 1);
        assert!((parts[0].1.below - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverter_walks_to_sources() {
        let mut store = LineageStore::default();
        let (src_a, src_b) = (seg_with(1.0), seg_with(1.0));
        let mid = seg_with(1.0);
        let out = seg_with(1.0);
        for s in [&src_a, &src_b, &mid, &out] {
            store.register(s);
        }
        store.record(mid.id, &[src_a.id, src_b.id]);
        store.record(out.id, &[mid.id]);
        let heuristic = EquiSplit;
        let inv = BoundInverter::new(&store, &heuristic, 1);
        let bounds = inv.invert(out.id, Bound::symmetric(1.0));
        assert_eq!(bounds.len(), 2);
        // out → mid keeps 1.0 (single input), mid → two sources halves it.
        assert!((bounds[&src_a.id].below - 0.5).abs() < 1e-12);
        assert!((bounds[&src_b.id].below - 0.5).abs() < 1e-12);
    }

    #[test]
    fn inverter_keeps_tightest_on_shared_source() {
        // Diamond: out caused by m1 and m2, both caused by the same source.
        let mut store = LineageStore::default();
        let src = seg_with(1.0);
        let m1 = seg_with(1.0);
        let m2 = seg_with(1.0);
        let out = seg_with(1.0);
        for s in [&src, &m1, &m2, &out] {
            store.register(s);
        }
        store.record(m1.id, &[src.id]);
        store.record(m2.id, &[src.id]);
        store.record(out.id, &[m1.id, m2.id]);
        let heuristic = EquiSplit;
        let inv = BoundInverter::new(&store, &heuristic, 1);
        let bounds = inv.invert(out.id, Bound::symmetric(1.0));
        assert_eq!(bounds.len(), 1);
        assert!((bounds[&src.id].below - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invert_into_keeps_one_tightest_bound_per_source() {
        // out ← (m1, m2); m1 ← src; m2 ← (src, other): src gets 0.5 via m1
        // and 0.25 via m2, and keeps 0.25.
        let mut store = LineageStore::default();
        let (src, other, m1, m2, out) =
            (seg_with(1.0), seg_with(1.0), seg_with(1.0), seg_with(1.0), seg_with(1.0));
        store.register(&src);
        store.register(&other);
        store.emit(&m1, &[src.id]);
        store.emit(&m2, &[src.id, other.id]);
        store.emit(&out, &[m1.id, m2.id]);
        let mut scratch = InvertScratch::default();
        let inverter = BoundInverter::new(&store, &EquiSplit, 1);
        for _ in 0..2 {
            // A reused scratch gives the same answer.
            inverter.invert_into(out.id, Bound::symmetric(1.0), &mut scratch);
            let mut want =
                vec![(src.id, Bound::symmetric(0.25)), (other.id, Bound::symmetric(0.25))];
            want.sort_by_key(|&(id, _)| id);
            assert_eq!(scratch.sources(), want.as_slice());
        }
    }

    #[test]
    fn inverter_gradient_shares_match_the_segment_split() {
        let mut store = LineageStore::default();
        let fast = seg_with(3.0);
        let curved = Segment::new(
            2,
            Span::new(0.0, 10.0),
            vec![Poly::new(vec![1.0, -0.5, 0.25]), Poly::constant(2.0)],
            vec![4.0],
        );
        let out = seg_with(1.0);
        store.register(&fast);
        store.register(&curved);
        store.emit(&out, &[fast.id, curved.id]);
        let bounds =
            BoundInverter::new(&store, &GradientSplit, 2).invert(out.id, Bound::symmetric(1.0));
        let want = GradientSplit.split(&out, Bound::symmetric(1.0), &[&fast, &curved], 2);
        assert_eq!(bounds.len(), 2);
        for (id, share) in want {
            assert_eq!(bounds[&id], share, "bit-exact share for {id:?}");
        }
    }

    #[test]
    fn inverter_skips_collected_parents() {
        let mut store = LineageStore::default();
        let old = Segment::single(1, Span::new(0.0, 1.0), Poly::linear(0.0, 1.0));
        let live = seg_with(1.0);
        let out = seg_with(1.0);
        store.register(&old);
        store.register(&live);
        store.emit(&out, &[old.id, live.id]);
        store.gc_before(5.0);
        let bounds =
            BoundInverter::new(&store, &EquiSplit, 1).invert(out.id, Bound::symmetric(1.0));
        // The collected parent takes no share, so the live one takes all.
        assert_eq!(bounds.len(), 1);
        assert_eq!(bounds[&live.id], Bound::symmetric(1.0));
    }

    #[test]
    fn validator_mode_alternation() {
        let mut v = Validator::new();
        let mut k = None;
        // Unknown key: must fail (no previously known results).
        assert!(!v.check(&mut k, 10.0, 10.0));
        v.install(&mut k, ValidationMode::Accuracy(Bound::symmetric(0.5)));
        assert!(v.check(&mut k, 10.0, 10.3));
        assert!(!v.check(&mut k, 10.0, 11.0));
        assert_eq!((v.stats().accuracy_keys, v.stats().slack_keys), (1, 0));
        // After a null result: slack mode.
        v.install(&mut k, ValidationMode::Slack(3.0));
        assert!(matches!(k.map(|s| s.mode), Some(ValidationMode::Slack(_))));
        assert_eq!((v.stats().accuracy_keys, v.stats().slack_keys), (0, 1));
        assert!(v.check(&mut k, 10.0, 12.0));
        assert!(!v.check(&mut k, 10.0, 14.0));
        assert_eq!(v.checks, 5);
        assert_eq!(v.violations, 3);
        // A negative slack clamps to an exact-match band.
        v.install(&mut k, ValidationMode::Slack(-1.0));
        assert_eq!(k.map(|s| s.mode), Some(ValidationMode::Slack(0.0)));
    }

    #[test]
    fn vkeys_that_collided_under_packing_stay_distinct() {
        // The old `(source << 48) ^ key` packing mapped both of these to
        // the same slot; each stream must keep its own mode.
        let a = VKey::new(1, 0);
        let b = VKey::new(0, 1 << 48);
        assert_ne!(a, b);
        let mut v = Validator::new();
        let mut slots: KeyMap<VKey, Option<KeyState>> = KeyMap::default();
        v.install(slots.entry(a).or_default(), ValidationMode::Slack(1e6));
        v.install(slots.entry(b).or_default(), ValidationMode::Accuracy(Bound::symmetric(0.5)));
        assert!(matches!(slots[&a].map(|s| s.mode), Some(ValidationMode::Slack(_))));
        assert!(matches!(slots[&b].map(|s| s.mode), Some(ValidationMode::Accuracy(_))));
        let state = slots.get_mut(&a).unwrap();
        assert!(v.check(state, 0.0, 100.0), "a's wide slack must survive b's install");
        assert_eq!((v.stats().accuracy_keys, v.stats().slack_keys), (1, 1));
    }

    #[test]
    fn check_explained_agrees_with_check() {
        let mut explained = Validator::new();
        let mut plain = Validator::new();
        let (mut ke, mut kp) = (None, None);
        // Unknown key: infinite deviation against zero allowance.
        let o = explained.check_explained(&mut ke, 10.0, 10.0);
        assert!(!o.ok && o.deviation.is_infinite() && o.allowance == 0.0);
        assert!(!plain.check(&mut kp, 10.0, 10.0));
        let accuracy = ValidationMode::Accuracy(Bound { below: 0.2, above: 0.5 });
        explained.install(&mut ke, accuracy);
        plain.install(&mut kp, accuracy);
        for (pred, act) in [(10.0, 10.3), (10.0, 11.0), (10.0, 9.9), (10.0, 9.0)] {
            let o = explained.check_explained(&mut ke, pred, act);
            assert_eq!(o.ok, plain.check(&mut kp, pred, act), "accuracy {pred}→{act}");
            // A violating outcome always shows deviation beyond allowance.
            assert!(o.ok || o.deviation > o.allowance, "{o:?}");
        }
        explained.install(&mut ke, ValidationMode::Slack(3.0));
        plain.install(&mut kp, ValidationMode::Slack(3.0));
        for (pred, act) in [(10.0, 12.0), (10.0, 14.0)] {
            let o = explained.check_explained(&mut ke, pred, act);
            assert_eq!(o.ok, plain.check(&mut kp, pred, act), "slack {pred}→{act}");
            assert_eq!(o.allowance, 3.0);
        }
        // Counters and key state advance identically on both paths.
        assert_eq!(explained.checks, plain.checks);
        assert_eq!(explained.violations, plain.violations);
        assert_eq!(ke, kp);
    }

    #[test]
    fn budget_ratio_tracks_consumed_allowance() {
        let mut v = Validator::new();
        let mut k = None;
        v.install(&mut k, ValidationMode::Accuracy(Bound::symmetric(1.0)));
        v.check(&mut k, 10.0, 10.5); // ratio 0.5
        v.check(&mut k, 10.0, 9.0); // ratio 1.0 (just at budget)
        v.check(&mut k, 10.0, 12.0); // ratio 2.0, violation
        let acc = k.unwrap().acc;
        assert_eq!(acc.ratio_count, 3);
        assert!((acc.mean_ratio() - (0.5 + 1.0 + 2.0) / 3.0).abs() < 1e-12);
        assert!((acc.ratio_max - 2.0).abs() < 1e-12);
        let last = v.last_violation().unwrap();
        assert!(!last.ok && (last.deviation - 2.0).abs() < 1e-12 && last.allowance == 1.0);
        let sum = v.accuracy(k.as_ref());
        assert_eq!(sum.keys, 1);
        assert!((sum.max_budget_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn drift_estimate_converges_to_signed_bias() {
        let mut v = Validator::new();
        let mut k = None;
        v.install(&mut k, ValidationMode::Slack(10.0));
        // Model persistently predicts 2.0 low: every check passes, but the
        // drift EWMA must converge toward +2.
        for _ in 0..200 {
            assert!(v.check(&mut k, 10.0, 12.0));
        }
        let acc = k.unwrap().acc;
        assert!((acc.drift - 2.0).abs() < 1e-3, "drift {}", acc.drift);
        assert!(v.accuracy(k.as_ref()).max_drift > 1.9);
        // Accuracy accounting survives a mode change.
        v.install(&mut k, ValidationMode::Accuracy(Bound::symmetric(5.0)));
        assert_eq!(k.unwrap().acc.checks, 200);
    }

    #[test]
    fn violation_bursts_detected_per_key() {
        let mut v = Validator::new();
        let (mut k, mut other) = (None, None);
        v.install(&mut k, ValidationMode::Accuracy(Bound::symmetric(0.1)));
        v.install(&mut other, ValidationMode::Accuracy(Bound::symmetric(0.1)));
        // Two violations, a pass, then two more: no run reaches BURST_LEN=3.
        for actual in [11.0, 11.0, 10.0, 11.0, 11.0] {
            v.check(&mut k, 10.0, actual);
        }
        assert_eq!(v.bursts, 0);
        assert_eq!(k.unwrap().acc.burst_max, 2);
        // Interleaved checks on another key must not break k's run.
        for _ in 0..3 {
            v.check(&mut k, 10.0, 11.0);
            v.check(&mut other, 10.0, 10.0);
        }
        assert_eq!(v.bursts, 1, "one run of 3 → one burst");
        assert_eq!(k.unwrap().acc.burst_max, 3);
        let sum = v.accuracy(k.iter().chain(&other));
        assert_eq!(sum.bursts, 1);
        assert_eq!(sum.burst_max, 3);
        assert_eq!(sum.hot_keys, 1, "only k runs over HOT_RATIO");
    }

    #[test]
    fn accuracy_summary_absorb_weights_means() {
        let a = AccuracySummary {
            keys: 1,
            ratio_count: 10,
            mean_budget_ratio: 0.2,
            max_budget_ratio: 0.5,
            hot_keys: 0,
            mean_drift: 1.0,
            max_drift: 1.0,
            bursts: 1,
            burst_max: 3,
        };
        let b = AccuracySummary {
            keys: 3,
            ratio_count: 30,
            mean_budget_ratio: 0.6,
            max_budget_ratio: 0.9,
            hot_keys: 2,
            mean_drift: 2.0,
            max_drift: 4.0,
            bursts: 2,
            burst_max: 5,
        };
        let mut m = a;
        m.absorb(&b);
        assert_eq!(m.keys, 4);
        assert_eq!(m.ratio_count, 40);
        assert!((m.mean_budget_ratio - 0.5).abs() < 1e-12, "10·0.2+30·0.6 over 40");
        assert!((m.mean_drift - 1.75).abs() < 1e-12, "1·1+3·2 over 4");
        assert_eq!(m.max_budget_ratio, 0.9);
        assert_eq!(m.hot_keys, 2);
        assert_eq!(m.bursts, 3);
        assert_eq!(m.burst_max, 5);
        // Absorbing an empty summary is the identity.
        let mut id = b;
        id.absorb(&AccuracySummary::default());
        assert_eq!(id, b);
    }

    #[test]
    fn validator_stats_absorb_sums_fields() {
        let mut a = ValidatorStats { checks: 1, violations: 2, accuracy_keys: 3, slack_keys: 4 };
        let b = ValidatorStats { checks: 10, violations: 20, accuracy_keys: 30, slack_keys: 40 };
        a.absorb(&b);
        assert_eq!(
            a,
            ValidatorStats { checks: 11, violations: 22, accuracy_keys: 33, slack_keys: 44 }
        );
    }
}
