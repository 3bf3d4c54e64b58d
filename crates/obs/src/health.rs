//! Health signals and a dependency-free rule-based alert evaluator.
//!
//! The evaluator owns no wiring into the runtime: it reads whatever the
//! runtime already exports into a [`Snapshot`] (queue-depth gauges,
//! validation counters, per-shard tuple counters), derives a handful of
//! [`Signals`], and runs them through threshold + sustained-duration
//! [`Rule`]s. Every evaluation produces a [`HealthReport`] — the
//! machine-parseable verdict `/health` serves. Each rule's `firing` flag
//! and breach `streak` in that report are the record of its transitions:
//! a rule fires once its streak reaches `sustain` and clears when the
//! streak resets.
//!
//! "Sustained-duration" is measured in consecutive evaluations rather than
//! wall seconds: the evaluator is driven by whoever polls it (the HTTP
//! handler, a test loop), so `sustain` evaluations above threshold ≈
//! `sustain × poll-interval` of sustained breach, without the evaluator
//! needing its own clock or thread.

use crate::snapshot::Snapshot;
use serde::Serialize;
use std::time::Instant;

/// A derived signal a [`Rule`] can watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Signal {
    /// Deepest bounded-channel occupancy across shards
    /// (`shard.queue_depth{shard=…}` family max) — saturation means the
    /// router is blocking on backpressure.
    QueueDepthMax,
    /// Violations per validation check since the previous evaluation
    /// (0..=1); high means predictions are systematically breaking.
    ViolationRatio,
    /// Busiest shard's tuple intake relative to the mean since the
    /// previous evaluation (1 = perfectly balanced).
    ShardSkew,
    /// Violations per second since the previous evaluation.
    ViolationRate,
    /// Strict ε-guarantee violations the live auditor caught since the
    /// previous evaluation (`audit.breaches` family sum delta).
    GuaranteeBreaches,
}

impl Signal {
    pub fn name(&self) -> &'static str {
        match self {
            Signal::QueueDepthMax => "queue_depth_max",
            Signal::ViolationRatio => "violation_ratio",
            Signal::ShardSkew => "shard_skew",
            Signal::ViolationRate => "violation_rate",
            Signal::GuaranteeBreaches => "guarantee_breaches",
        }
    }
}

/// The signal values of one evaluation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Signals {
    pub queue_depth_max: u64,
    pub queue_depth_total: u64,
    pub violation_ratio: f64,
    pub violation_rate: f64,
    pub shard_skew: f64,
    pub guarantee_breaches: u64,
}

impl Signals {
    /// Derives signals from a cumulative snapshot, a delta since the last
    /// evaluation, and the elapsed seconds the delta spans.
    pub fn derive(current: &Snapshot, delta: &Snapshot, secs: f64) -> Signals {
        // Queue depths are gauges: read the *current* values, not deltas.
        let queue_depth_max = current.family_max("shard.queue_depth");
        let queue_depth_total = current.family_sum("shard.queue_depth");

        let checks = delta.family_sum("validate.checks");
        let violations = delta.family_sum("validate.violations");
        let violation_ratio = if checks == 0 { 0.0 } else { violations as f64 / checks as f64 };
        let violation_rate = if secs > 0.0 { violations as f64 / secs } else { 0.0 };

        // Skew over per-shard intake deltas; the unlabeled single-threaded
        // series has no `{shard=…}` variant and reports 1 (balanced).
        let per_shard: Vec<u64> = delta
            .family_values("runtime.tuples_in")
            .into_iter()
            .filter(|(name, _)| name.contains('{'))
            .map(|(_, v)| v)
            .collect();
        let shard_skew = if per_shard.len() < 2 {
            1.0
        } else {
            let sum: u64 = per_shard.iter().sum();
            let mean = sum as f64 / per_shard.len() as f64;
            if mean <= 0.0 {
                1.0
            } else {
                *per_shard.iter().max().unwrap() as f64 / mean
            }
        };

        // New strict audit violations this window (counters only grow).
        let guarantee_breaches = delta.family_sum("audit.breaches");

        Signals {
            queue_depth_max,
            queue_depth_total,
            violation_ratio,
            violation_rate,
            shard_skew,
            guarantee_breaches,
        }
    }

    fn value(&self, signal: Signal) -> f64 {
        match signal {
            Signal::QueueDepthMax => self.queue_depth_max as f64,
            Signal::ViolationRatio => self.violation_ratio,
            Signal::ShardSkew => self.shard_skew,
            Signal::ViolationRate => self.violation_rate,
            Signal::GuaranteeBreaches => self.guarantee_breaches as f64,
        }
    }
}

/// Threshold + sustained-duration alert rule: fires once its signal has
/// been `>= threshold` for `sustain` consecutive evaluations, clears on
/// the first evaluation back below.
#[derive(Debug, Clone)]
pub struct Rule {
    pub name: String,
    pub signal: Signal,
    pub threshold: f64,
    /// Consecutive breaching evaluations required to fire (min 1).
    pub sustain: u32,
}

impl Rule {
    pub fn new(name: &str, signal: Signal, threshold: f64, sustain: u32) -> Rule {
        Rule { name: name.to_string(), signal, threshold, sustain: sustain.max(1) }
    }
}

/// The default rule set `/health` evaluates when the embedding program
/// doesn't install its own.
pub fn default_rules() -> Vec<Rule> {
    vec![
        // The hybrid runtime's bounded channels hold 4 batches; a worker
        // pinned at that depth across two polls means the router is
        // blocked on backpressure, not just momentarily busy.
        Rule::new("queue_saturated", Signal::QueueDepthMax, 4.0, 2),
        // Most checks violating means the models have stopped predicting;
        // the runtime is degraded to per-tuple solving.
        Rule::new("violation_storm", Signal::ViolationRatio, 0.5, 3),
        // One shard taking 3× its fair share of intake defeats scaling.
        Rule::new("shard_skew", Signal::ShardSkew, 3.0, 3),
        // Any audited answer straying past its promised ε in two
        // consecutive windows: the headline guarantee is broken, which is
        // strictly worse than being slow.
        Rule::new("guarantee_breach", Signal::GuaranteeBreaches, 1.0, 2),
    ]
}

/// One rule's state within a [`HealthReport`].
#[derive(Debug, Clone, Serialize)]
pub struct RuleState {
    pub rule: String,
    pub signal: &'static str,
    pub threshold: f64,
    pub value: f64,
    /// Breaching right now (this evaluation).
    pub breached: bool,
    /// Breach sustained long enough — the rule is alerting.
    pub firing: bool,
    pub streak: u32,
}

/// The machine-parseable verdict of one evaluation (the `/health` body).
#[derive(Debug, Clone, Serialize)]
pub struct HealthReport {
    /// `"ok"` or `"degraded"` (any rule firing).
    pub verdict: String,
    pub firing: Vec<String>,
    pub signals: Signals,
    pub rules: Vec<RuleState>,
}

impl HealthReport {
    pub fn ok(&self) -> bool {
        self.verdict == "ok"
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

/// Stateful rule evaluator: feed it snapshots, get verdicts. Keeps the
/// previous snapshot for delta-based signals and a per-rule breach streak
/// for sustained-duration semantics.
pub struct HealthEvaluator {
    rules: Vec<Rule>,
    streaks: Vec<u32>,
    last: Option<Snapshot>,
    last_at: Option<Instant>,
}

impl HealthEvaluator {
    pub fn new(rules: Vec<Rule>) -> HealthEvaluator {
        let n = rules.len();
        HealthEvaluator { rules, streaks: vec![0; n], last: None, last_at: None }
    }

    /// Evaluator over [`default_rules`].
    pub fn with_defaults() -> HealthEvaluator {
        HealthEvaluator::new(default_rules())
    }

    /// Evaluates the global registry, timing the delta window itself.
    pub fn evaluate_global(&mut self) -> HealthReport {
        let secs = self.last_at.map(|t| t.elapsed().as_secs_f64()).unwrap_or(0.0);
        self.last_at = Some(Instant::now());
        self.evaluate(&crate::global().snapshot(), secs)
    }

    /// Evaluates one snapshot; `secs` is the wall time since the previous
    /// evaluation (for rate signals).
    pub fn evaluate(&mut self, snap: &Snapshot, secs: f64) -> HealthReport {
        let delta = match &self.last {
            Some(prev) => snap.delta(prev),
            None => snap.clone(),
        };
        let signals = Signals::derive(snap, &delta, secs);
        self.last = Some(snap.clone());

        let mut rules = Vec::with_capacity(self.rules.len());
        let mut firing_names = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let value = signals.value(rule.signal);
            let breached = value >= rule.threshold;
            self.streaks[i] = if breached { self.streaks[i] + 1 } else { 0 };
            let firing = self.streaks[i] >= rule.sustain;
            if firing {
                firing_names.push(rule.name.clone());
            }
            rules.push(RuleState {
                rule: rule.name.clone(),
                signal: rule.signal.name(),
                threshold: rule.threshold,
                value,
                breached,
                firing,
                streak: self.streaks[i],
            });
        }
        let verdict = if firing_names.is_empty() { "ok" } else { "degraded" };
        HealthReport { verdict: verdict.to_string(), firing: firing_names, signals, rules }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn snap_with(depth: u64, checks: u64, violations: u64) -> Snapshot {
        let reg = MetricsRegistry::new();
        reg.counter(&crate::labeled("shard.queue_depth", &[("shard", "0")])).set(depth);
        reg.counter("validate.checks").set(checks);
        reg.counter("validate.violations").set(violations);
        reg.snapshot()
    }

    #[test]
    fn sustained_threshold_fires_then_clears() {
        let mut ev =
            HealthEvaluator::new(vec![Rule::new("queue_saturated", Signal::QueueDepthMax, 4.0, 2)]);
        let r1 = ev.evaluate(&snap_with(4, 0, 0), 1.0);
        assert!(r1.ok(), "breached once, sustain=2 → not yet firing");
        assert!(r1.rules[0].breached && !r1.rules[0].firing);
        let r2 = ev.evaluate(&snap_with(4, 0, 0), 1.0);
        assert_eq!(r2.verdict, "degraded");
        assert_eq!(r2.firing, vec!["queue_saturated".to_string()]);
        assert!(r2.rules[0].firing && r2.rules[0].streak == 2);
        let r3 = ev.evaluate(&snap_with(0, 0, 0), 1.0);
        assert!(r3.ok(), "drops below threshold → clears immediately");
        assert_eq!(r3.rules[0].streak, 0);
    }

    #[test]
    fn violation_ratio_uses_deltas_between_evaluations() {
        let mut ev = HealthEvaluator::new(vec![Rule::new(
            "violation_storm",
            Signal::ViolationRatio,
            0.5,
            1,
        )]);
        // Quiet history: 1000 checks, 10 violations.
        let r1 = ev.evaluate(&snap_with(0, 1000, 10), 1.0);
        assert!(r1.ok());
        // Next window: +100 checks, +90 violations → ratio 0.9 even though
        // the cumulative ratio is still under 10%.
        let r2 = ev.evaluate(&snap_with(0, 1100, 100), 1.0);
        assert_eq!(r2.verdict, "degraded");
        assert!((r2.signals.violation_ratio - 0.9).abs() < 1e-12);
        assert!((r2.signals.violation_rate - 90.0).abs() < 1e-9);
    }

    #[test]
    fn shard_skew_from_labeled_intake() {
        let reg = MetricsRegistry::new();
        reg.counter(&crate::labeled("runtime.tuples_in", &[("shard", "0")])).set(300);
        reg.counter(&crate::labeled("runtime.tuples_in", &[("shard", "1")])).set(100);
        let mut ev = HealthEvaluator::new(vec![Rule::new("skew", Signal::ShardSkew, 1.4, 1)]);
        let r = ev.evaluate(&reg.snapshot(), 1.0);
        // max 300 / mean 200 = 1.5
        assert!((r.signals.shard_skew - 1.5).abs() < 1e-12);
        assert_eq!(r.verdict, "degraded");
    }

    #[test]
    fn report_json_is_machine_parseable() {
        let mut ev = HealthEvaluator::with_defaults();
        let json = ev.evaluate(&snap_with(0, 100, 1), 1.0).to_json();
        assert!(json.contains("\"verdict\": \"ok\""), "{json}");
        assert!(json.contains("\"queue_saturated\""), "{json}");
        assert!(json.contains("\"signals\""), "{json}");
    }
}
