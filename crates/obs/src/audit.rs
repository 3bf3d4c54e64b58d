//! Per-key guarantee ledgers for the live shadow auditor.
//!
//! The runtime's auditor (crates/core) samples a deterministic key subset,
//! replays their raw tuples through a discrete reference evaluator, and
//! reports each comparison here as raw numbers: observed deviation against
//! the allowance the shared tolerance model granted at that instant. This
//! module only does the bookkeeping — per-key SLO ledgers, the merged
//! roll-up across shards, and the `/audit` JSON summary — so it can sit at
//! the bottom of the crate stack with no knowledge of models or plans.
//!
//! A *breach* is a strict violation: deviation exceeding the allowance.
//! *Headroom* is the unconsumed fraction of the allowance in basis points
//! (10000 = exact answer, 0 = allowance fully consumed or breached);
//! tracking its minimum per key turns ε from a static promise into a
//! measured per-key SLO.

use std::collections::HashMap;

use serde::Value;

/// The offending observation of the most recent strict violation.
#[derive(Debug, Clone, PartialEq)]
pub struct BreachRecord {
    pub key: u64,
    /// Stream time of the compared instant.
    pub t: f64,
    /// Observed deviation from the reference.
    pub observed: f64,
    /// The allowance that was promised (and exceeded).
    pub bound: f64,
}

/// One audited key's running guarantee ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyLedger {
    /// Comparisons performed.
    pub checks: u64,
    /// Instants the comparator declined (partial window, disturbance,
    /// non-continuous aggregate, no validation verdict).
    pub skips: u64,
    /// Strict violations.
    pub breaches: u64,
    /// Worst headroom seen, in basis points (10000 until first check).
    pub min_headroom_bp: u64,
    pub last_deviation: f64,
    pub last_allowance: f64,
    /// Stream time of the most recent check.
    pub last_t: f64,
}

impl Default for KeyLedger {
    fn default() -> Self {
        KeyLedger {
            checks: 0,
            skips: 0,
            breaches: 0,
            min_headroom_bp: 10000,
            last_deviation: 0.0,
            last_allowance: 0.0,
            last_t: f64::NEG_INFINITY,
        }
    }
}

/// Headroom in basis points: the unconsumed fraction of the allowance.
fn headroom_bp(deviation: f64, allowance: f64) -> u64 {
    if allowance <= 0.0 {
        return 0;
    }
    (((1.0 - deviation / allowance).max(0.0)) * 10000.0).min(10000.0) as u64
}

/// The guarantee ledger: per-key SLO state plus global roll-ups. Cloned
/// out of shard workers and merged with [`AuditLedger::absorb`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditLedger {
    keys: HashMap<u64, KeyLedger>,
    pub checks: u64,
    pub skips: u64,
    pub breaches: u64,
    headroom_sum: u64,
    pub last_breach: Option<BreachRecord>,
}

impl AuditLedger {
    /// Records one comparison; returns whether it was a strict violation.
    pub fn check(&mut self, key: u64, t: f64, deviation: f64, allowance: f64) -> bool {
        let hb = headroom_bp(deviation, allowance);
        let breach = deviation > allowance;
        let k = self.keys.entry(key).or_default();
        k.checks += 1;
        k.min_headroom_bp = k.min_headroom_bp.min(hb);
        k.last_deviation = deviation;
        k.last_allowance = allowance;
        k.last_t = t;
        self.checks += 1;
        self.headroom_sum += hb;
        if breach {
            k.breaches += 1;
            self.breaches += 1;
            self.last_breach = Some(BreachRecord { key, t, observed: deviation, bound: allowance });
        }
        breach
    }

    /// Records one declined comparison for an audited key.
    pub fn skip(&mut self, key: u64) {
        self.keys.entry(key).or_default().skips += 1;
        self.skips += 1;
    }

    /// Number of distinct keys that produced at least one check or skip.
    pub fn audited_keys(&self) -> usize {
        self.keys.len()
    }

    /// Ledger of one key, if it was audited.
    pub fn key(&self, key: u64) -> Option<&KeyLedger> {
        self.keys.get(&key)
    }

    /// Mean headroom over all checks, in basis points.
    pub fn mean_headroom_bp(&self) -> u64 {
        if self.checks == 0 {
            return 10000;
        }
        self.headroom_sum / self.checks
    }

    /// Merges another shard's ledger into this one.
    pub fn absorb(&mut self, other: &AuditLedger) {
        for (key, o) in &other.keys {
            let k = self.keys.entry(*key).or_default();
            k.checks += o.checks;
            k.skips += o.skips;
            k.breaches += o.breaches;
            k.min_headroom_bp = k.min_headroom_bp.min(o.min_headroom_bp);
            if o.last_t >= k.last_t {
                k.last_deviation = o.last_deviation;
                k.last_allowance = o.last_allowance;
                k.last_t = o.last_t;
            }
        }
        self.checks += other.checks;
        self.skips += other.skips;
        self.breaches += other.breaches;
        self.headroom_sum += other.headroom_sum;
        match (&self.last_breach, &other.last_breach) {
            (Some(a), Some(b)) if b.t >= a.t => self.last_breach = other.last_breach.clone(),
            (None, Some(_)) => self.last_breach = other.last_breach.clone(),
            _ => {}
        }
    }

    /// The `k` keys in worst shape: most breaches first, then least
    /// minimum headroom, then key for determinism.
    pub fn worst(&self, k: usize) -> Vec<(u64, KeyLedger)> {
        let mut v: Vec<_> = self.keys.iter().map(|(key, l)| (*key, *l)).collect();
        v.sort_by(|a, b| {
            b.1.breaches
                .cmp(&a.1.breaches)
                .then(a.1.min_headroom_bp.cmp(&b.1.min_headroom_bp))
                .then(a.0.cmp(&b.0))
        });
        v.truncate(k);
        v
    }

    /// The `/audit` JSON document: global roll-up + worst-K key table.
    pub fn summary_json(&self, worst_k: usize) -> String {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let worst: Vec<Value> = self
            .worst(worst_k)
            .into_iter()
            .map(|(key, l)| {
                obj(vec![
                    ("key", Value::U64(key)),
                    ("checks", Value::U64(l.checks)),
                    ("skips", Value::U64(l.skips)),
                    ("breaches", Value::U64(l.breaches)),
                    ("min_headroom_bp", Value::U64(l.min_headroom_bp)),
                    ("last_deviation", Value::F64(l.last_deviation)),
                    ("last_allowance", Value::F64(l.last_allowance)),
                    ("last_t", Value::F64(l.last_t.max(f64::MIN))),
                ])
            })
            .collect();
        let last_breach = match &self.last_breach {
            None => Value::Null,
            Some(b) => obj(vec![
                ("key", Value::U64(b.key)),
                ("t", Value::F64(b.t)),
                ("observed", Value::F64(b.observed)),
                ("bound", Value::F64(b.bound)),
            ]),
        };
        let doc = obj(vec![
            ("audited_keys", Value::U64(self.audited_keys() as u64)),
            ("checks", Value::U64(self.checks)),
            ("skips", Value::U64(self.skips)),
            ("breaches", Value::U64(self.breaches)),
            ("mean_headroom_bp", Value::U64(self.mean_headroom_bp())),
            ("worst", Value::Array(worst)),
            ("last_breach", last_breach),
        ]);
        serde_json::to_string(&doc).expect("audit summary serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_tracks_headroom_and_breaches() {
        let mut l = AuditLedger::default();
        assert!(!l.check(7, 1.0, 0.25, 1.0)); // 7500 bp headroom
        assert!(!l.check(7, 2.0, 0.5, 1.0)); // 5000 bp
        assert!(l.check(7, 3.0, 2.0, 1.0)); // breach
        l.skip(9);
        assert_eq!(l.audited_keys(), 2);
        assert_eq!((l.checks, l.skips, l.breaches), (3, 1, 1));
        let k = l.key(7).unwrap();
        assert_eq!(k.min_headroom_bp, 0);
        assert_eq!(k.breaches, 1);
        assert_eq!(k.last_t, 3.0);
        let b = l.last_breach.as_ref().unwrap();
        assert_eq!((b.key, b.t), (7, 3.0));
        assert_eq!(l.mean_headroom_bp(), (7500 + 5000) / 3);
        // Zero allowance has no headroom but only breaches on positive
        // deviation.
        let mut z = AuditLedger::default();
        assert!(!z.check(1, 0.0, 0.0, 0.0));
        assert_eq!(z.key(1).unwrap().min_headroom_bp, 0);
    }

    #[test]
    fn absorb_merges_per_key_and_global() {
        let mut a = AuditLedger::default();
        a.check(1, 1.0, 0.1, 1.0);
        a.skip(2);
        let mut b = AuditLedger::default();
        b.check(1, 2.0, 0.9, 1.0);
        b.check(3, 0.5, 3.0, 1.0); // breach at t=0.5
        a.absorb(&b);
        assert_eq!(a.audited_keys(), 3);
        assert_eq!((a.checks, a.skips, a.breaches), (3, 1, 1));
        let k = a.key(1).unwrap();
        assert_eq!(k.checks, 2);
        // 1 − 0.9 rounds below 0.1 in binary, so the bp floor is 999.
        assert_eq!(k.min_headroom_bp, 999);
        assert_eq!(k.last_t, 2.0); // b's later check wins
        assert_eq!(a.last_breach.as_ref().unwrap().key, 3);
        // Absorbing an older breach keeps the newer one.
        let mut c = AuditLedger::default();
        c.check(4, 0.1, 2.0, 1.0);
        c.absorb(&a);
        assert_eq!(c.last_breach.as_ref().unwrap().key, 3);
        assert_eq!(c.breaches, 2);
    }

    #[test]
    fn worst_orders_by_breaches_then_headroom() {
        let mut l = AuditLedger::default();
        l.check(1, 1.0, 0.1, 1.0); // 9000 bp, clean
        l.check(2, 1.0, 0.8, 1.0); // 2000 bp, clean
        l.check(3, 1.0, 5.0, 1.0); // breach
        let w = l.worst(2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, 3);
        assert_eq!(w[1].0, 2);
        assert_eq!(l.worst(10).len(), 3);
    }

    #[test]
    fn summary_json_shape() {
        let mut l = AuditLedger::default();
        l.check(5, 1.0, 0.5, 1.0);
        l.check(5, 2.0, 4.0, 2.0);
        let json = l.summary_json(8);
        let doc = serde_json::parse_value(&json).expect("valid JSON");
        assert_eq!(doc.get("audited_keys").and_then(Value::as_u64), Some(1));
        assert_eq!(doc.get("checks").and_then(Value::as_u64), Some(2));
        assert_eq!(doc.get("breaches").and_then(Value::as_u64), Some(1));
        let worst = doc.get("worst").and_then(Value::as_array).unwrap();
        assert_eq!(worst.len(), 1);
        assert_eq!(worst[0].get("key").and_then(Value::as_u64), Some(5));
        let lb = doc.get("last_breach").unwrap();
        assert_eq!(lb.get("t").and_then(Value::as_f64), Some(2.0));
        // Clean ledger: null last_breach, empty worst table.
        let empty = AuditLedger::default().summary_json(4);
        let doc = serde_json::parse_value(&empty).unwrap();
        assert_eq!(doc.get("last_breach"), Some(&Value::Null));
        assert_eq!(doc.get("worst").and_then(Value::as_array).map(<[Value]>::len), Some(0));
    }
}
