//! Hash-based group-by wrapper (Fig. 3's last row): per-group state and an
//! independent operator instance for each key.

use super::{COperator, Emitter};
use crate::keymap::KeyMap;
use pulse_model::Segment;
use pulse_obs::Tracer;
use pulse_stream::OpMetrics;
use std::any::Any;

/// Routes segments to a per-key instance of an inner continuous operator.
pub struct CGroupBy {
    factory: Box<dyn Fn(u64) -> Box<dyn COperator>>,
    groups: KeyMap<u64, Box<dyn COperator>>,
}

impl CGroupBy {
    /// `factory` builds the per-group operator (e.g. a [`super::CSumAvg`]).
    pub fn new(factory: Box<dyn Fn(u64) -> Box<dyn COperator>>) -> Self {
        CGroupBy { factory, groups: KeyMap::default() }
    }

    /// Number of active groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Access to one group's operator (for sampling helpers).
    pub fn group(&self, key: u64) -> Option<&dyn COperator> {
        self.groups.get(&key).map(|b| b.as_ref())
    }

    /// Keys of active groups.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.groups.keys().copied()
    }
}

impl COperator for CGroupBy {
    /// Grouped operators report under the inner operator's name (a grouped
    /// min/max is still `cops.minmax.*`) — the grouping is transparent.
    fn name(&self) -> &'static str {
        self.groups.values().next().map_or("groupby", |g| g.name())
    }

    fn process(&mut self, input: usize, seg: &Segment, tr: &mut Tracer, out: &mut Emitter<'_>) {
        let op = self.groups.entry(seg.key).or_insert_with(|| (self.factory)(seg.key));
        op.process(input, seg, tr, out);
    }

    fn metrics(&self) -> OpMetrics {
        let mut m = OpMetrics::default();
        for g in self.groups.values() {
            m.absorb(&g.metrics());
        }
        m
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cops::CSumAvg;
    use crate::cops::Feed;
    use crate::lineage::LineageStore;
    use pulse_math::{Poly, Span};

    #[test]
    fn groups_are_independent() {
        let (mut store, mut tr) = (LineageStore::default(), Tracer::off());
        let mut g = CGroupBy::new(Box::new(|_| Box::new(CSumAvg::new(true, 0, 2.0))));
        let a = Segment::single(1, Span::new(0.0, 10.0), Poly::constant(4.0));
        let b = Segment::single(2, Span::new(0.0, 10.0), Poly::constant(8.0));
        let mut out = Vec::new();
        for s in [&a, &b] {
            g.feed(0, s, &mut store, &mut tr, &mut out);
        }
        assert_eq!(g.group_count(), 2);
        assert_eq!(out.len(), 2);
        let k1 = out.iter().find(|s| s.key == 1).unwrap();
        let k2 = out.iter().find(|s| s.key == 2).unwrap();
        assert!((k1.models[0].eval(5.0) - 4.0).abs() < 1e-9);
        assert!((k2.models[0].eval(5.0) - 8.0).abs() < 1e-9);
        // Both groups record into the one store, each from its own input.
        assert_eq!(store.parents_of(k1.id), &[a.id]);
        assert_eq!(store.parents_of(k2.id), &[b.id]);
        assert_eq!(g.metrics().items_in, 2);
    }
}
