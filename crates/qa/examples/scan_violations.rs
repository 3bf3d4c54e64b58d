//! Scratch scanner: violation counts per case seed (corpus curation).

use pulse_core::{Heuristic, Predictor, PulseRuntime, RuntimeConfig};
use pulse_qa::Case;
use pulse_workload::{tracks, TrackSet};

fn main() {
    let mut rows = Vec::new();
    for seed in 0..200u64 {
        let case = Case::from_seed(seed);
        let (lp, _) = case.plan.to_logical();
        let tr = TrackSet::generate(case.stream.tracks.clone(), case.stream.duration);
        let cfg = RuntimeConfig {
            horizon: case.stream.horizon,
            bound: case.stream.bound,
            heuristic: Heuristic::Equi,
            ..Default::default()
        };
        let Ok(mut rt) = PulseRuntime::with_predictors(
            vec![Predictor::Clause(tracks::stream_model())],
            &lp,
            cfg,
        ) else {
            continue;
        };
        for t in &tr.tuples() {
            rt.on_tuple(0, t);
        }
        let s = rt.stats();
        rows.push((s.violations, seed, format!("{:?}", case.kind()), lp.is_key_partitionable()));
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.0));
    for (v, seed, kind, part) in rows.iter().take(12) {
        println!("seed {seed:>4}  violations {v:>6}  kind {kind:<8} partitionable {part}");
    }
}
