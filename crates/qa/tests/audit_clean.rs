//! Zero-false-positive guard for the live shadow auditor: every corpus
//! seed (real regression cases spanning chains, joins and aggregates)
//! replayed with `audit_rate = 1` and an honest calibration must finish
//! with zero breaches. The auditor re-derives the validator's own
//! promises on the suppressed path and reuses the oracle's margin-gated
//! aggregate comparison, so a clean engine must audit clean — any breach
//! here is an auditor bug, not stream noise.

use pulse_core::{Heuristic, Predictor, PulseRuntime, RuntimeConfig};
use pulse_qa::{parse_seeds, Case};
use pulse_stream::Calibration;
use pulse_workload::{tracks, TrackSet};

#[test]
fn corpus_seeds_audit_clean() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut seeds = Vec::new();
    for entry in std::fs::read_dir(corpus).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "seed") {
            seeds.extend(parse_seeds(&std::fs::read_to_string(&path).expect("read seed file")));
        }
    }
    assert!(!seeds.is_empty(), "corpus must contain seeds");

    let mut total_checks = 0u64;
    let mut audited_cases = 0u64;
    for &seed in &seeds {
        let case = Case::from_seed(seed);
        let (lp, _sink) = case.plan.to_logical();
        let tr = TrackSet::generate(case.stream.tracks.clone(), case.stream.duration);
        let noise = case.stream.tracks.noise;
        let cfg = RuntimeConfig {
            horizon: case.stream.horizon,
            bound: case.stream.bound,
            heuristic: Heuristic::Equi,
            audit_rate: 1,
            calibration: Calibration {
                noise,
                max_slope: case.stream.tracks.max_slope,
                sample_dt: case.stream.tracks.sample_dt,
                max_abs: tr.max_abs() + noise,
            },
            ..Default::default()
        };
        let Ok(mut rt) = PulseRuntime::with_predictors(
            vec![Predictor::Clause(tracks::stream_model())],
            &lp,
            cfg,
        ) else {
            continue; // untransformable plans are the oracle's concern
        };
        for t in &tr.tuples() {
            rt.on_tuple(0, t);
        }
        let l = rt.audit_ledger().expect("auditor on");
        assert_eq!(
            l.breaches, 0,
            "seed {seed}: clean run must audit clean, last breach {:?}",
            l.last_breach
        );
        total_checks += l.checks;
        audited_cases += 1;
    }
    assert!(audited_cases > 0, "at least one corpus case must run");
    assert!(total_checks > 0, "the auditor must actually compare something");
}
