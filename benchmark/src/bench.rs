//! The two passes of a benchmark run and the metrics they report.
//!
//! The timed pass runs with every `pulse_obs` toggle and the shadow
//! auditor off and reports the end-to-end metrics, its times at the
//! reference host speed (see [`crate::calib`]). The traced pass runs in
//! a process of its own with metrics and the phase profiler on, records
//! spans around every call into a layer, and reports the per-layer
//! metrics. Both replay complete streams on fresh runtimes until one more
//! replay would overrun the run's time budget (at least one replay).

use crate::calib::Speed;
use crate::check::Fingerprint;
use crate::replay::{replay, setup_once, Replay};
use crate::spans::SpanLog;
use crate::sys;
use crate::workloads::Workload;
use pulse_obs::Phase;
use std::time::Instant;

/// Prefix workers of the hybrid workload: with the caller thread running
/// routing and the merge stage, two threads in all.
pub const HYBRID_WORKERS: usize = 1;

/// Worker count of the untimed hybrid cross-check, whose results must
/// equal the timed run's.
pub const CHECK_WORKERS: usize = 2;

/// 1-in-N key sample of the shadow auditor in the untimed audit rerun.
pub const AUDIT_RATE: u64 = 64;

/// Set-ups (build, then tear down untimed) taken before the first replay,
/// and before each later one.
const SETUPS_FIRST: usize = 101;
const SETUPS_BETWEEN: usize = 11;

/// Operator nodes across all workloads; a workload reports 0 for nodes
/// its plan does not have.
const NODES: [&str; 5] = ["avg_short", "avg_long", "join", "map", "min"];
const NODE_FIELDS: [&str; 3] = ["items_in", "items_out", "systems_solved"];

/// What a run asks for.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// Shrunken streams for the benchmark's own tests.
    pub tiny: bool,
}

/// A pass's result: the output checks, the counts and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub failures: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra facts for the result record, as rendered JSON values.
    pub meta: Vec<(&'static str, String)>,
    pub fingerprint: Fingerprint,
}

impl Outcome {
    fn expect(&mut self, ok: bool, what: String) {
        if !ok {
            self.failures.push(what);
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("{}: {{\"value\": {}, \"unit\": {}}}", js(n), num(*v), js(u)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record: workload, seed, host and code identity, checks.
    pub fn meta_line(&self, opts: &Opts, trace: bool, replays: usize) -> String {
        let w = opts.workload;
        let shape = w.shape(opts.tiny);
        let threads = if w.is_hybrid() { HYBRID_WORKERS + 1 } else { 1 };
        let nproc = sys::nproc();
        let mut fields: Vec<(&str, String)> = vec![
            ("workload", js(w.name())),
            ("seed", opts.seed.to_string()),
            ("seconds", opts.seconds.to_string()),
            ("trace", (trace as u8).to_string()),
            ("tiny", opts.tiny.to_string()),
            ("symbols", shape.symbols.to_string()),
            ("stream_seconds", num(shape.seconds)),
            ("nproc", nproc.to_string()),
            ("threads", threads.to_string()),
            ("oversubscribed", (threads > nproc).to_string()),
            ("commit", js(&sys::commit())),
            ("source_digest", js(&sys::source_digest())),
            ("replays", replays.to_string()),
            ("fingerprint", js(&self.fingerprint.to_hex())),
            (
                "failures",
                format!("[{}]", self.failures.iter().map(|f| js(f)).collect::<Vec<_>>().join(", ")),
            ),
        ];
        fields.extend(self.meta.iter().map(|(k, v)| (*k, v.clone())));
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", js(k))).collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON string literal (names and messages here need only these escapes).
fn js(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number; non-finite values (never expected) render as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns the -0 of an empty float sum into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Consecutive emission groups per latency block: a block's p90 keeps 10
/// samples beyond it.
const LATENCY_BLOCK: usize = 100;

/// The latency blocks of a run: `LATENCY_BLOCK` consecutive groups each,
/// in replay order, a trailing partial block dropped (the whole run is one
/// block when it is shorter than that).
fn latency_blocks(groups: &[u64]) -> Vec<&[u64]> {
    if groups.len() < LATENCY_BLOCK {
        return vec![groups];
    }
    groups.chunks_exact(LATENCY_BLOCK).collect()
}

/// Percentile `p` of each latency block, averaged over the blocks.
fn block_percentile(blocks: &[&[u64]], p: f64) -> f64 {
    let mut sorted = Vec::with_capacity(LATENCY_BLOCK);
    let sum: f64 = blocks
        .iter()
        .map(|b| {
            sorted.clear();
            sorted.extend_from_slice(b);
            sorted.sort_unstable();
            percentile(&sorted, p) as f64
        })
        .sum();
    sum / blocks.len() as f64
}

/// Mean group time of the last quarter of a replay over that of its
/// second quarter: how much per-group cost grows as state builds up.
fn late_over_early(group_ns: &[u64]) -> f64 {
    let q = group_ns.len() / 4;
    if q == 0 {
        return 0.0;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    mean(&group_ns[3 * q..]) / mean(&group_ns[q..2 * q])
}

/// Adds replays of `input` on fresh runtimes after `first` until one more
/// would overrun `seconds`. With `setups`, samples set-up times before
/// each added replay.
fn measure(
    opts: &Opts,
    input: &[(usize, pulse_model::Tuple)],
    first: Replay,
    log: &mut SpanLog,
    speed: &mut Speed,
    mut setups: Option<&mut Vec<Setup>>,
) -> Vec<Replay> {
    let w = opts.workload;
    let t = Instant::now();
    let first_s = first.wall_s;
    let mut out = vec![first];
    loop {
        let elapsed = first_s + t.elapsed().as_secs_f64();
        if elapsed * (out.len() + 1) as f64 / out.len() as f64 > opts.seconds as f64 {
            return out;
        }
        if let Some(s) = setups.as_deref_mut() {
            sample_setups(opts, SETUPS_BETWEEN, speed, s);
        }
        out.push(replay(w, input, w.config(opts.tiny, 0), HYBRID_WORKERS, log, speed));
    }
}

/// One set-up's time in seconds: as measured, and at the reference speed.
#[derive(Debug, Clone, Copy)]
struct Setup {
    wall_s: f64,
    ref_s: f64,
}

/// Probes the host's speed, then samples `n` set-ups.
fn sample_setups(opts: &Opts, n: usize, speed: &mut Speed, into: &mut Vec<Setup>) {
    let w = opts.workload;
    speed.probe_now();
    into.extend((0..n).map(|_| {
        let wall_s = setup_once(w, w.config(opts.tiny, 0), HYBRID_WORKERS);
        Setup { wall_s, ref_s: wall_s / speed.slowdown() }
    }));
}

/// Checks every replay of a pass: each counted every generated tuple,
/// produced results, and matched the reference fingerprint.
fn check_replays(o: &mut Outcome, w: Workload, replays: &[Replay], reference: Fingerprint) {
    for (i, r) in replays.iter().enumerate() {
        o.expect(
            r.stats.tuples_in == r.tuples as u64,
            format!("replay {i}: tuples_in {} != {} generated", r.stats.tuples_in, r.tuples),
        );
        o.expect(r.stats.outputs > 0, format!("replay {i}: no outputs"));
        if w.is_hybrid() {
            o.expect(r.merge_out > 0, format!("replay {i}: merge stage emitted nothing"));
        }
        o.expect(
            r.fingerprint == reference,
            format!("replay {i}: fingerprint {} != {}", r.fingerprint.to_hex(), reference.to_hex()),
        );
        o.attempted += r.tuples as u64;
        o.failed += r.stats.model_errors + (r.tuples as u64).saturating_sub(r.stats.tuples_in);
    }
}

/// The timed pass: end-to-end metrics plus the untimed output checks.
pub fn timed_pass(opts: &Opts) -> (Outcome, usize) {
    let w = opts.workload;
    let rss0 = sys::vm_mb("VmRSS").unwrap_or(0.0);
    let input = w.generate(opts.seed, opts.tiny);
    let input_mb = sys::vm_mb("VmRSS").unwrap_or(0.0) - rss0;
    let mut o = Outcome::default();
    o.expect(sys::reset_peak_rss(), "cannot reset the peak-RSS mark".into());

    let mut speed = Speed::measure();
    let mut setups = Vec::new();
    sample_setups(opts, SETUPS_FIRST, &mut speed, &mut setups);
    // Peak memory covers the set-ups and the first replay only: later
    // replays would add allocator fragmentation in proportion to how many
    // fit in the time budget, i.e. to speed.
    let cfg = || w.config(opts.tiny, 0);
    let first = replay(w, &input, cfg(), HYBRID_WORKERS, &mut SpanLog::off(), &mut speed);
    let peak_rss_mb = sys::vm_mb("VmHWM").unwrap_or(0.0) - input_mb;
    let replays = measure(opts, &input, first, &mut SpanLog::off(), &mut speed, Some(&mut setups));

    o.fingerprint = replays[0].fingerprint;
    let reference = o.fingerprint;
    check_replays(&mut o, w, &replays, reference);
    // Untimed checks on a second replay of the same input.
    if w.is_hybrid() {
        let r = replay(w, &input, cfg(), CHECK_WORKERS, &mut SpanLog::off(), &mut speed);
        o.expect(
            r.fingerprint == o.fingerprint,
            format!(
                "{CHECK_WORKERS}-worker fingerprint {} != {}",
                r.fingerprint.to_hex(),
                o.fingerprint.to_hex()
            ),
        );
        let threads = CHECK_WORKERS + 1;
        o.meta.push(("check_threads", threads.to_string()));
        o.meta.push(("check_oversubscribed", (threads > sys::nproc()).to_string()));
    } else {
        let audited = w.config(opts.tiny, AUDIT_RATE);
        let r = replay(w, &input, audited, 1, &mut SpanLog::off(), &mut speed);
        o.expect(
            r.audit_breaches == Some(0),
            format!("audit at 1-in-{AUDIT_RATE}: {:?} breaches", r.audit_breaches),
        );
        o.expect(
            r.fingerprint == o.fingerprint,
            format!("audited fingerprint {} != {}", r.fingerprint.to_hex(), o.fingerprint.to_hex()),
        );
        o.meta.push(("audit_breaches", r.audit_breaches.unwrap_or(u64::MAX).to_string()));
    }

    // The metrics take times at the reference speed; `meta` has the same
    // figures from wall times. Calibration takes out most of the host's
    // drift but not all: in a slow regime a run's group latencies still
    // fall in two modes, and a percentile over all groups pooled (or a
    // median over replays) would jump between them as the slow share
    // crosses its rank. Throughput over all replays together, and the
    // percentiles of short blocks of consecutive groups averaged over the
    // blocks, move smoothly with that share instead.
    let tuples = replays.iter().map(|r| r.tuples).sum::<usize>() as f64;
    let wall_s: f64 = replays.iter().map(|r| r.wall_s).sum();
    let ref_wall_s: f64 = replays.iter().map(|r| r.ref_wall_s).sum();
    let groups: Vec<u64> = replays.iter().flat_map(|r| r.group_ns.iter().copied()).collect();
    let ref_groups: Vec<u64> =
        replays.iter().flat_map(|r| r.ref_group_ns.iter().copied()).collect();
    let (blocks, ref_blocks) = (latency_blocks(&groups), latency_blocks(&ref_groups));
    o.metric("tuples_per_s", tuples / ref_wall_s, "1/s");
    o.metric("latency_p50_ms", block_percentile(&ref_blocks, 0.50) * 1e-6, "ms");
    o.metric("latency_p90_ms", block_percentile(&ref_blocks, 0.90) * 1e-6, "ms");
    // Set-up takes microseconds and swings about 2x with the host's regime
    // even after calibration, so a run's median flips between regimes. The
    // fastest set-up, sampled before every replay, is the set-up's own cost.
    let fastest = |f: fn(&Setup) -> f64| setups.iter().map(f).fold(f64::INFINITY, f64::min);
    o.metric("setup_s", fastest(|s| s.ref_s), "s");
    o.metric("peak_rss_mb", peak_rss_mb, "MB");
    o.meta.push(("wall_tuples_per_s", num(tuples / wall_s)));
    o.meta.push(("wall_latency_p50_ms", num(block_percentile(&blocks, 0.50) * 1e-6)));
    o.meta.push(("wall_latency_p90_ms", num(block_percentile(&blocks, 0.90) * 1e-6)));
    o.meta.push(("wall_setup_s", num(fastest(|s| s.wall_s))));
    o.meta.push(("slowdown", num(wall_s / ref_wall_s)));
    o.meta.push(("speed_probes", speed.probes().to_string()));
    o.meta.push(("tuples", input.len().to_string()));
    let tps = replays.iter().map(Replay::tuples_per_s);
    let (lo, hi) = tps.fold((f64::INFINITY, 0.0f64), |(l, h), v| (l.min(v), h.max(v)));
    o.meta.push(("replay_tuples_per_s_min", num(lo)));
    o.meta.push(("replay_tuples_per_s_max", num(hi)));
    o.meta.push(("latency_samples", groups.len().to_string()));
    o.meta.push(("latency_blocks", blocks.len().to_string()));
    o.meta.push(("latency_samples_per_replay", replays[0].group_ns.len().to_string()));
    o.meta.push(("setup_samples", setups.len().to_string()));
    o.meta.push(("input_mb", num(input_mb)));
    o.meta.push(("failed_frac", num(o.failed as f64 / o.attempted as f64)));
    (o, replays.len())
}

/// The traced pass: per-layer metrics, from wall times. `untraced` is the
/// timed pass of the same seed, run in another process: its fingerprint is
/// the reference and its wall-time throughput the base of
/// `obs.overhead_frac`.
pub fn traced_pass(opts: &Opts, untraced: (Fingerprint, f64)) -> (Outcome, usize) {
    let w = opts.workload;
    let input = w.generate(opts.seed, opts.tiny);
    pulse_obs::set_enabled(true);
    pulse_obs::set_prof_enabled(true);
    let before = pulse_obs::global().snapshot();
    let mut log = SpanLog::on();
    let mut speed = Speed::measure();
    let first = replay(w, &input, w.config(opts.tiny, 0), HYBRID_WORKERS, &mut log, &mut speed);
    let replays = measure(opts, &input, first, &mut log, &mut speed, None);
    let delta = pulse_obs::global().snapshot().delta(&before);
    pulse_obs::set_enabled(false);
    pulse_obs::set_prof_enabled(false);

    let mut o = Outcome { fingerprint: untraced.0, ..Outcome::default() };
    check_replays(&mut o, w, &replays, untraced.0);
    let n = replays.len() as f64;
    let hist = |name: &str| {
        delta.histogram(name).cloned().unwrap_or_else(|| {
            pulse_obs::HistogramSnapshot::from_buckets(
                name.into(),
                vec![0; pulse_obs::BUCKETS],
                0,
                0,
            )
        })
    };
    let mut phases = pulse_obs::PhaseTable::default();
    for r in &replays {
        phases.absorb(&r.phases);
    }
    let phase_s = |p: Phase| phases.ns(p) as f64 * 1e-9 / n;
    let sum = |f: &dyn Fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let per = |f: &dyn Fn(&Replay) -> u64| sum(f) / n;

    let busy_s = ["runtime.on_pairs", "hybrid.route", "hybrid.sync", "hybrid.finish"]
        .iter()
        .map(|s| log.total_s(s))
        .sum::<f64>()
        / n;
    let violation_path_s = hist("runtime.violation_path_ns").sum_ns as f64 * 1e-9 / n;
    let hybrid = w.is_hybrid();
    o.metric("runtime.busy_s", busy_s, "s");
    let loe: Vec<f64> = replays.iter().map(|r| late_over_early(&r.group_ns)).collect();
    o.metric("runtime.late_over_early", median(&loe), "ratio");
    o.metric("runtime.violation_path_s", violation_path_s, "s");
    o.metric("runtime.drain_s", phase_s(Phase::SolveBatchDrain), "s");
    // On the hybrid workload the violation path runs on the worker while
    // `busy_s` is the caller's time, so their difference means nothing.
    let fast = if hybrid { 0.0 } else { (busy_s - violation_path_s).max(0.0) };
    o.metric("runtime.fast_path_s", fast, "s");
    o.metric("validate.fast_path_p50_ns", hist("runtime.fast_path_ns").p50_ns as f64, "ns");
    let tuples_in = sum(&|r| r.stats.tuples_in);
    o.metric(
        "runtime.suppressed_frac",
        sum(&|r| r.stats.suppressed) / tuples_in.max(1.0),
        "fraction",
    );
    o.metric("runtime.violations", per(&|r| r.stats.violations), "count");
    o.metric("runtime.outputs", per(&|r| r.stats.outputs), "count");
    o.metric("validate.checks", per(&|r| r.validator.checks), "count");
    o.metric("model.remodel_s", phase_s(Phase::RemodelFit), "s");
    o.metric("model.substitute_s", phase_s(Phase::TemplateSubstitute), "s");
    o.metric("math.isolate_s", phase_s(Phase::RootIsolate), "s");
    o.metric("math.assemble_s", phase_s(Phase::SolveAssemble), "s");
    o.metric("math.sturm_s", phase_s(Phase::SolveSturm), "s");
    o.metric("math.refine_s", phase_s(Phase::SolveRefine), "s");
    o.metric("plan.glue_s", phase_s(Phase::Solve), "s");
    o.metric("validate.invert_s", phase_s(Phase::Emit), "s");
    let names = w.node_names();
    for node in NODES {
        let idx = names.iter().position(|n| *n == node);
        for field in NODE_FIELDS {
            let v = idx.map_or(0.0, |i| {
                per(&|r| {
                    r.nodes[i].fields().iter().find(|(f, _)| *f == field).map_or(0, |(_, v)| *v)
                })
            });
            o.metric(&format!("cops.{node}.{field}"), v, "count");
        }
    }
    let join_yield = names
        .iter()
        .position(|n| *n == "join")
        .map_or(0.0, |i| sum(&|r| r.nodes[i].items_out) / sum(&|r| r.nodes[i].items_in).max(1.0));
    o.metric("cops.join.yield", join_yield, "ratio");
    o.metric("lineage.snapshots", per(&|r| r.lineage_snapshots as u64), "count");
    o.metric("lineage.gc_s", log.total_s("lineage.gc_before") / n, "s");
    o.metric("hybrid.route_s", log.total_s("hybrid.route") / n, "s");
    o.metric("hybrid.sync_s", log.total_s("hybrid.sync") / n, "s");
    o.metric("hybrid.finish_s", log.total_s("hybrid.finish") / n, "s");
    let merge_yield =
        if hybrid { sum(&|r| r.merge_out) / sum(&|r| r.stats.outputs).max(1.0) } else { 0.0 };
    o.metric("hybrid.merge_yield", merge_yield, "ratio");
    let traced_tps = replays.iter().map(|r| r.tuples).sum::<usize>() as f64
        / replays.iter().map(|r| r.wall_s).sum::<f64>();
    o.metric("obs.overhead_frac", 1.0 - traced_tps / untraced.1, "fraction");
    o.metric("failed_frac", o.failed as f64 / o.attempted.max(1) as f64, "fraction");

    let path = sys::out_dir().join(format!("spans-{}.csv", w.name()));
    match log.write_csv(&path) {
        Ok(()) => o.meta.push(("spans_file", js(&path.display().to_string()))),
        Err(e) => o.expect(false, format!("writing {}: {e}", path.display())),
    }
    o.meta.push(("tuples", input.len().to_string()));
    o.meta.push(("traced_tuples_per_s", num(traced_tps)));
    o.meta.push(("untraced_tuples_per_s", num(untraced.1)));
    o.meta.push(("spans", log.recorded().to_string()));
    (o, replays.len())
}
