//! Shard-scaling sweep for the predictive runtime.
//!
//! Runs a keyed NYSE-style MACD workload (thousands of symbols, adaptive
//! linear price models) through the single-threaded `PulseRuntime` and
//! `HybridRuntime::partitioned` at increasing shard counts, reporting
//! tuples/sec and ns/tuple per configuration. Results land in
//! `BENCH_scaling.json` at the repo root so the perf trajectory is tracked
//! across PRs.
//!
//! Key-partitioned sharding wins twice: shards run on separate cores, and
//! each shard's operator state only holds its own keys — the join/aggregate
//! candidate scans that dominate violation cost shrink with the shard
//! count, which is why speedups show up even on core-starved machines.
//!
//! Every configuration also runs with the violation-path profiler on and
//! reports the phase breakdown (validate → remodel-fit →
//! template-substitute → root-isolate → solve → emit) plus
//! `phase_coverage` — the share of histogram-measured violation-path time
//! the phase table attributes. The sweep asserts coverage ≥ 0.9 and
//! `outputs > 0` per row, so a silently-dead workload (windows longer
//! than the stream) fails loudly instead of reporting zeros.
//!
//! Env knobs: `PULSE_SCALING_TUPLES`, `PULSE_SCALING_SYMBOLS`,
//! `PULSE_SCALING_SHARDS` (comma-separated), `PULSE_SCALING_SMOKE=1` for a
//! seconds-long CI smoke run, `PULSE_SCALING_REPS=N` to run every
//! configuration N times and report the median-duration rep (what the
//! `bench_diff` regression gate compares — single runs on a shared/1-core
//! CI box swing far more than any real perf change), and
//! `PULSE_SCALING_COVERAGE_FLOOR` to relax the phase-coverage assertion
//! for runs measured under deliberate scrape contention.
//! `PULSE_SCALING_AUDIT_RATE` (default 64, 0 = off) sets the 1-in-N
//! deterministic symbol sample the live guarantee auditor shadow-compares
//! against a discrete reference evaluator; `/audit` serves the merged
//! per-key ledgers.
//!
//! Set `PULSE_SERVE_ADDR=127.0.0.1:9187` to expose `/metrics`, `/snapshot`,
//! `/timeseries`, `/watch`, `/trace.json`, `/explain`, `/audit`, `/health`
//! and `/profile` over HTTP while the sweep runs (phases tick the collector
//! every [`PUBLISH_EVERY`] tuples, feeding both the labelled counters and
//! the time-series history; `/trace.json` renders the live parallel
//! runtime's flight-recorder rings as a Perfetto-loadable Chrome trace);
//! `PULSE_SERVE_LINGER=<secs>` keeps the listener up after the sweep so
//! scrapers (CI curl, `pulse_top`) have a stable window. Every parallel
//! phase — sharded MACD and hybrid global min alike — installs its
//! explain handle and caches its rings and audit ledger when it ends, so
//! scrapes after the sweep read the last phase, the hybrid one.

use pulse_bench::measure::merge_feeds;
use pulse_bench::queries;
use pulse_core::runtime::Predictor;
use pulse_core::{ExplainHandle, HybridRuntime, PulseRuntime, RuntimeConfig, RuntimeStats};
use pulse_model::Tuple;
use pulse_stream::{partition_rewrite, AggFunc, LogicalOp, LogicalPlan, PortRef};
use pulse_workload::{nyse, NyseConfig, NyseGen};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `/explain` endpoint's route to whichever parallel runtime is live:
/// each parallel phase installs its handle, and clears it before finishing.
type ExplainSlot = Arc<Mutex<Option<ExplainHandle>>>;

/// Shared state behind the serving routes. `trace_cache` holds the last
/// completed parallel phase's rendered Chrome trace, so `/trace.json`
/// stays answerable between phases and through the linger window (the
/// live handle can't serve once its runtime finishes); `audit_cache`
/// does the same for the last phase's merged guarantee-audit ledger.
struct ServeCtx {
    slot: ExplainSlot,
    trace_cache: Arc<Mutex<Option<String>>>,
    audit_cache: Arc<Mutex<Option<String>>>,
}

struct Knobs {
    tuples: usize,
    symbols: usize,
    shards: Vec<usize>,
    smoke: bool,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn knobs() -> Knobs {
    let smoke = std::env::var("PULSE_SCALING_SMOKE").is_ok_and(|v| v == "1");
    let (tuples, symbols, shards) =
        if smoke { (20_000, 1_000, vec![1, 2]) } else { (120_000, 10_000, vec![1, 2, 4, 8]) };
    let shards = std::env::var("PULSE_SCALING_SHARDS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or(shards);
    Knobs {
        tuples: env_usize("PULSE_SCALING_TUPLES", tuples),
        symbols: env_usize("PULSE_SCALING_SYMBOLS", symbols),
        shards,
        smoke,
    }
}

/// Stream arrival rate (tuples per stream-second). The workload duration
/// follows from the tuple budget, and the MACD windows follow from the
/// duration — see [`macd_windows`].
const RATE: f64 = 3000.0;

fn stream_duration(k: &Knobs) -> f64 {
    k.tuples as f64 / RATE
}

/// MACD window parameters fitted to the stream duration. The classic
/// 10 s/60 s pair silently produced zero outputs on short sweeps: a 6.7 s
/// smoke stream ends before the first 60 s window ever closes, so the
/// aggregate never fires. Scale the long window to half the stream (capped
/// at 20 s) so every run closes many windows and `outputs` is a meaningful
/// column at any `PULSE_SCALING_TUPLES`.
fn macd_windows(duration: f64) -> (f64, f64, f64) {
    let long = (duration / 2.0).min(20.0);
    let short = long / 4.0;
    let slide = (long / 10.0).max(0.25);
    (short, long, slide)
}

/// The keyed workload: many symbols, visible tick noise so violations (and
/// therefore solver work) happen at a realistic clip.
fn workload(k: &Knobs) -> Vec<Tuple> {
    NyseGen::new(NyseConfig {
        symbols: k.symbols,
        rate: RATE,
        drift_duration: 2.0,
        tick_noise: 0.002,
        seed: 11,
    })
    .generate(stream_duration(k))
}

/// Flight-recorder ring per runtime when serving (a served run traces;
/// an unserved one records nothing).
const SERVED_TRACE_CAPACITY: usize = 16_384;

fn config(k: &Knobs, serving: bool) -> RuntimeConfig {
    RuntimeConfig {
        horizon: 5.0,
        bound: 0.05,
        trace_capacity: if serving { SERVED_TRACE_CAPACITY } else { 0 },
        // Live guarantee auditing: 1-in-64 symbols get shadow-compared
        // against a discrete reference evaluator while the sweep runs, so
        // `/audit` answers with real headroom numbers. 0 disables.
        audit_rate: env_usize("PULSE_SCALING_AUDIT_RATE", 64) as u64,
        // NYSE calibration: prices start in 20..200 with per-second drift
        // ≤ 0.1% of price and tick noise ≤ 0.2% of price; each symbol
        // trades once per symbols/RATE seconds.
        calibration: pulse_stream::Calibration {
            noise: 0.5,
            max_slope: 5.0,
            sample_dt: k.symbols as f64 / RATE,
            max_abs: 210.0,
        },
        ..Default::default()
    }
}

#[derive(serde::Serialize)]
struct Row {
    /// `"single"` (no channels, no worker threads — the pre-sharding
    /// baseline) or `"sharded"`. `shards` is honest under both: the
    /// single-threaded reference runs on exactly one runtime, so it
    /// reports 1, distinguished from `{"mode": "sharded", "shards": 1}`
    /// (one worker behind a channel) by `mode` alone.
    mode: &'static str,
    shards: usize,
    tuples_per_sec: f64,
    ns_per_tuple: f64,
    outputs: u64,
    violations: u64,
    /// Share of histogram-measured violation-path time the phase table
    /// attributes to a named phase (the acceptance floor is 0.9).
    phase_coverage: f64,
    phases: pulse_obs::PhaseBreakdown,
}

/// The whole sweep with its workload parameters, so `bench_diff` only
/// compares runs of the same workload.
#[derive(serde::Serialize)]
struct Report {
    tuples: usize,
    symbols: usize,
    rows: Vec<Row>,
}

/// Tuples between collector ticks when serving: at benchmark rates this
/// lands many `/timeseries` samples per second and per phase, dense
/// enough that even the 20k-tuple smoke run records a real history.
const PUBLISH_EVERY: usize = 2_500;

fn single_threaded(
    lp: &pulse_stream::LogicalPlan,
    tuples: &[Tuple],
    cfg: &RuntimeConfig,
    publish: bool,
) -> (f64, RuntimeStats, pulse_obs::PhaseTable) {
    let merged = merge_feeds(&[(0, tuples)]);
    let mut rt = PulseRuntime::with_predictors(
        vec![Predictor::AdaptiveLinear(nyse::schema())],
        lp,
        cfg.clone(),
    )
    .expect("MACD transforms");
    let start = Instant::now();
    // Single mode feeds the same 256-tuple batches the sharded channels
    // carry, so its violation solves run through the deferred per-key
    // queue too and the mode comparison is batching-for-batching.
    let (mut next_gc, mut next_pub, mut seen) = (0usize, 0usize, 0usize);
    for chunk in merged.chunks(pulse_core::DEFAULT_BATCH) {
        rt.on_pairs(chunk);
        seen += chunk.len();
        if seen > next_gc {
            rt.gc_before(chunk.last().expect("non-empty chunk").1.ts - 50.0);
            next_gc += 50_000;
        }
        if publish && seen > next_pub {
            rt.publish_metrics();
            next_pub += PUBLISH_EVERY;
        }
    }
    if publish {
        rt.publish_metrics();
    }
    let secs = start.elapsed().as_secs_f64();
    (secs, rt.stats(), *rt.phases())
}

/// One parallel phase: routes the whole feed through `rt` (a sharded MACD
/// or a hybrid global-min runtime). When serving, the phase installs its
/// explain handle, ticks the collector, and caches its final rings and
/// merged audit ledger so the routes keep answering after it ends.
fn parallel(
    mut rt: HybridRuntime,
    tuples: &[Tuple],
    ctx: Option<&ServeCtx>,
) -> (f64, RuntimeStats, pulse_obs::PhaseTable) {
    let merged = merge_feeds(&[(0, tuples)]);
    if let Some(ctx) = ctx {
        *ctx.slot.lock().unwrap() = Some(rt.explain_handle());
    }
    let start = Instant::now();
    for (i, (src, t)) in merged.iter().enumerate() {
        rt.on_tuple(*src, t);
        if i % 50_000 == 0 {
            rt.gc_before(t.ts - 50.0);
        }
        // Live scrape support: refresh the per-shard labelled counters in
        // the global registry (and the time-series history behind
        // `/timeseries`) many times a second at benchmark rates.
        if ctx.is_some() && i % PUBLISH_EVERY == 0 {
            rt.publish_metrics();
        }
    }
    if ctx.is_some() {
        rt.publish_metrics();
    }
    let fed = start.elapsed();
    if let Some(ctx) = ctx {
        // Snapshot the full rings while the workers are still alive, so
        // `/trace.json` keeps answering after this phase finishes. Serving
        // work, so it stays out of the timed window.
        let rings = rt.trace_events();
        *ctx.trace_cache.lock().unwrap() =
            Some(pulse_obs::chrome_trace(rings.iter().map(|(s, evs)| (*s, evs.as_slice()))));
        *ctx.slot.lock().unwrap() = None;
    }
    let finishing = Instant::now();
    let run = rt.finish();
    let secs = (fed + finishing.elapsed()).as_secs_f64();
    if let Some(ctx) = ctx {
        if run.audit.audited_keys() > 0 {
            *ctx.audit_cache.lock().unwrap() = Some(run.audit.summary_json(8));
        }
    }
    (secs, run.stats, run.phases)
}

/// The non-partitionable companion workload: a global (ungrouped) minimum
/// over every symbol's price — §III-B's key-attribute scenario at NYSE
/// scale. No shard owns the global envelope, so before the partition
/// rewrite this plan wholesale fell back to the single-threaded runtime
/// (`mode: "fallback"`); the rewrite splits it into sharded per-key
/// partial envelopes plus a serial global merge (`mode: "hybrid"`).
fn global_min_plan(width: f64, slide: f64) -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![nyse::schema()]);
    lp.add(
        LogicalOp::Aggregate { func: AggFunc::Min, attr: 0, width, slide, group_by_key: false },
        vec![PortRef::Source(0)],
    );
    lp
}

fn row(
    label: &str,
    mode: &'static str,
    shards: usize,
    n: usize,
    (secs, stats, phases): &(f64, RuntimeStats, pulse_obs::PhaseTable),
    measured_violation_ns: u64,
) -> Row {
    // Coverage: profiled phase time over the wall-clock the
    // `runtime.violation_path_ns` histogram measured for the same run.
    // 1.0 when the run had no violation work to attribute.
    let phase_coverage = if measured_violation_ns == 0 {
        1.0
    } else {
        phases.violation_ns() as f64 / measured_violation_ns as f64
    };
    let r = Row {
        mode,
        shards,
        tuples_per_sec: n as f64 / secs,
        ns_per_tuple: secs * 1e9 / n as f64,
        outputs: stats.outputs,
        violations: stats.violations,
        phase_coverage,
        phases: phases.breakdown(),
    };
    println!(
        "{label:>16}: {:>10.0} t/s  {:>8.0} ns/tuple  ({} violations, {} outputs, {:.0}% phase coverage)",
        r.tuples_per_sec,
        r.ns_per_tuple,
        r.violations,
        r.outputs,
        r.phase_coverage * 100.0,
    );
    assert!(r.outputs > 0, "{label}: workload produced no outputs — window/duration mismatch");
    // The default floor is 0.9; scrape-contended CI smoke runs (curl
    // loops stealing the only core mid-phase) may relax it via env.
    let floor = std::env::var("PULSE_SCALING_COVERAGE_FLOOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.9);
    assert!(
        r.phase_coverage >= floor,
        "{label}: phase table attributes only {:.1}% of measured violation-path time",
        r.phase_coverage * 100.0,
    );
    r
}

/// Runs one configuration `reps` times and keeps the median-duration
/// rep. Stats, phases and the independently-measured violation time all
/// come from that same run, so every derived column stays mutually
/// consistent; the median kills the scheduler outliers that dominate
/// single-run timings on shared machines.
fn median_rep(
    reps: usize,
    mut run: impl FnMut() -> ((f64, RuntimeStats, pulse_obs::PhaseTable), u64),
) -> ((f64, RuntimeStats, pulse_obs::PhaseTable), u64) {
    let mut all: Vec<_> = (0..reps.max(1)).map(|_| run()).collect();
    all.sort_by(|a, b| a.0 .0.total_cmp(&b.0 .0));
    all.swap_remove(all.len() / 2)
}

/// Delta of the global `runtime.violation_path_ns` histogram sum across a
/// closure — what the violation path actually cost, measured independently
/// of the phase table it is checked against.
fn with_measured_violation_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = pulse_obs::global().snapshot();
    let out = f();
    let delta = pulse_obs::global().snapshot().delta(&before);
    (out, delta.histogram("runtime.violation_path_ns").map_or(0, |h| h.sum_ns))
}

/// Starts the HTTP surface when `PULSE_SERVE_ADDR` is set, returning the
/// listener handle plus the slot parallel phases publish their explain
/// handle into. A served run is an observed run by definition, so its
/// runtimes trace ([`config`] gives them a ring); metrics and the profiler
/// are already on for every sweep.
fn maybe_serve() -> Option<(pulse_obs::ServeHandle, ServeCtx)> {
    let addr = std::env::var("PULSE_SERVE_ADDR").ok()?;
    let slot: ExplainSlot = Arc::new(Mutex::new(None));
    let route = slot.clone();
    let explain: pulse_obs::ExplainFn = Arc::new(move |key, t0, t1| {
        let handle = route.lock().unwrap().clone()?;
        handle.explain(key, t0, t1).map(|r| r.to_json())
    });
    // `/trace.json` drains the live runtime's flight-recorder rings into
    // Chrome Trace Event JSON — open the URL in Perfetto while the sweep
    // runs (or during the linger window) to see per-shard solve tracks.
    let trace_cache = Arc::new(Mutex::new(None));
    let trace = live_or_cached(&slot, &trace_cache, |h| {
        let rings = h.trace_events()?;
        Some(pulse_obs::chrome_trace(rings.iter().map(|(s, evs)| (*s, evs.as_slice()))))
    });
    // `/audit` fans out to every live shard and merges the per-key
    // guarantee ledgers.
    let audit_cache = Arc::new(Mutex::new(None));
    let audit = live_or_cached(&slot, &audit_cache, |h| Some(h.audit()?.summary_json(8)));
    let routes = pulse_obs::Routes::new().with_explain(explain).with_trace(trace).with_audit(audit);
    let h = pulse_obs::serve(&addr, routes).expect("bind PULSE_SERVE_ADDR");
    println!(
        "serving /metrics, /snapshot, /timeseries, /watch, /trace.json, /explain, /audit, /health, /profile on http://{}",
        h.addr()
    );
    Some((h, ServeCtx { slot, trace_cache, audit_cache }))
}

/// A route that renders from the live phase's handle when one is
/// installed (refreshing `cache`), and between phases serves `cache`:
/// the last completed phase's snapshot.
fn live_or_cached(
    slot: &ExplainSlot,
    cache: &Arc<Mutex<Option<String>>>,
    render: impl Fn(&ExplainHandle) -> Option<String> + Send + Sync + 'static,
) -> Arc<dyn Fn() -> Option<String> + Send + Sync> {
    let (slot, cache) = (slot.clone(), cache.clone());
    Arc::new(move || {
        let live = slot.lock().unwrap().clone().and_then(|h| render(&h));
        if live.is_some() {
            cache.lock().unwrap().clone_from(&live);
            return live;
        }
        cache.lock().unwrap().clone()
    })
}

fn main() {
    let k = knobs();
    // The sweep is an observed run by construction: the profiler's phase
    // breakdown is part of the tracked result, and the coverage check
    // needs the violation-path histogram, which only records under obs.
    pulse_obs::set_enabled(true);
    pulse_obs::set_prof_enabled(true);
    let serve = maybe_serve();
    let tuples = workload(&k);
    let (short, long, slide) = macd_windows(stream_duration(&k));
    let lp = queries::macd(short, long, slide);
    println!(
        "scaling: {} tuples, {} symbols, shard counts {:?}, macd {short:.2}/{long:.2}s slide {slide:.2}s",
        tuples.len(),
        k.symbols,
        k.shards
    );

    let cfg = config(&k, serve.is_some());
    if cfg.audit_rate > 0 {
        println!(
            "guarantee audit: 1-in-{} symbols shadow-compared (live at /audit)",
            cfg.audit_rate
        );
    }
    let reps = env_usize("PULSE_SCALING_REPS", 1);
    let preds = || vec![Predictor::AdaptiveLinear(nyse::schema())];
    let ctx = serve.as_ref().map(|(_, ctx)| ctx);
    let (st_run, st_viol_ns) = median_rep(reps, || {
        with_measured_violation_ns(|| single_threaded(&lp, &tuples, &cfg, serve.is_some()))
    });
    let mut rows = vec![row("single-threaded", "single", 1, tuples.len(), &st_run, st_viol_ns)];
    // One row per shard count of a parallel mode; `build(s)` makes the
    // runtime for `s` shards.
    let sweep = |rows: &mut Vec<Row>, mode, label: &str, build: &dyn Fn(usize) -> HybridRuntime| {
        for &s in &k.shards {
            let (run, viol_ns) = median_rep(reps, || {
                with_measured_violation_ns(|| parallel(build(s), &tuples, ctx))
            });
            assert_eq!(run.1.tuples_in, tuples.len() as u64);
            rows.push(row(&format!("{label} {s}"), mode, s, tuples.len(), &run, viol_ns));
        }
    };
    sweep(&mut rows, "sharded", "shards", &|s| {
        HybridRuntime::partitioned(preds(), &lp, cfg.clone(), s).expect("MACD is key-partitionable")
    });

    let sharded_at = |n: usize| rows.iter().find(|r| r.mode == "sharded" && r.shards == n);
    if let (Some(r1), Some(r4)) = (sharded_at(1), sharded_at(4)) {
        println!("speedup at 4 shards vs 1 shard: {:.2}x", r1.ns_per_tuple / r4.ns_per_tuple);
    }

    // ---- non-partitionable companion workload: global min ---------------
    // `fallback` is what every non-partitionable plan got before the
    // partition rewrite existed: the whole plan on one runtime, global
    // envelope over every symbol. `hybrid` is the rewritten shape.
    let min_lp = global_min_plan(short, slide);
    let min_hp = partition_rewrite(&min_lp).expect("global min takes the partition rewrite");
    println!("global-min: ungrouped Min over {} symbols, width {short:.2}s", k.symbols);
    let (fb_run, fb_viol_ns) = median_rep(reps, || {
        with_measured_violation_ns(|| single_threaded(&min_lp, &tuples, &cfg, false))
    });
    rows.push(row("min fallback", "fallback", 1, tuples.len(), &fb_run, fb_viol_ns));
    sweep(&mut rows, "hybrid", "min hybrid", &|s| {
        HybridRuntime::new(preds(), &min_hp, cfg.clone(), s)
            .expect("rewritten branches are partitionable")
    });
    let fallback_row = rows.iter().find(|r| r.mode == "fallback");
    let hybrid_at = |n: usize| rows.iter().find(|r| r.mode == "hybrid" && r.shards == n);
    if let (Some(fb), Some(h4)) = (fallback_row, hybrid_at(4)) {
        println!(
            "global-min speedup, hybrid at 4 shards vs wholesale fallback: {:.2}x",
            fb.ns_per_tuple / h4.ns_per_tuple
        );
    }

    // Smoke runs (CI) land in target/ so they never clobber the tracked
    // full-sweep results at the repo root.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = if k.smoke {
        format!("{root}/target/BENCH_scaling_smoke.json")
    } else {
        format!("{root}/BENCH_scaling.json")
    };
    let report = Report { tuples: tuples.len(), symbols: k.symbols, rows };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json).expect("write scaling results");
    println!("wrote {path}");

    if let Some((handle, _ctx)) = serve {
        let linger = env_usize("PULSE_SERVE_LINGER", 0);
        if linger > 0 {
            println!("lingering {linger}s on http://{} for scrapers", handle.addr());
            std::thread::sleep(std::time::Duration::from_secs(linger as u64));
        }
    }
}
