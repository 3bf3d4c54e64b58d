//! `top` for a live Pulse process: polls the `/snapshot`, `/timeseries`,
//! `/health`, `/profile` and `/audit` endpoints of a serving runtime (see
//! `PULSE_SERVE_ADDR` in the scaling bench) and renders throughput,
//! violation rate, sparkline history panes, solver latency percentiles,
//! per-shard load skew, the health verdict with any firing alert rules,
//! the live guarantee-audit ledger (headroom percentiles, worst keys,
//! breaches), and the violation-path phase breakdown, refreshed in place.
//!
//! Usage: `pulse_top [--addr 127.0.0.1:9187] [--interval 2] [--once]`.
//! `--once` prints a single snapshot (totals, no rates) and exits — handy
//! in scripts. Rates come from deltas between consecutive polls; the
//! snapshot JSON is the serialized `pulse_obs::Snapshot`, so per-shard
//! series arrive as `runtime.tuples_in{shard="3"}`-style counter names.

use serde::Value;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

struct Args {
    addr: String,
    interval: f64,
    once: bool,
}

fn parse_args() -> Args {
    let mut args = Args { addr: "127.0.0.1:9187".into(), interval: 2.0, once: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => args.addr = it.next().expect("--addr needs host:port"),
            "--interval" => {
                args.interval =
                    it.next().and_then(|v| v.parse().ok()).expect("--interval needs seconds")
            }
            "--once" => args.once = true,
            "--help" | "-h" => {
                println!("usage: pulse_top [--addr host:port] [--interval secs] [--once]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One-shot HTTP GET over a raw socket (no client library in the image).
fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?;
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok(body)
}

/// Splits a registry counter name into its base and `shard` label, e.g.
/// `runtime.tuples_in{shard="3"}` → `("runtime.tuples_in", Some("3"))`.
fn split_shard(name: &str) -> (&str, Option<&str>) {
    let Some((base, rest)) = name.split_once('{') else { return (name, None) };
    let shard = rest
        .trim_end_matches('}')
        .split(',')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == "shard")
        .map(|(_, v)| v.trim_matches('"'));
    (base, shard)
}

/// Counter values keyed by full registry name.
fn counters(snapshot: &Value) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for entry in snapshot.get("counters").and_then(Value::as_array).unwrap_or(&[]) {
        if let [name, v] = entry.as_array().unwrap_or(&[]) {
            if let (Some(name), Some(v)) = (name.as_str(), v.as_u64()) {
                out.insert(name.to_string(), v);
            }
        }
    }
    out
}

/// Sum of a counter family across all label variants.
fn family_total(counters: &HashMap<String, u64>, base: &str) -> u64 {
    counters.iter().filter(|(n, _)| split_shard(n).0 == base).map(|(_, v)| v).sum()
}

/// Per-shard values of one counter family, sorted by shard id.
fn by_shard(counters: &HashMap<String, u64>, base: &str) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = counters
        .iter()
        .filter_map(|(n, v)| {
            let (b, shard) = split_shard(n);
            (b == base).then(|| shard.map(|s| (s.to_string(), *v))).flatten()
        })
        .collect();
    rows.sort();
    rows
}

fn render_histograms(snapshot: &Value, out: &mut String) {
    let hists = snapshot.get("histograms").and_then(Value::as_array).unwrap_or(&[]);
    if hists.is_empty() {
        return;
    }
    out.push_str("\nlatency (ns)         count        p50        p95        p99        max\n");
    for h in hists {
        let field = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0);
        let name = h.get("name").and_then(Value::as_str).unwrap_or("?");
        // Not a latency: the audit pane renders headroom basis points.
        if name.starts_with("audit.") {
            continue;
        }
        out.push_str(&format!(
            "{name:<20} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            field("count"),
            field("p50_ns"),
            field("p95_ns"),
            field("p99_ns"),
            field("max_ns"),
        ));
    }
}

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(vals: &[f64]) -> String {
    let (min, max) = vals
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    if !min.is_finite() {
        return String::new();
    }
    let span = (max - min).max(1e-9);
    vals.iter().map(|v| SPARKS[(((v - min) / span) * 7.0).round() as usize]).collect()
}

/// History pane: sparklines over the server's `/timeseries` ring history
/// (fed by the collector tick, so it covers the whole run — not just the
/// interval between two polls). Counter families are cumulative, so the
/// pane charts per-sample deltas; histogram-derived percentile series
/// chart raw. Servers without the route just drop the pane.
fn render_history(addr: &str, out: &mut String) {
    let specs = [
        ("runtime.tuples_in", true),
        ("runtime.violations", true),
        ("runtime.outputs", true),
        ("runtime.violation_path_ns.p99_ns", false),
    ];
    let mut pane = String::new();
    for (metric, is_counter) in specs {
        let Some(doc) = http_get(addr, &format!("/timeseries?metric={metric}&last=33"))
            .ok()
            .and_then(|b| serde_json::parse_value(&b).ok())
        else {
            continue;
        };
        let Some(points) = doc.get("points").and_then(Value::as_array) else { continue };
        let mut vals: Vec<f64> = points
            .iter()
            .filter_map(|p| p.as_array().and_then(|xy| xy.get(1)).and_then(Value::as_f64))
            .collect();
        if is_counter {
            // Ticks are evenly spaced while a phase runs, so the delta
            // series is a rate up to a constant factor.
            vals = vals.windows(2).map(|w| (w[1] - w[0]).max(0.0)).collect();
        }
        if vals.len() < 2 {
            continue;
        }
        let unit = if is_counter { "/tick" } else { " ns" };
        pane.push_str(&format!(
            "{metric:<26} {:>32} {:>10.0}{unit}\n",
            sparkline(&vals),
            vals.last().copied().unwrap_or(0.0),
        ));
    }
    if !pane.is_empty() {
        out.push_str("\nhistory (oldest → newest, one cell per collector tick)\n");
        out.push_str(&pane);
    }
}

/// Health pane: verdict, firing rules, and the derived signals the rules
/// evaluate. `/health` answers 503 when degraded, but the JSON body is the
/// same shape either way — the verdict field carries the state.
fn render_health(health: Option<&Value>, out: &mut String) {
    let Some(h) = health else { return };
    let verdict = h.get("verdict").and_then(Value::as_str).unwrap_or("?");
    let firing: Vec<&str> = h
        .get("firing")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_str)
        .collect();
    out.push_str(&format!(
        "\nhealth: {verdict}{}\n",
        if firing.is_empty() { String::new() } else { format!("  firing: {}", firing.join(", ")) }
    ));
    if let Some(sig) = h.get("signals") {
        let f = |k: &str| sig.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        out.push_str(&format!(
            "  queue depth max {:.0}  violation ratio {:.2}  shard skew {:.2}  violations/s {:.0}\n",
            f("queue_depth_max"),
            f("violation_ratio"),
            f("shard_skew"),
            f("violation_rate"),
        ));
    }
}

/// Audit pane: the live guarantee auditor's merged per-key ledgers
/// (`/audit`) — audited-key count, breach count, headroom percentiles
/// from the `audit.headroom_bp` histogram in the snapshot (10000 bp =
/// observed deviation zero, 0 bp = at the promised bound), and the
/// worst keys by minimum headroom. Servers without the route (or with
/// auditing off) drop the pane.
fn render_audit(audit: Option<&Value>, snapshot: &Value, out: &mut String) {
    let Some(a) = audit else { return };
    let u = |k: &str| a.get(k).and_then(Value::as_u64).unwrap_or(0);
    if a.get("audited_keys").is_none() || u("audited_keys") == 0 {
        return;
    }
    out.push_str(&format!(
        "\naudit: {} keys  {} checks  {} breaches  mean headroom {} bp",
        u("audited_keys"),
        u("checks"),
        u("breaches"),
        u("mean_headroom_bp"),
    ));
    let headroom = snapshot
        .get("histograms")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .find(|h| h.get("name").and_then(Value::as_str) == Some("audit.headroom_bp"));
    if let Some(h) = headroom {
        let f = |k: &str| h.get(k).and_then(Value::as_u64).unwrap_or(0);
        out.push_str(&format!("  (p50 {} bp, p99 {} bp)", f("p50_ns"), f("p99_ns")));
    }
    out.push('\n');
    let worst = a.get("worst").and_then(Value::as_array).unwrap_or(&[]);
    if !worst.is_empty() {
        out.push_str("  worst key     checks breaches  min-headroom       last dev/allowance\n");
        for w in worst.iter().take(5) {
            let wu = |k: &str| w.get(k).and_then(Value::as_u64).unwrap_or(0);
            let wf = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "  {:<13} {:>6} {:>8} {:>10} bp {:>12.4}/{:<.4}\n",
                wu("key"),
                wu("checks"),
                wu("breaches"),
                wu("min_headroom_bp"),
                wf("last_deviation"),
                wf("last_allowance"),
            ));
        }
    }
    if let Some(b) = a.get("last_breach") {
        if !matches!(b, Value::Null) {
            let bu = |k: &str| b.get(k).and_then(Value::as_u64).unwrap_or(0);
            let bf = |k: &str| b.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "  LAST BREACH: key {} at t={:.3}  observed {:.4} > bound {:.4}\n",
                bu("key"),
                bf("t"),
                bf("observed"),
                bf("bound"),
            ));
        }
    }
}

/// Phase pane: the profiler's self-normalizing violation-path breakdown
/// (shares are of attributed violation time; validate rides the sampled
/// fast path and is shown by count only). The solver's sub-phases —
/// `solve_assemble`/`solve_sturm`/`solve_refine`, carved out of the
/// `root_isolate` bracket and disjoint from it — are indented under a
/// synthetic `solve (nested)` subtotal so the pane reads as a two-level
/// tree rather than eleven flat rows; all shares still sum to 1.
fn render_phases(profile: Option<&Value>, out: &mut String) {
    let Some(p) = profile else { return };
    let phases = p.get("phases").and_then(Value::as_array).unwrap_or(&[]);
    let total = p.get("violation_ns").and_then(Value::as_u64).unwrap_or(0);
    if phases.is_empty() || total == 0 {
        return;
    }
    const SOLVE_NESTED: [&str; 3] = ["solve_assemble", "solve_sturm", "solve_refine"];
    let row = |ph: &Value| {
        let count = ph.get("count").and_then(Value::as_u64).unwrap_or(0);
        let ns = ph.get("ns").and_then(Value::as_u64).unwrap_or(0);
        let share = ph.get("share").and_then(Value::as_f64).unwrap_or(0.0);
        (count, ns, share)
    };
    let line = |out: &mut String, name: &str, count: u64, ns: u64, share: f64| {
        let bar = "#".repeat((share * 20.0).round() as usize);
        out.push_str(&format!(
            "{name:<24} {count:>8} {:>11.1}  {:>4.0}% {bar}\n",
            ns as f64 / 1e6,
            share * 100.0,
        ));
    };
    out.push_str("\nviolation-path phases      count    time(ms)  share\n");
    for ph in phases {
        let name = ph.get("phase").and_then(Value::as_str).unwrap_or("?");
        if SOLVE_NESTED.contains(&name) {
            continue;
        }
        let (count, ns, share) = row(ph);
        line(out, name, count, ns, share);
    }
    // Sub-phase subtotal + children after the top-level rows. They are
    // disjoint from root_isolate (which is recorded net of them), so the
    // subtotal is a real share; the indent marks where in the pipeline
    // the time sits. Counts differ per sub-phase (rows vs root calls),
    // so the subtotal shows the largest.
    let nested: Vec<(&str, u64, u64, f64)> = phases
        .iter()
        .filter_map(|ph| {
            let name = ph.get("phase").and_then(Value::as_str)?;
            SOLVE_NESTED.contains(&name).then(|| {
                let (count, ns, share) = row(ph);
                (name, count, ns, share)
            })
        })
        .collect();
    if nested.iter().any(|(_, _, ns, _)| *ns > 0) {
        let (count, ns, share) = nested
            .iter()
            .fold((0, 0, 0.0), |(c, n, s), (_, pc, pn, ps)| (c.max(*pc), n + pn, s + ps));
        line(out, "solve (nested)", count, ns, share);
        for (name, count, ns, share) in nested {
            line(out, &format!("  {name}"), count, ns, share);
        }
    }
}

fn render(
    addr: &str,
    now: &HashMap<String, u64>,
    prev: Option<(&HashMap<String, u64>, f64)>,
    snapshot: &Value,
    health: Option<&Value>,
    profile: Option<&Value>,
    audit: Option<&Value>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("pulse_top — {addr}\n\n"));
    let families =
        ["runtime.tuples_in", "runtime.suppressed", "runtime.violations", "runtime.outputs"];
    match prev {
        Some((before, secs)) if secs > 0.0 => {
            out.push_str(&format!("{:<22} {:>14} {:>14}\n", "counter", "total", "per-sec"));
            for base in families {
                let total = family_total(now, base);
                let rate = total.saturating_sub(family_total(before, base)) as f64 / secs;
                out.push_str(&format!("{base:<22} {total:>14} {rate:>14.0}\n"));
            }
            let t_now = family_total(now, "runtime.tuples_in");
            let v_now = family_total(now, "runtime.violations");
            let dt = t_now.saturating_sub(family_total(before, "runtime.tuples_in"));
            let dv = v_now.saturating_sub(family_total(before, "runtime.violations"));
            if dt > 0 {
                out.push_str(&format!(
                    "\nviolation rate: {:.2}% of tuples this interval\n",
                    100.0 * dv as f64 / dt as f64
                ));
            }
        }
        _ => {
            out.push_str(&format!("{:<22} {:>14}\n", "counter", "total"));
            for base in families {
                out.push_str(&format!("{base:<22} {:>14}\n", family_total(now, base)));
            }
        }
    }

    let shards = by_shard(now, "runtime.tuples_in");
    if shards.len() > 1 {
        let max = shards.iter().map(|(_, v)| *v).max().unwrap_or(0) as f64;
        let mean = shards.iter().map(|(_, v)| *v).sum::<u64>() as f64 / shards.len() as f64;
        out.push_str(&format!(
            "\nshard load (tuples_in): {}  skew max/mean {:.2}\n",
            shards.iter().map(|(s, v)| format!("{s}:{v}")).collect::<Vec<_>>().join("  "),
            if mean > 0.0 { max / mean } else { 0.0 }
        ));
    }
    render_history(addr, &mut out);
    render_health(health, &mut out);
    render_audit(audit, snapshot, &mut out);
    render_phases(profile, &mut out);
    render_histograms(snapshot, &mut out);
    out
}

fn main() {
    let args = parse_args();
    let mut prev: Option<(HashMap<String, u64>, Instant)> = None;
    loop {
        let body = match http_get(&args.addr, "/snapshot") {
            Ok(b) => b,
            Err(e) => {
                eprintln!("pulse_top: {} unreachable: {e}", args.addr);
                std::process::exit(1);
            }
        };
        let snapshot = match serde_json::parse_value(&body) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("pulse_top: bad snapshot JSON: {e}");
                std::process::exit(1);
            }
        };
        let now = counters(&snapshot);
        // Optional panes — an older server without these routes (or a 404
        // body that isn't JSON) just drops the pane rather than killing
        // the poll loop.
        let health =
            http_get(&args.addr, "/health").ok().and_then(|b| serde_json::parse_value(&b).ok());
        let profile =
            http_get(&args.addr, "/profile").ok().and_then(|b| serde_json::parse_value(&b).ok());
        let audit =
            http_get(&args.addr, "/audit").ok().and_then(|b| serde_json::parse_value(&b).ok());
        let at = Instant::now();
        let view = render(
            &args.addr,
            &now,
            prev.as_ref().map(|(c, t)| (c, at.duration_since(*t).as_secs_f64())),
            &snapshot,
            health.as_ref(),
            profile.as_ref(),
            audit.as_ref(),
        );
        if args.once {
            print!("{view}");
            return;
        }
        // Clear screen + home, then repaint.
        print!("\x1b[2J\x1b[H{view}");
        let _ = std::io::stdout().flush();
        prev = Some((now, at));
        std::thread::sleep(Duration::from_secs_f64(args.interval));
    }
}
