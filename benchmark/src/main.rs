//! `pulse-replay-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]`
//!
//! Prints a `meta` line (seed, sizes, host, commit, checks) and, as the
//! last line, `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` first runs `--trace 0` of
//! the same seed in a child process, then the traced pass, each for half
//! of `--seconds`, and reports the per-layer metrics. Exits 1 when an
//! output check fails, 2 on bad usage.

use pulse_replay_bench::bench::{timed_pass, traced_pass, Opts};
use pulse_replay_bench::check::Fingerprint;
use pulse_replay_bench::workloads::Workload;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: pulse-replay-bench --workload <macd|macd_quiet|global_min_hybrid> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse(args: &[String]) -> Result<(Opts, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) = (None, 1, 10, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(()))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((Opts { workload, seed, seconds, tiny }, trace))
}

/// Runs the untraced pass of the same seed in a child process (the
/// `pulse_obs` toggles are process-global, so the timed pass never shares
/// a process with the traced one). Returns its fingerprint, wall-time
/// throughput and whether its checks passed.
fn untraced_child(opts: &Opts) -> Result<(Fingerprint, f64, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child_args: Vec<String> = [
        "--workload",
        opts.workload.name(),
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
        "--trace",
        "0",
    ]
    .map(String::from)
    .to_vec();
    if opts.tiny {
        child_args.push("--tiny".into());
    }
    let out = Command::new(exe)
        .args(&child_args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the untraced pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let meta = stdout
        .lines()
        .find_map(|l| l.strip_prefix("meta "))
        .ok_or("untraced pass printed no meta line")?;
    println!("untraced-meta {meta}");
    let last = stdout.lines().last().ok_or("untraced pass printed nothing")?;
    let meta = serde_json::parse_value(meta).map_err(|e| format!("{e:?}"))?;
    let result = serde_json::parse_value(last).map_err(|e| format!("{e:?}"))?;
    let fp = meta
        .get("fingerprint")
        .and_then(|v| v.as_str())
        .and_then(Fingerprint::from_hex)
        .ok_or("untraced meta has no fingerprint")?;
    let tps = meta
        .get("wall_tuples_per_s")
        .and_then(|v| v.as_f64())
        .ok_or("untraced meta has no wall_tuples_per_s")?;
    let correct = out.status.success()
        && matches!(result.get("correct"), Some(serde_json::Value::Bool(true)));
    Ok((fp, tps, correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut opts, trace) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (outcome, replays) = if trace {
        // The untraced and the traced pass share the run's time budget.
        opts.seconds = opts.seconds.div_ceil(2);
        let (fp, tps, correct) = match untraced_child(&opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("untraced pass failed: {e}");
                return ExitCode::from(1);
            }
        };
        let (mut o, n) = traced_pass(&opts, (fp, tps));
        if !correct {
            o.failures.push("the untraced pass failed its checks".into());
        }
        (o, n)
    } else {
        timed_pass(&opts)
    };
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    println!("meta {}", outcome.meta_line(&opts, trace, replays));
    println!("{}", outcome.result_line());
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
