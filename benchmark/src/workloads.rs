//! The three replay workloads: stream shape, query plan and runtime
//! configuration. Every input comes from [`Workload::generate`] and
//! depends only on the seed.

use pulse_core::RuntimeConfig;
use pulse_model::Tuple;
use pulse_stream::{AggFunc, LogicalOp, LogicalPlan, PortRef};
use pulse_workload::{nyse, NyseConfig, NyseGen};

/// Stream arrival rate in tuples per stream-second (every workload).
pub const RATE: f64 = 3000.0;

/// Tuples between `gc_before` calls, and how far behind the newest tuple
/// the collection cut sits (stream seconds). The streams run longer than
/// the retention, so collection actually trims state.
pub const GC_EVERY: usize = 50_000;
pub const GC_RETENTION: f64 = 50.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// MACD under tick noise and short drift legs: most tuples violate,
    /// so the violation path does nearly all the work.
    Macd,
    /// The same plan and runtime on noise-free, long-lived predictions:
    /// almost every tuple takes the suppressed fast path.
    MacdQuiet,
    /// The MACD stream through an ungrouped `Min`, run by the partition
    /// rewrite on `HybridRuntime` with one prefix worker.
    GlobalMinHybrid,
}

/// The seeded stream a workload replays.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub symbols: usize,
    pub tick_noise: f64,
    pub drift_duration: f64,
    /// Stream length in stream-seconds.
    pub seconds: f64,
    /// Prediction horizon of the runtime.
    pub horizon: f64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Macd, Workload::MacdQuiet, Workload::GlobalMinHybrid];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Macd => "macd",
            Workload::MacdQuiet => "macd_quiet",
            Workload::GlobalMinHybrid => "global_min_hybrid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this workload runs on `HybridRuntime` (else `PulseRuntime`).
    pub fn is_hybrid(self) -> bool {
        self == Workload::GlobalMinHybrid
    }

    /// Stream shape. `tiny` shrinks the stream for the benchmark's own
    /// tests; the windows still close many times.
    pub fn shape(self, tiny: bool) -> StreamShape {
        let noisy = StreamShape {
            symbols: if tiny { 200 } else { 10_000 },
            tick_noise: 0.002,
            drift_duration: 2.0,
            seconds: if tiny { 25.0 } else { 120.0 },
            horizon: 5.0,
        };
        match self {
            Workload::Macd | Workload::GlobalMinHybrid => noisy,
            // 400 stream-seconds (1.2M tuples, about 86 MB of input): the
            // fast path runs at millions of tuples per second, so a run
            // replays this stream many times.
            Workload::MacdQuiet => StreamShape {
                symbols: 100,
                tick_noise: 0.0,
                drift_duration: 120.0,
                seconds: if tiny { 30.0 } else { 400.0 },
                horizon: 120.0,
            },
        }
    }

    /// The seeded input as `(source, tuple)` pairs, time-ordered.
    pub fn generate(self, seed: u64, tiny: bool) -> Vec<(usize, Tuple)> {
        let s = self.shape(tiny);
        NyseGen::new(NyseConfig {
            symbols: s.symbols,
            rate: RATE,
            drift_duration: s.drift_duration,
            tick_noise: s.tick_noise,
            seed,
        })
        .generate(s.seconds)
        .into_iter()
        .map(|t| (0, t))
        .collect()
    }

    /// The logical query.
    pub fn plan(self) -> LogicalPlan {
        match self {
            Workload::Macd | Workload::MacdQuiet => pulse_bench::queries::macd(5.0, 20.0, 2.0),
            Workload::GlobalMinHybrid => {
                let mut lp = LogicalPlan::new(vec![nyse::schema()]);
                lp.add(
                    LogicalOp::Aggregate {
                        func: AggFunc::Min,
                        attr: 0,
                        width: 5.0,
                        slide: 2.0,
                        group_by_key: false,
                    },
                    vec![PortRef::Source(0)],
                );
                lp
            }
        }
    }

    /// Operator names of the compiled plan, in node order, as the
    /// per-layer `cops.<node>.*` metrics name them.
    pub fn node_names(self) -> &'static [&'static str] {
        match self {
            Workload::Macd | Workload::MacdQuiet => &["avg_short", "avg_long", "join", "map"],
            Workload::GlobalMinHybrid => &["min"],
        }
    }

    /// Runtime configuration; `audit_rate` 0 keeps the shadow auditor off.
    pub fn config(self, tiny: bool, audit_rate: u64) -> RuntimeConfig {
        let s = self.shape(tiny);
        RuntimeConfig {
            horizon: s.horizon,
            bound: 0.05,
            audit_rate,
            // NYSE calibration for the auditor's tolerance model: prices
            // start in 20..200, drift at most 0.1% of price per second,
            // and each symbol trades once per symbols/RATE seconds.
            calibration: pulse_stream::Calibration {
                noise: 0.5,
                max_slope: 5.0,
                sample_dt: s.symbols as f64 / RATE,
                max_abs: 210.0,
            },
            ..Default::default()
        }
    }
}
