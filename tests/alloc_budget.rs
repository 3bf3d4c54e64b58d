//! Deterministic allocation gate: heap allocations per pushed segment
//! through a MACD-shaped `CPlan` and a global-min `CPlan`.
//!
//! Timing gates swing with host load; an allocation count does not. A
//! counting global allocator tallies allocations (reallocations included)
//! per thread, so the harness's other threads cannot inflate the count.
//! The stream is a fixed seeded one, and every segment id comes from one
//! process-wide counter that lineage pages by, so this file holds a single
//! test and nothing else in the process makes segments.

use pulse::core::CPlan;
use pulse::math::{CmpOp, Poly, Span};
use pulse::model::{AttrKind, Expr, Pred, Schema, Segment};
use pulse::stream::{AggFunc, KeyJoin, LogicalOp, LogicalPlan, PortRef};
use pulse::workload::nyse;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: both methods forward their arguments unchanged to `System`, so
// the caller's guarantees are `System`'s; counting touches only a
// thread-local `Cell` with no destructor, which never allocates. The
// trait's default `alloc_zeroed` and `realloc` go through `alloc`, so each
// of those counts once too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// MACD over per-symbol 5 s and 20 s averages, joined every 2 s.
fn macd() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![nyse::schema()]);
    let avg = |width| LogicalOp::Aggregate {
        func: AggFunc::Avg,
        attr: 0,
        width,
        slide: 2.0,
        group_by_key: true,
    };
    let s = lp.add(avg(5.0), vec![PortRef::Source(0)]);
    let l = lp.add(avg(20.0), vec![PortRef::Source(0)]);
    let j = lp.add(
        LogicalOp::Join {
            window: 2.0,
            pred: Pred::cmp(Expr::attr_of(0, 0), CmpOp::Gt, Expr::attr_of(1, 0)),
            on_keys: KeyJoin::Eq,
        },
        vec![s, l],
    );
    lp.add(
        LogicalOp::Map {
            exprs: vec![Expr::attr(0) - Expr::attr(1)],
            schema: Schema::of(&[("diff", AttrKind::Modeled)]),
        },
        vec![j],
    );
    lp
}

/// The ungrouped 5 s minimum over every symbol.
fn global_min() -> LogicalPlan {
    let mut lp = LogicalPlan::new(vec![nyse::schema()]);
    let min = LogicalOp::Aggregate {
        func: AggFunc::Min,
        attr: 0,
        width: 5.0,
        slide: 2.0,
        group_by_key: false,
    };
    lp.add(min, vec![PortRef::Source(0)]);
    lp
}

/// SplitMix64: a fixed stream on every platform.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

const SYMBOLS: u64 = 20;
const ROUNDS: usize = 150;

/// Round-robin price segments, one per symbol per round: each continues
/// its symbol's last price with a fresh random slope, so averages cross.
fn stream(seed: u64) -> Vec<Segment> {
    let mut rng = Rng(seed);
    let mut price: Vec<f64> = (0..SYMBOLS).map(|_| 20.0 + 180.0 * rng.unit()).collect();
    let mut out = Vec::with_capacity(SYMBOLS as usize * ROUNDS);
    for round in 0..ROUNDS {
        for key in 0..SYMBOLS {
            let lo = round as f64 + key as f64 / SYMBOLS as f64;
            let hi = lo + 1.0;
            let slope = 0.4 * (rng.unit() - 0.5);
            let p = &mut price[key as usize];
            let model = Poly::linear(*p - slope * lo, slope);
            *p += slope;
            out.push(Segment::new(key, Span::new(lo, hi), vec![model], vec![100.0]));
        }
    }
    out
}

/// Allocations per push of `segs` through `plan`'s compiled operators.
fn allocs_per_push(plan: &LogicalPlan, segs: &[Segment]) -> f64 {
    let mut cp = CPlan::compile(plan).expect("plan compiles");
    let before = allocs();
    let mut outputs = 0;
    for seg in segs {
        outputs += cp.push(0, seg).len();
    }
    let n = allocs() - before;
    assert!(outputs > 0, "the stream produced no outputs");
    n as f64 / segs.len() as f64
}

#[test]
fn allocations_per_push_stay_within_budget() {
    let segs = stream(7);
    // Budgets are the counts measured when polynomial coefficients moved
    // inline, plus 10%. With every `Poly`'s coefficients on the heap the
    // same stream made 11.14 allocations per push through `macd` and
    // 32.58 through `global_min`.
    for (name, plan, measured) in [("macd", macd(), 6.05), ("global_min", global_min(), 26.78)] {
        let per_push = allocs_per_push(&plan, &segs);
        println!("{name}: {per_push:.2} allocations per push");
        assert!(
            per_push <= measured * 1.1,
            "{name}: {per_push:.2} allocations per push, budget {:.2}",
            measured * 1.1
        );
    }
}
