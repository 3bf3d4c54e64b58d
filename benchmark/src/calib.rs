//! Host-speed calibration for the timed pass.
//!
//! The host's speed switches between regimes that last from about a
//! second to minutes; in the slow one Pulse runs about 1.5x slower. A
//! fixed kernel, timed between emission groups, measures the current
//! slowdown; the timed pass divides each stretch of wall time by the
//! slowdown in force while it ran. Times so adjusted read as on a host
//! where the kernel takes [`REF_NS`]. The kernel is the benchmark's own
//! code, so no change to Pulse moves it.

use std::time::{Duration, Instant};

/// Kernel time at the reference speed. Close to its time in the fast
/// regime of a 2-vCPU Sapphire Rapids VM, where adjusted and wall times
/// then read about the same.
pub const REF_NS: f64 = 120_000.0;

/// Least wall time between two probes.
const EVERY: Duration = Duration::from_millis(20);

/// Probes in the running median that gives the slowdown.
const WINDOW: usize = 5;

/// Sorts 6000 pseudo-random words and binary-searches 2000 more. Sorting
/// random data mispredicts branches throughout: of the kernels tried
/// (hash map, B-tree, allocation churn, floating point, cache-resident and
/// memory-wide random reads, a streaming sum) it followed the regimes most
/// closely, and the tight or memory-bound loops hardly followed them.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..6000).map(|_| next()).collect();
    v.sort_unstable();
    (0..2000).map(|_| v.binary_search(&next()).unwrap_or_else(|i| i) as u64).sum()
}

/// Runs the kernel once; returns its wall time in ns.
fn probe() -> u64 {
    let t0 = Instant::now();
    std::hint::black_box(kernel());
    t0.elapsed().as_nanos() as u64
}

/// The current slowdown, from the median of the latest probes.
#[derive(Debug)]
pub struct Speed {
    recent: [u64; WINDOW],
    next: usize,
    last: Instant,
    probes: u64,
    slowdown: f64,
}

impl Speed {
    /// Fills the window with fresh probes.
    pub fn measure() -> Speed {
        let recent = std::array::from_fn(|_| probe());
        let mut speed =
            Speed { recent, next: 0, last: Instant::now(), probes: WINDOW as u64, slowdown: 1.0 };
        speed.update();
        speed
    }

    fn update(&mut self) {
        let mut s = self.recent;
        s.sort_unstable();
        self.slowdown = s[WINDOW / 2] as f64 / REF_NS;
    }

    /// Probes once, and returns when it finished.
    pub fn probe_now(&mut self) -> Instant {
        self.recent[self.next] = probe();
        self.next = (self.next + 1) % WINDOW;
        self.probes += 1;
        self.update();
        self.last = Instant::now();
        self.last
    }

    /// Probes if [`EVERY`] has passed since the last probe; returns when
    /// it finished.
    pub fn probe_if_due(&mut self, now: Instant) -> Option<Instant> {
        (now - self.last >= EVERY).then(|| self.probe_now())
    }

    /// Wall time over reference time: above 1 when the host runs slow.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Probes run so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }
}

/// Wall time of a replay between the clock reads the replay loop makes,
/// with probe time left out, both as measured and at the reference speed.
#[derive(Debug)]
pub struct Clock<'a> {
    speed: &'a mut Speed,
    prev: Instant,
    pub wall_ns: u64,
    pub ref_ns: f64,
}

impl<'a> Clock<'a> {
    /// Starts counting at `start`.
    pub fn new(speed: &'a mut Speed, start: Instant) -> Clock<'a> {
        Clock { speed, prev: start, wall_ns: 0, ref_ns: 0.0 }
    }

    /// Adds the time from the previous read to `now`, at the current
    /// slowdown.
    pub fn read(&mut self, now: Instant) {
        let ns = (now - self.prev).as_nanos() as u64;
        self.wall_ns += ns;
        self.ref_ns += ns as f64 / self.speed.slowdown();
        self.prev = now;
    }

    /// `ns` of wall time at the reference speed.
    pub fn to_ref(&self, ns: u64) -> u64 {
        (ns as f64 / self.speed.slowdown()).round() as u64
    }

    /// Reads the clock at the end of an emission group, then probes if due;
    /// the probe's time counts in neither total.
    pub fn group_done(&mut self, now: Instant) {
        self.read(now);
        if let Some(done) = self.speed.probe_if_due(now) {
            self.prev = done;
        }
    }
}
