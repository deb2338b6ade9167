//! Pieces every workload shares: the seeded input generator, the pacer
//! that keeps both ranks in one closed loop for a fixed time, the tally
//! of attempted and failed operations, and the in-memory span log.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use mpijava::MpiResult;

/// xorshift64* generator: the only source of every payload and grid.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Mix the seed so that nearby seeds start far apart; never zero.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03 | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// Keeps the two rank threads of one phase in step: both ranks run the
/// same number of batches, and rank 0 alone decides when time is up.
/// The decision is made between batches, outside every timed interval.
pub struct Pacer {
    barrier: Barrier,
    run_for: Duration,
    deadline: Mutex<Option<Instant>>,
    stop: AtomicBool,
}

impl Pacer {
    pub fn new(run_for: Duration) -> Pacer {
        Pacer {
            barrier: Barrier::new(2),
            run_for,
            deadline: Mutex::new(None),
            stop: AtomicBool::new(false),
        }
    }

    /// Called by both ranks before each batch; the clock starts at the
    /// first call. Returns false once the phase has run its time.
    pub fn next_batch(&self, rank: usize) -> bool {
        self.barrier.wait();
        if rank == 0 {
            let now = Instant::now();
            let mut deadline = self.deadline.lock().expect("pacer lock poisoned");
            let end = *deadline.get_or_insert(now + self.run_for);
            self.stop.store(now >= end, Ordering::SeqCst);
        }
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }
}

/// Runs `warmup` untimed operations, then timed batches of `batch`
/// operations until the pacer stops. `op` receives whether it is timed.
pub fn drive(
    pacer: &Pacer,
    rank: usize,
    warmup: usize,
    batch: usize,
    mut op: impl FnMut(bool) -> MpiResult<()>,
) -> MpiResult<()> {
    for _ in 0..warmup {
        op(false)?;
    }
    while pacer.next_batch(rank) {
        for _ in 0..batch {
            op(true)?;
        }
    }
    Ok(())
}

/// Timed samples (nanoseconds) plus the operations of one rank. Both
/// ranks of a phase number their operations alike, so the failures two
/// ranks see in one operation count once.
#[derive(Debug, Default)]
pub struct Tally {
    pub samples: Vec<u64>,
    pub attempted: u64,
    /// Numbers of the operations whose output failed its check.
    pub failed: Vec<u64>,
}

impl Tally {
    /// Count one operation and whether its output checked out.
    pub fn check(&mut self, ok: bool) {
        if !ok {
            self.failed.push(self.attempted);
        }
        self.attempted += 1;
    }
}

/// Nanoseconds since a fixed origin shared by every rank of a run.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Clock {
        Clock(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// One timed call into a layer, recorded from outside the layer.
/// `step` is shared by every span of one operation; the span named
/// `bench.step` of that operation is the parent of the others.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub rank: usize,
    pub phase: &'static str,
    pub layer: &'static str,
    pub call: &'static str,
    pub step: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory while a phase runs, written out at the end.
/// A disabled log records nothing; a full one keeps its first spans.
pub struct SpanLog {
    enabled: bool,
    rank: usize,
    phase: &'static str,
    spans: Vec<Span>,
}

/// Spans kept per rank and phase; enough for every percentile the
/// benchmark reports, small enough to write out quickly.
const SPAN_CAP: usize = 2_000;

impl SpanLog {
    pub fn new(enabled: bool, rank: usize, phase: &'static str) -> SpanLog {
        SpanLog {
            enabled,
            rank,
            phase,
            spans: Vec::with_capacity(if enabled { SPAN_CAP } else { 0 }),
        }
    }

    pub fn record(
        &mut self,
        layer: &'static str,
        call: &'static str,
        step: u64,
        start: u64,
        end: u64,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == SPAN_CAP {
            return;
        }
        self.spans.push(Span {
            rank: self.rank,
            phase: self.phase,
            layer,
            call,
            step,
            start_ns: start,
            end_ns: end,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Percentile `q` (0..=100) of nanosecond samples, linearly
/// interpolated, in microseconds. `None` for no samples.
pub fn percentile_us(samples: &[u64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let v = sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac;
    Some(v / 1000.0)
}

/// Median of plain values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Durations of the spans named `layer`/`call`, in nanoseconds.
pub fn durations(spans: &[Span], layer: &str, call: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.call == call)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Times `op` in a loop for about `run_for` and returns per-call
/// samples (nanoseconds). Used for the standalone calls into one layer.
pub fn time_calls(run_for: Duration, mut op: impl FnMut()) -> Vec<u64> {
    for _ in 0..3 {
        op();
    }
    let clock = Clock::new();
    let end = run_for.as_nanos() as u64;
    let mut samples = Vec::new();
    loop {
        let t0 = clock.now();
        op();
        let t1 = clock.now();
        samples.push(t1 - t0);
        if t1 >= end {
            return samples;
        }
    }
}
