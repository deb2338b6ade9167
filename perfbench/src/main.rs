//! The repository benchmark: three closed-loop workloads driven through
//! the public APIs of the three program layers, timed from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-latency|figure5-bandwidth|jacobi-halo> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Every run uses two ranks (one thread each) in one process on the
//! `ShmFast` device, with no progress thread, no faults, no synthetic
//! device costs and the default JNI configuration, all set in code.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics, measured by running the same operation through
//! each layer (device endpoint, native engine, classic wrapper) and
//! differencing, the way the paper's Table 1 splits one message. The
//! last stdout line is the result as one JSON object; the lines before
//! it, starting with `#`, give the resolved configuration, the host and
//! (traced) a readout shaped like the paper's Table 1 and Figure 5. The
//! same record goes to `perfbench/out/<workload>-trace<t>.json`, and a
//! traced run writes its spans to `perfbench/out/spans-<workload>.jsonl`.

mod common;
mod host;
mod jacobi;
mod pingpong;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mpi_native::{DatatypeDef, EngineStats, PrimitiveKind};
use mpi_transport::{Endpoint, Fabric, FabricConfig};
use mpijava::buffer::{bytes_to_elements, elements_to_bytes};
use mpijava::{
    Datatype, DeviceKind, DeviceProfile, FaultPlan, JniConfig, MpiResult, MpiRuntime, NetworkModel,
    Op, ProgressMode, TraceConfig, DEFAULT_LEASE, MPI,
};

use common::{
    drive, durations, median, percentile_us, time_calls, Clock, Pacer, Rng, Span, SpanLog, Tally,
};

/// Every timed phase is split into this many rounds, each on a freshly
/// started runtime. Where the scheduler first places the two rank
/// threads holds for a whole runtime and moves the latency by about a
/// tenth, and outside interference comes in bursts that spoil a few
/// rounds; many short rounds sample both finely.
const ROUNDS: usize = 48;
/// Runtime starts timed per end-to-end run, spread over its rounds;
/// `setup_s` is their median.
const SETUP_REPS: usize = 192;
/// A run that has not finished by then is stuck; it exits with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table1,
    Figure5,
    Jacobi,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Table1, Workload::Figure5, Workload::Jacobi];

    fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1-latency",
            Workload::Figure5 => "figure5-bandwidth",
            Workload::Jacobi => "jacobi-halo",
        }
    }
}

/// Everything a workload needs, generated from the seed before any
/// timing starts.
enum Inputs {
    Ping {
        payloads: pingpong::Payloads,
        /// Warmup operations and operations per batch.
        pace: (usize, usize),
    },
    Jacobi {
        problem: jacobi::Problem,
    },
}

fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    match workload {
        // The paper's Table 1 cell: one byte, fixed per-message cost only.
        Workload::Table1 => Inputs::Ping {
            payloads: pingpong::Payloads::new(&mut rng, 1, 4),
            pace: (200, 64),
        },
        // Figure 5's convergence point and the wrapper gate's size.
        Workload::Figure5 => Inputs::Ping {
            payloads: pingpong::Payloads::new(&mut rng, 256 * 1024, 4),
            pace: (5, 2),
        },
        Workload::Jacobi => Inputs::Jacobi {
            problem: jacobi::Problem::new(&mut rng),
        },
    }
}

/// Warmup steps and steps per batch of the Jacobi loops.
const JACOBI_WARMUP: usize = 5;
const JACOBI_BATCH: usize = 2;

/// The measured program, with every knob set here rather than left to
/// the environment.
fn runtime(traced: bool) -> MpiRuntime {
    MpiRuntime::new(2)
        .device(DeviceKind::ShmFast)
        .network(NetworkModel::unshaped())
        .profile(DeviceProfile::free())
        .eager_threshold(mpi_native::DEFAULT_EAGER_THRESHOLD)
        .progress(ProgressMode::Manual)
        .faults(FaultPlan::none())
        .lease(DEFAULT_LEASE)
        .jni(JniConfig::default())
        .trace(if traced {
            TraceConfig::counters()
        } else {
            TraceConfig::off()
        })
}

/// Runs `f` on both ranks of a fresh runtime and finalizes. A rank that
/// fails panics, which makes the runtime abort the other rank instead
/// of leaving it blocked.
fn on_ranks<T: Send>(
    traced: bool,
    f: impl Fn(&MPI, usize) -> MpiResult<T> + Send + Sync,
) -> MpiResult<Vec<T>> {
    runtime(traced).run(|mpi| {
        let rank = mpi.comm_world().rank()?;
        match f(mpi, rank) {
            Ok(value) => {
                mpi.finalize()?;
                Ok(value)
            }
            Err(e) => panic!("rank {rank} failed: {e}"),
        }
    })
}

/// Runs `f` on two threads, each owning one endpoint of a raw device.
fn on_device<T: Send>(f: impl Fn(Box<dyn Endpoint>) -> MpiResult<T> + Sync) -> MpiResult<Vec<T>> {
    let config = FabricConfig::new(2, DeviceKind::ShmFast).with_frame_counters(true);
    let endpoints = Fabric::build(config)
        .map_err(pingpong::device_error)?
        .into_endpoints();
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| s.spawn(move || f(ep)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("device rank thread panicked"))
            .collect()
    })
}

/// `setup_s` samples: from `MpiRuntime::run` until both ranks hold the
/// program objects their first operation needs. The benchmark's own
/// buffers are made beforehand, so only the program's set-up is timed.
fn setup_times(
    reps: usize,
    prepare: &(impl Fn(&MPI) -> MpiResult<()> + Send + Sync),
) -> MpiResult<Vec<f64>> {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            let ready = on_ranks(false, |mpi, _| {
                prepare(mpi)?;
                Ok(Instant::now())
            })?;
            let last = ready.into_iter().max().expect("two ranks");
            Ok((last - start).as_secs_f64())
        })
        .collect()
}

fn share(seconds: f64, fraction: f64) -> Duration {
    Duration::from_secs_f64(seconds * fraction)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Percentile `q` in microseconds of samples taken over several
/// rounds: the median of the per-round percentiles. A burst of
/// interference from outside the benchmark spoils a few whole rounds,
/// and the median ignores them as long as they are under half.
fn p(rounds: &[Vec<u64>], q: f64) -> f64 {
    let each: Vec<f64> = rounds.iter().filter_map(|r| percentile_us(r, q)).collect();
    if each.is_empty() {
        return f64::NAN;
    }
    median(&each)
}

/// Percentile `q` in microseconds of one sequence of samples.
fn plain(samples: &[u64], q: f64) -> f64 {
    percentile_us(samples, q).unwrap_or(f64::NAN)
}

/// What one run reports.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    config: Vec<(&'static str, String)>,
    readout: Vec<String>,
    spans: Vec<Span>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }

    /// Counts the operations of one phase, given every rank's tally: an
    /// operation fails when its check fails on any rank.
    fn count(&mut self, tallies: &[&Tally]) {
        self.attempted += tallies.first().map_or(0, |t| t.attempted);
        let failed: BTreeSet<u64> = tallies
            .iter()
            .flat_map(|t| t.failed.iter().copied())
            .collect();
        self.failed += failed.len() as u64;
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }
}

/// The engine's knobs as resolved inside a rank.
fn resolved_config(traced: bool) -> MpiResult<Vec<(&'static str, String)>> {
    let rank0 = on_ranks(traced, |mpi, _| {
        Ok(mpi.with_engine(|e| {
            (
                e.eager_threshold(),
                e.segment_bytes(),
                e.coll_algorithm(),
                e.trace_config().mode,
            )
        }))
    })?;
    let (eager, segment, coll, trace) = rank0[0];
    let jni = JniConfig::default();
    Ok(vec![
        ("ranks", "2".to_string()),
        ("device", json_str(DeviceKind::ShmFast.label())),
        ("progress", json_str("manual")),
        ("faults", json_str("none")),
        ("device_profile", json_str("free")),
        ("network", json_str("unshaped")),
        ("trace_mode", json_str(trace.label())),
        ("jni_marshal", json_str(&format!("{:?}", jni.marshal))),
        ("jni_per_call_ns", jni.per_call_cost.as_nanos().to_string()),
        ("eager_threshold", eager.to_string()),
        (
            "segment_bytes",
            segment.map_or("null".to_string(), |s| s.to_string()),
        ),
        ("coll_algorithm", json_str(&format!("{coll:?}"))),
    ])
}

fn run_workload(workload: Workload, seed: u64, seconds: f64, traced: bool) -> MpiResult<Report> {
    let inputs = inputs(workload, seed);
    let mut report = Report {
        config: resolved_config(traced)?,
        ..Report::default()
    };
    match (&inputs, traced) {
        (Inputs::Ping { payloads, pace }, false) => {
            ping_end_to_end(payloads, *pace, seconds, &mut report)?
        }
        (Inputs::Ping { payloads, pace }, true) => {
            ping_layers(workload, payloads, *pace, seconds, &mut report)?
        }
        (Inputs::Jacobi { problem }, false) => jacobi_end_to_end(problem, seconds, &mut report)?,
        (Inputs::Jacobi { problem }, true) => jacobi_layers(problem, seconds, &mut report)?,
    }
    Ok(report)
}

// ---------------------------------------------------------------------
// Ping-pong workloads
// ---------------------------------------------------------------------

/// A ping-pong phase on a fresh runtime, without spans.
fn ping_phase<L: pingpong::PingLayer>(
    traced: bool,
    payloads: &pingpong::Payloads,
    pacer: &Pacer,
    clock: Clock,
    (warmup, batch): (usize, usize),
    make: impl Fn(&MPI) -> MpiResult<L> + Send + Sync,
) -> MpiResult<Vec<Tally>> {
    on_ranks(traced, |mpi, rank| {
        let mut layer = make(mpi)?;
        let mut log = SpanLog::new(false, rank, "");
        pingpong::run(
            &mut layer, rank, payloads, pacer, clock, &mut log, warmup, batch,
        )
    })
}

/// One-way times are half of rank 0's round trips.
fn one_way(rounds: &[Vec<u64>], q: f64) -> f64 {
    p(rounds, q) / 2.0
}

fn ping_end_to_end(
    payloads: &pingpong::Payloads,
    pace: (usize, usize),
    seconds: f64,
    report: &mut Report,
) -> MpiResult<()> {
    // Rank 0 and the communicator are looked up by `on_ranks` itself.
    let prepare = |_: &MPI| {
        let _byte = Datatype::byte();
        Ok(())
    };
    let clock = Clock::new();
    let (mut setups, mut classic, mut rs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        setups.extend(setup_times(SETUP_REPS / ROUNDS, &prepare)?);
        let pacer = Pacer::new(share(seconds, 0.6 / ROUNDS as f64));
        let mut c = ping_phase(false, payloads, &pacer, clock, pace, |mpi| {
            pingpong::Classic::new(mpi, payloads)
        })?;
        report.count(&[&c[0], &c[1]]);
        classic.push(std::mem::take(&mut c[0].samples));
        let pacer = Pacer::new(share(seconds, 0.4 / ROUNDS as f64));
        let mut r = ping_phase(false, payloads, &pacer, clock, pace, |mpi| {
            pingpong::idiomatic::Rs::new(mpi, payloads)
        })?;
        report.count(&[&r[0], &r[1]]);
        rs.push(std::mem::take(&mut r[0].samples));
    }
    let one_way_p50 = one_way(&classic, 50.0);
    report.metric("setup_s", median(&setups), "s");
    report.metric("op_us_p50", one_way_p50, "us");
    report.metric("op_us_p90", one_way(&classic, 90.0), "us");
    report.metric("mb_per_s", payloads.size() as f64 / one_way_p50, "MB/s");
    report.metric("rs_op_us_p50", one_way(&rs, 50.0), "us");
    Ok(())
}

/// What one rank brings back from one round of the traced runtime.
struct RankLayers {
    classic: Tally,
    rs: Tally,
    native: Tally,
    coll: Tally,
    counters: PhaseCounters,
    coll_counters: PhaseCounters,
    spans: Vec<Span>,
}

/// Counter movement across one phase of one rank.
#[derive(Default, Clone, Copy)]
struct PhaseCounters {
    jni_calls: u64,
    jni_in: u64,
    jni_out: u64,
    bytes_copied: u64,
    eager: u64,
    rendezvous: u64,
    unexpected: u64,
    posted: u64,
    cache_hits: u64,
    cache_misses: u64,
    frames_sent: u64,
}

struct Snapshot {
    jni: mpijava::JniStatsSnapshot,
    engine: EngineStats,
    frames_sent: u64,
}

impl Snapshot {
    fn take(mpi: &MPI) -> Snapshot {
        let frames_sent = mpi
            .metrics_snapshot()
            .pvars
            .iter()
            .find(|p| p.name == "transport.frames_sent")
            .map_or(0, |p| p.value as u64);
        Snapshot {
            jni: mpi.jni_stats(),
            engine: mpi.engine_stats(),
            frames_sent,
        }
    }

    fn since(&self, before: &Snapshot) -> PhaseCounters {
        let (a, b) = (&self.engine, &before.engine);
        PhaseCounters {
            jni_calls: self.jni.calls - before.jni.calls,
            jni_in: self.jni.bytes_in - before.jni.bytes_in,
            jni_out: self.jni.bytes_out - before.jni.bytes_out,
            bytes_copied: a.bytes_copied - b.bytes_copied,
            eager: a.eager_sends - b.eager_sends,
            rendezvous: a.rendezvous_sends - b.rendezvous_sends,
            unexpected: a.unexpected_hits - b.unexpected_hits,
            posted: a.posted_hits - b.posted_hits,
            cache_hits: a.sched_cache_hits - b.sched_cache_hits,
            cache_misses: a.sched_cache_misses - b.sched_cache_misses,
            frames_sent: self.frames_sent - before.frames_sent,
        }
    }
}

fn sum_counters(all: &[PhaseCounters]) -> PhaseCounters {
    all.iter()
        .fold(PhaseCounters::default(), |acc, c| PhaseCounters {
            jni_calls: acc.jni_calls + c.jni_calls,
            jni_in: acc.jni_in + c.jni_in,
            jni_out: acc.jni_out + c.jni_out,
            bytes_copied: acc.bytes_copied + c.bytes_copied,
            eager: acc.eager + c.eager,
            rendezvous: acc.rendezvous + c.rendezvous,
            unexpected: acc.unexpected + c.unexpected,
            posted: acc.posted + c.posted,
            cache_hits: acc.cache_hits + c.cache_hits,
            cache_misses: acc.cache_misses + c.cache_misses,
            frames_sent: acc.frames_sent + c.frames_sent,
        })
}

/// Classic `Intracomm.Allreduce(MAX)` of one `double`, for the
/// collective layer of the ping-pong workloads. Each rank times its call.
fn allreduce_probe(
    mpi: &MPI,
    rank: usize,
    pacer: &Pacer,
    clock: Clock,
    log: &mut SpanLog,
) -> MpiResult<Tally> {
    let world = mpi.comm_world();
    let (double, max) = (Datatype::double(), Op::max());
    let mut tally = Tally::default();
    let mut step = 0u64;
    drive(pacer, rank, 16, 16, |timed| {
        let mut out = [0.0f64];
        let t0 = clock.now();
        world.allreduce(
            &[(rank as u64 + step) as f64],
            0,
            &mut out,
            0,
            1,
            &double,
            &max,
        )?;
        let t1 = clock.now();
        if timed {
            tally.samples.push(t1 - t0);
            log.record("mpijava", "Intracomm.Allreduce", step, t0, t1);
        }
        tally.check(out[0] == (1 + step) as f64);
        step += 1;
        Ok(())
    })?;
    Ok(tally)
}

/// Per step of a span log: the time outside calls into the program, and
/// the totals of step time and of time inside the program.
fn split_steps(spans: &[Span]) -> (Vec<u64>, u64, u64) {
    let mut steps: Vec<(u64, u64)> = Vec::new();
    for s in spans {
        let d = s.end_ns - s.start_ns;
        if s.layer == "bench" && s.call == "step" {
            steps.push((d, 0));
        } else if s.layer != "bench" {
            if let Some(last) = steps.last_mut() {
                last.1 += d;
            }
        }
    }
    let own = steps.iter().map(|(t, c)| t.saturating_sub(*c)).collect();
    let total = steps.iter().map(|s| s.0).sum();
    let comm = steps.iter().map(|s| s.1).sum();
    (own, total, comm)
}

/// Standalone calls into the marshal layer (`buffer`) and the engine's
/// datatype engine (`pack`), each given a fifth of `budget`.
struct Micro {
    to_bytes: f64,
    from_bytes: f64,
    memcpy: f64,
    pack: f64,
    unpack: f64,
}

fn micro<T: mpijava::BufferElement>(
    elems: &[T],
    image: &[u8],
    offset: usize,
    count: usize,
    def: &DatatypeDef,
    budget: Duration,
) -> MpiResult<Micro> {
    use std::hint::black_box;
    let slot = budget / 5;
    let mut back = elems.to_vec();
    let bytes = elements_to_bytes(elems, 0, elems.len());
    let mut copy = vec![0u8; bytes.len()];
    let to_bytes = time_calls(slot, || {
        black_box(elements_to_bytes(black_box(elems), 0, elems.len()));
    });
    let from_bytes = time_calls(slot, || {
        black_box(bytes_to_elements(
            black_box(&mut back[..]),
            0,
            black_box(&bytes),
        ));
    });
    let memcpy = time_calls(slot, || {
        black_box(&mut copy[..]).copy_from_slice(black_box(&bytes));
    });
    // One checked call each; the timed calls repeat them exactly.
    let wire = mpi_native::pack::pack(image, offset, count, def)?;
    let mut target = image.to_vec();
    mpi_native::pack::unpack(&wire, &mut target, offset, count, def)?;
    let pack = time_calls(slot, || {
        black_box(
            mpi_native::pack::pack(black_box(image), offset, count, def).expect("packed above"),
        );
    });
    let unpack = time_calls(slot, || {
        let wire = black_box(&wire);
        black_box(
            mpi_native::pack::unpack(wire, &mut target, offset, count, def)
                .expect("unpacked above"),
        );
    });
    Ok(Micro {
        to_bytes: plain(&to_bytes, 50.0),
        from_bytes: plain(&from_bytes, 50.0),
        memcpy: plain(&memcpy, 50.0),
        pack: plain(&pack, 50.0),
        unpack: plain(&unpack, 50.0),
    })
}

fn report_micro(report: &mut Report, m: &Micro) {
    report.metric("marshal.to_bytes_us", m.to_bytes, "us");
    report.metric("marshal.from_bytes_us", m.from_bytes, "us");
    report.metric("marshal.memcpy_us", m.memcpy, "us");
    report.metric("pack.pack_us", m.pack, "us");
    report.metric("pack.unpack_us", m.unpack, "us");
}

/// The counter-derived metrics of the classic transfer phase.
fn report_counters(report: &mut Report, c: &PhaseCounters, messages: u64, payload_bytes: u64) {
    let msgs = messages as f64;
    report.metric(
        "device.frames_per_msg",
        ratio(c.frames_sent as f64, msgs),
        "count",
    );
    report.metric(
        "engine.bytes_copied_per_msg",
        ratio(c.bytes_copied as f64, msgs),
        "B",
    );
    report.metric(
        "engine.rendezvous_share",
        ratio(c.rendezvous as f64, (c.rendezvous + c.eager) as f64),
        "ratio",
    );
    report.metric(
        "engine.unexpected_share",
        ratio(c.unexpected as f64, (c.unexpected + c.posted) as f64),
        "ratio",
    );
    report.metric(
        "jni.calls_per_msg",
        ratio(c.jni_calls as f64, msgs),
        "count",
    );
    report.metric("jni.bytes_in_per_msg", ratio(c.jni_in as f64, msgs), "B");
    report.metric("jni.bytes_out_per_msg", ratio(c.jni_out as f64, msgs), "B");
    report.metric(
        "jni.marshal_bytes_per_payload_byte",
        ratio(c.jni_in as f64, payload_bytes as f64),
        "ratio",
    );
}

/// The layer times and their differences.
fn report_layers(report: &mut Report, device: f64, engine: f64, wrapper: f64, rs: f64) {
    report.metric("device.xfer_us_p50", device, "us");
    report.metric("engine.xfer_us_p50", engine, "us");
    report.metric("engine.self_us", engine - device, "us");
    report.metric("wrapper.xfer_us_p50", wrapper, "us");
    report.metric("wrapper.self_us", wrapper - engine, "us");
    report.metric("rs.xfer_us_p50", rs, "us");
}

/// A ping-pong phase with spans, which it appends to `spans`.
#[allow(clippy::too_many_arguments)]
fn ping_traced<L: pingpong::PingLayer>(
    layer: &mut L,
    rank: usize,
    payloads: &pingpong::Payloads,
    pacer: &Pacer,
    clock: Clock,
    (warmup, batch): (usize, usize),
    phase: &'static str,
    spans: &mut Vec<Span>,
) -> MpiResult<Tally> {
    let mut log = SpanLog::new(true, rank, phase);
    let tally = pingpong::run(layer, rank, payloads, pacer, clock, &mut log, warmup, batch)?;
    spans.extend(log.into_spans());
    Ok(tally)
}

fn ping_layers(
    workload: Workload,
    payloads: &pingpong::Payloads,
    pace: (usize, usize),
    seconds: f64,
    report: &mut Report,
) -> MpiResult<()> {
    let clock = Clock::new();
    let round = |fraction: f64| Pacer::new(share(seconds, fraction / ROUNDS as f64));
    let mut untraced = Vec::new();
    let (mut classic, mut rs, mut native, mut device, mut coll) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut counters, mut coll_counters, mut messages) = (Vec::new(), Vec::new(), 0);
    for _ in 0..ROUNDS {
        let mut u = ping_phase(false, payloads, &round(0.15), clock, pace, |mpi| {
            pingpong::Classic::new(mpi, payloads)
        })?;
        report.count(&[&u[0], &u[1]]);
        untraced.push(std::mem::take(&mut u[0].samples));

        let pacers = [0.25, 0.1, 0.15, 0.05].map(round);
        let mut ranks = on_ranks(true, |mpi, rank| {
            let mut spans = Vec::new();
            let mut layer = pingpong::Classic::new(mpi, payloads)?;
            let before = Snapshot::take(mpi);
            let classic = ping_traced(
                &mut layer, rank, payloads, &pacers[0], clock, pace, "classic", &mut spans,
            )?;
            let counters = Snapshot::take(mpi).since(&before);
            let mut layer = pingpong::idiomatic::Rs::new(mpi, payloads)?;
            let rs = ping_traced(
                &mut layer, rank, payloads, &pacers[1], clock, pace, "rs", &mut spans,
            )?;
            let mut layer = pingpong::Native::new(mpi, payloads)?;
            let native = ping_traced(
                &mut layer, rank, payloads, &pacers[2], clock, pace, "native", &mut spans,
            )?;

            let mut log = SpanLog::new(true, rank, "allreduce");
            let before = Snapshot::take(mpi);
            let coll = allreduce_probe(mpi, rank, &pacers[3], clock, &mut log)?;
            let coll_counters = Snapshot::take(mpi).since(&before);
            spans.extend(log.into_spans());
            Ok(RankLayers {
                classic,
                rs,
                native,
                coll,
                counters,
                coll_counters,
                spans,
            })
        })?;
        let pacer = round(0.15);
        let mut dev = on_device(|endpoint| {
            let rank = endpoint.rank();
            let mut layer = pingpong::Device::new(endpoint, payloads);
            let mut spans = Vec::new();
            let tally = ping_traced(
                &mut layer, rank, payloads, &pacer, clock, pace, "device", &mut spans,
            )?;
            Ok((tally, spans))
        })?;

        let (r0, r1) = (&ranks[0], &ranks[1]);
        report.count(&[&r0.classic, &r1.classic]);
        report.count(&[&r0.rs, &r1.rs]);
        report.count(&[&r0.native, &r1.native]);
        report.count(&[&r0.coll, &r1.coll]);
        report.count(&[&dev[0].0, &dev[1].0]);
        counters.extend([r0.counters, r1.counters]);
        coll_counters.extend([r0.coll_counters, r1.coll_counters]);
        messages += r0.classic.attempted + r1.classic.attempted;
        let mut both = r0.coll.samples.clone();
        both.extend(&r1.coll.samples);
        coll.push(both);
        let r0 = &mut ranks[0];
        classic.push(std::mem::take(&mut r0.classic.samples));
        rs.push(std::mem::take(&mut r0.rs.samples));
        native.push(std::mem::take(&mut r0.native.samples));
        device.push(std::mem::take(&mut dev[0].0.samples));
        for r in ranks {
            report.spans.extend(r.spans);
        }
        for (_, spans) in dev {
            report.spans.extend(spans);
        }
    }

    let payload = payloads.size();
    let def = DatatypeDef::basic(PrimitiveKind::Byte);
    let m = micro(
        &payloads.vecs[0],
        &payloads.vecs[0],
        0,
        payload,
        &def,
        share(seconds, 0.1),
    )?;

    // The serial reference of one round trip: the payload copied there
    // and back by one thread.
    let mut there = vec![0u8; payload];
    let mut back = vec![0u8; payload];
    let serial = time_calls(share(seconds, 0.05), || {
        there.copy_from_slice(std::hint::black_box(&payloads.vecs[0]));
        back.copy_from_slice(std::hint::black_box(&there));
    });

    let device_us = one_way(&device, 50.0);
    let engine_us = one_way(&native, 50.0);
    let wrapper_us = one_way(&classic, 50.0);
    let rs_us = one_way(&rs, 50.0);
    report_layers(report, device_us, engine_us, wrapper_us, rs_us);
    report_counters(
        report,
        &sum_counters(&counters),
        messages,
        messages * payload as u64,
    );
    report_micro(report, &m);

    let cc = sum_counters(&coll_counters);
    report.metric("coll.allreduce_us_p50", p(&coll, 50.0), "us");
    report.metric("coll.allreduce_us_p90", p(&coll, 90.0), "us");
    report.metric(
        "coll.sched_cache_hit_share",
        ratio(
            cc.cache_hits as f64,
            (cc.cache_hits + cc.cache_misses) as f64,
        ),
        "ratio",
    );

    let classic_spans: Vec<Span> = report
        .spans
        .iter()
        .filter(|s| s.phase == "classic" && s.rank == 0)
        .copied()
        .collect();
    let (own, total, comm) = split_steps(&classic_spans);
    report.metric("step.compute_us_p50", plain(&own, 50.0), "us");
    report.metric("step.comm_share", ratio(comm as f64, total as f64), "ratio");
    report.metric("serial.step_us", plain(&serial, 50.0), "us");
    let untraced_us = one_way(&untraced, 50.0);
    report.metric(
        "trace.overhead_share",
        ratio(wrapper_us - untraced_us, untraced_us),
        "ratio",
    );

    let size = if payload == 1 {
        "1 B".to_string()
    } else {
        format!("{} KiB", payload / 1024)
    };
    let mb = |us: f64| payload as f64 / us;
    match workload {
        Workload::Table1 => report.readout.push(format!(
            "Table 1, SM, {size} one-way p50: device (Wsock) {device_us:.2} us | engine (WMPI-C) {engine_us:.2} us | classic (WMPI-J) {wrapper_us:.2} us | rs {rs_us:.2} us; classic/engine = {:.3} (base: engine {engine_us:.2} us); rs/engine = {:.3} (base: engine {engine_us:.2} us)",
            wrapper_us / engine_us,
            rs_us / engine_us,
        )),
        _ => {
            report.readout.push(format!(
                "Figure 5, SM, {size}: bandwidth device {:.1} | engine (C) {:.1} | classic (J) {:.1} | rs {:.1} MB/s",
                mb(device_us),
                mb(engine_us),
                mb(wrapper_us),
                mb(rs_us),
            ));
            report.readout.push(format!(
                "J/C classic = {:.3}, J/C rs = {:.3} (base: engine one-way {engine_us:.2} us); gate J/C >= 0.7: {}; gate rs <= 1.5x engine ({:.3}x): {}",
                engine_us / wrapper_us,
                engine_us / rs_us,
                verdict(engine_us / wrapper_us >= 0.7),
                rs_us / engine_us,
                verdict(rs_us <= 1.5 * engine_us),
            ));
        }
    }
    Ok(())
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "met"
    } else {
        "not met"
    }
}

// ---------------------------------------------------------------------
// Jacobi workload
// ---------------------------------------------------------------------

/// One rank's steps of one round, with its spans and counters.
type RankSteps = (jacobi::Steps, Vec<Span>, PhaseCounters);

fn jacobi_steps<H: jacobi::Halo>(
    traced: bool,
    phase: &'static str,
    problem: &jacobi::Problem,
    pacer: &Pacer,
    clock: Clock,
    make: impl Fn(&MPI) -> MpiResult<H> + Send + Sync,
) -> MpiResult<Vec<RankSteps>> {
    on_ranks(traced, |mpi, rank| {
        let mut local = jacobi::Local::new(problem, rank);
        let mut halo = make(mpi)?;
        let mut log = SpanLog::new(traced, rank, phase);
        let before = Snapshot::take(mpi);
        let steps = jacobi::steps(
            &mut halo,
            &mut local,
            pacer,
            clock,
            &mut log,
            JACOBI_WARMUP,
            JACOBI_BATCH,
        )?;
        Ok((steps, log.into_spans(), Snapshot::take(mpi).since(&before)))
    })
}

/// The step time of a two-rank step is set by the slower rank.
fn slower_rank(ranks: &[RankSteps]) -> Vec<u64> {
    ranks[0]
        .0
        .samples
        .iter()
        .zip(&ranks[1].0.samples)
        .map(|(a, b)| *a.max(b))
        .collect()
}

/// Checks every run of steps against the serial reference: the residual
/// after every step and the final grid (by fingerprint) must be
/// bit-identical.
fn verify_jacobi(problem: &jacobi::Problem, runs: &[Vec<RankSteps>], report: &mut Report) {
    let longest = runs
        .iter()
        .flat_map(|r| r.iter().map(|s| s.0.residuals.len()))
        .max()
        .unwrap_or(0);
    let mut serial = jacobi::Serial::new(problem);
    let mut residuals = Vec::with_capacity(longest);
    let mut grids: BTreeMap<usize, [u64; 2]> = BTreeMap::new();
    let wanted: BTreeSet<usize> = runs.iter().map(|r| r[0].0.residuals.len()).collect();
    for n in 1..=longest {
        residuals.push(serial.step());
        if wanted.contains(&n) {
            grids.insert(n, [serial.owned_print(0), serial.owned_print(1)]);
        }
    }
    for run in runs {
        // One operation per step; the last one also checks the grid.
        let n = run[0].0.residuals.len();
        let tallies: Vec<Tally> = run
            .iter()
            .enumerate()
            .map(|(rank, (steps, _, _))| {
                let grid_ok = grids.get(&n).is_some_and(|g| g[rank] == steps.owned_print);
                let mut tally = Tally::default();
                for (i, want) in residuals[..n].iter().enumerate() {
                    let step_ok = steps
                        .residuals
                        .get(i)
                        .is_some_and(|r| r.to_bits() == want.to_bits());
                    tally.check(step_ok && (i + 1 < n || grid_ok));
                }
                tally
            })
            .collect();
        report.count(&[&tallies[0], &tallies[1]]);
    }
}

fn jacobi_end_to_end(
    problem: &jacobi::Problem,
    seconds: f64,
    report: &mut Report,
) -> MpiResult<()> {
    let prepare = |mpi: &MPI| jacobi::Classic::new(mpi).map(drop);
    let clock = Clock::new();
    let round = |fraction: f64| Pacer::new(share(seconds, fraction / ROUNDS as f64));
    let (mut setups, mut classic, mut rs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        setups.extend(setup_times(SETUP_REPS / ROUNDS, &prepare)?);
        classic.push(jacobi_steps(
            false,
            "classic",
            problem,
            &round(0.6),
            clock,
            jacobi::Classic::new,
        )?);
        rs.push(jacobi_steps(
            false,
            "rs",
            problem,
            &round(0.4),
            clock,
            jacobi::idiomatic::Rs::new,
        )?);
    }
    verify_jacobi(problem, &classic, report);
    verify_jacobi(problem, &rs, report);

    let steps: Vec<Vec<u64>> = classic.iter().map(|r| slower_rank(r)).collect();
    let step_p50 = p(&steps, 50.0);
    report.metric("setup_s", median(&setups), "s");
    report.metric("op_us_p50", step_p50, "us");
    report.metric("op_us_p90", p(&steps, 90.0), "us");
    // Both ranks send one column per step.
    report.metric(
        "mb_per_s",
        2.0 * jacobi::COLUMN_BYTES as f64 / step_p50,
        "MB/s",
    );
    let rs_steps: Vec<Vec<u64>> = rs.iter().map(|r| slower_rank(r)).collect();
    report.metric("rs_op_us_p50", p(&rs_steps, 50.0), "us");
    Ok(())
}

/// An exchange-only phase with spans, which it appends to `spans`.
fn exchange_phase<X: jacobi::Exchange>(
    x: &mut X,
    rank: usize,
    pacer: &Pacer,
    clock: Clock,
    phase: &'static str,
    spans: &mut Vec<Span>,
) -> MpiResult<Tally> {
    let mut log = SpanLog::new(true, rank, phase);
    let tally = jacobi::exchanges(x, rank, pacer, clock, &mut log, JACOBI_WARMUP, JACOBI_BATCH)?;
    spans.extend(log.into_spans());
    Ok(tally)
}

fn jacobi_layers(problem: &jacobi::Problem, seconds: f64, report: &mut Report) -> MpiResult<()> {
    let clock = Clock::new();
    let round = |fraction: f64| Pacer::new(share(seconds, fraction / ROUNDS as f64));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut classic, mut rs, mut native, mut device) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut counters, mut messages) = (Vec::new(), 0);
    for _ in 0..ROUNDS {
        untraced.push(jacobi_steps(
            false,
            "untraced",
            problem,
            &round(0.15),
            clock,
            jacobi::Classic::new,
        )?);
        traced.push(jacobi_steps(
            true,
            "steps",
            problem,
            &round(0.2),
            clock,
            jacobi::Classic::new,
        )?);

        let pacers = [0.1, 0.1, 0.1, 0.1].map(round);
        let mut ranks = on_ranks(true, |mpi, rank| {
            let local = || jacobi::Local::new(problem, rank);
            let mut spans = Vec::new();
            let mut x = jacobi::HaloExchange {
                halo: jacobi::Classic::new(mpi)?,
                local: local(),
            };
            let before = Snapshot::take(mpi);
            let classic = exchange_phase(&mut x, rank, &pacers[0], clock, "classic", &mut spans)?;
            let counters = Snapshot::take(mpi).since(&before);
            let mut x = jacobi::HaloExchange {
                halo: jacobi::idiomatic::Rs::new(mpi)?,
                local: local(),
            };
            let rs = exchange_phase(&mut x, rank, &pacers[1], clock, "rs", &mut spans)?;
            let mut x = jacobi::Native::new(mpi, &local())?;
            let native = exchange_phase(&mut x, rank, &pacers[2], clock, "native", &mut spans)?;
            Ok((classic, rs, native, counters, spans))
        })?;
        let mut dev = on_device(|endpoint| {
            let rank = endpoint.rank();
            let mut x = jacobi::Device::new(endpoint, &jacobi::Local::new(problem, rank));
            let mut spans = Vec::new();
            let tally = exchange_phase(&mut x, rank, &pacers[3], clock, "device", &mut spans)?;
            Ok((tally, spans))
        })?;

        let (c0, c1) = (&ranks[0], &ranks[1]);
        report.count(&[&c0.0, &c1.0]);
        report.count(&[&c0.1, &c1.1]);
        report.count(&[&c0.2, &c1.2]);
        report.count(&[&dev[0].0, &dev[1].0]);
        counters.extend([c0.3, c1.3]);
        messages += c0.0.attempted + c1.0.attempted;
        let c0 = &mut ranks[0];
        classic.push(std::mem::take(&mut c0.0.samples));
        rs.push(std::mem::take(&mut c0.1.samples));
        native.push(std::mem::take(&mut c0.2.samples));
        device.push(std::mem::take(&mut dev[0].0.samples));
        for (_, _, _, _, spans) in ranks {
            report.spans.extend(spans);
        }
        for (_, spans) in dev {
            report.spans.extend(spans);
        }
    }
    verify_jacobi(problem, &untraced, report);
    verify_jacobi(problem, &traced, report);

    // Standalone calls on rank 0's send side: the whole strided span the
    // wrapper marshals for one column, and the column pack itself.
    let local = jacobi::Local::new(problem, 0);
    let span = (jacobi::ROWS - 1) * jacobi::STRIDE + 1;
    let first = jacobi::send_col(0);
    let image: Vec<u8> = local.a.iter().flat_map(|v| v.to_le_bytes()).collect();
    let m = micro(
        &local.a[first..first + span],
        &image,
        first * 8,
        1,
        &jacobi::column_def(),
        share(seconds, 0.1),
    )?;

    let mut serial = jacobi::Serial::new(problem);
    let serial_steps = time_calls(share(seconds, 0.15), || {
        std::hint::black_box(serial.step());
    });

    let device_us = p(&device, 50.0);
    let engine_us = p(&native, 50.0);
    let wrapper_us = p(&classic, 50.0);
    let rs_us = p(&rs, 50.0);
    report_layers(report, device_us, engine_us, wrapper_us, rs_us);
    report_counters(
        report,
        &sum_counters(&counters),
        messages,
        messages * jacobi::COLUMN_BYTES as u64,
    );
    report_micro(report, &m);

    let mut coll = Vec::new();
    let mut own = Vec::new();
    let (mut total, mut comm) = (0, 0);
    for round in &traced {
        let mut ns = Vec::new();
        for (_, spans, _) in round {
            ns.extend(durations(spans, "mpijava", "Intracomm.Allreduce"));
            let (o, t, c) = split_steps(spans);
            own.extend(o);
            total += t;
            comm += c;
        }
        coll.push(ns);
    }
    let cc = sum_counters(&traced.iter().flatten().map(|r| r.2).collect::<Vec<_>>());
    report.metric("coll.allreduce_us_p50", p(&coll, 50.0), "us");
    report.metric("coll.allreduce_us_p90", p(&coll, 90.0), "us");
    report.metric(
        "coll.sched_cache_hit_share",
        ratio(
            cc.cache_hits as f64,
            (cc.cache_hits + cc.cache_misses) as f64,
        ),
        "ratio",
    );
    report.metric("step.compute_us_p50", plain(&own, 50.0), "us");
    report.metric("step.comm_share", ratio(comm as f64, total as f64), "ratio");
    report.metric("serial.step_us", plain(&serial_steps, 50.0), "us");
    let untraced_us = p(
        &untraced.iter().map(|r| slower_rank(r)).collect::<Vec<_>>(),
        50.0,
    );
    let traced_us = p(
        &traced.iter().map(|r| slower_rank(r)).collect::<Vec<_>>(),
        50.0,
    );
    report.metric(
        "trace.overhead_share",
        ratio(traced_us - untraced_us, untraced_us),
        "ratio",
    );

    report.readout.push(format!(
        "Halo exchange of one 512-double column (4 KiB payload) p50: device {device_us:.2} us | engine pack+sendrecv+unpack {engine_us:.2} us | classic Sendrecv(vector) {wrapper_us:.2} us | rs sendrecv of a packed column {rs_us:.2} us; classic/engine = {:.3} (base: engine {engine_us:.2} us)",
        wrapper_us / engine_us,
    ));
    report.readout.push(format!(
        "Marshalled bytes per payload byte {:.2} (useful work 1.00); comm share of a step {:.3}; step p50 {traced_us:.1} us vs serial full-grid step {:.1} us",
        report.value("jni.marshal_bytes_per_payload_byte"),
        report.value("step.comm_share"),
        report.value("serial.step_us"),
    ));

    for round in traced {
        for (_, spans, _) in round {
            report.spans.extend(spans);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_object(members: &[(&str, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_json(report: &Report) -> String {
    let members: Vec<(&str, String)> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                format!(
                    "{{\"value\": {}, \"unit\": {}}}",
                    json_num(*value),
                    json_str(unit)
                ),
            )
        })
        .collect();
    json_object(&members)
}

fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics_json(report)
    )
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The full record of a run next to the result line, and the spans of a
/// traced run as one JSON object per line.
fn write_outputs(
    workload: Workload,
    args: &Args,
    report: &Report,
    meta: &str,
) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let readout: Vec<String> = report.readout.iter().map(|l| json_str(l)).collect();
    let record = json_object(&[
        ("workload", json_str(workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("meta", meta.to_string()),
        ("correct", report.correct().to_string()),
        ("attempted", report.attempted.to_string()),
        ("failed", report.failed.to_string()),
        ("metrics", metrics_json(report)),
        ("readout", format!("[{}]", readout.join(", "))),
    ]);
    let name = format!("{}-trace{}.json", workload.name(), u8::from(args.trace));
    std::fs::write(dir.join(name), record + "\n")?;
    if args.trace {
        let mut lines = String::new();
        for s in &report.spans {
            let _ = writeln!(
                lines,
                "{{\"rank\": {}, \"phase\": {}, \"layer\": {}, \"call\": {}, \"step\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.rank,
                json_str(s.phase),
                json_str(s.layer),
                json_str(s.call),
                s.step,
                s.start_ns,
                s.end_ns
            );
        }
        std::fs::write(dir.join(format!("spans-{}.jsonl", workload.name())), lines)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    SelfTest,
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--self-test"] {
        return Ok(Command::SelfTest);
    }
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".to_string());
    }
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// `UniverseConfig` fields left unset fall through to `MPIJAVA_*`
/// variables; the benchmark sets every knob, and refuses to run where
/// the environment could still change what is measured.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("MPIJAVA_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

fn main() -> ExitCode {
    if let Err(e) = check_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let command = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    match command {
        Command::SelfTest => self_test(),
        Command::Run(args) => run(&args),
    }
}

fn run(args: &Args) -> ExitCode {
    let report = match run_workload(args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    let meta = json_object(&[
        ("config", json_object(&report.config)),
        ("host", json_object(&host::facts())),
    ]);
    println!("# meta {meta}");
    for line in &report.readout {
        println!("# {line}");
    }
    if let Err(e) = write_outputs(args.workload, args, &report, &meta) {
        eprintln!("perfbench: writing {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    println!("{}", result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `name`s listed under `key` in `BENCHMARK.json`.
fn spec_names(spec: &str, key: &str) -> Vec<String> {
    let Some(at) = spec.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let rest = &spec[at..];
    let (Some(open), Some(close)) = (rest.find('['), rest.find(']')) else {
        return Vec::new();
    };
    rest[open..close]
        .split("\"name\"")
        .skip(1)
        .filter_map(|chunk| {
            let start = chunk.find('"')? + 1;
            let len = chunk[start..].find('"')?;
            Some(chunk[start..start + len].to_string())
        })
        .collect()
}

/// A short run of every workload in both modes: every metric that
/// `BENCHMARK.json` names is reported and nothing else, every output
/// checks out, and at 256 KiB the layers order device ≤ engine ≤ classic.
fn self_test() -> ExitCode {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: reading {}: {e}", path.display());
            return ExitCode::from(1);
        }
    };
    let listed = spec_names(&spec, "workloads");
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        if !listed.iter().any(|n| n == workload.name()) {
            problems.push(format!(
                "{} is not listed in BENCHMARK.json",
                workload.name()
            ));
        }
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let label = format!("{} --trace {}", workload.name(), u8::from(traced));
            let report = match run_workload(workload, 1, 1.0, traced) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let mut want = spec_names(&spec, key);
            let mut got: Vec<String> = report.metrics.iter().map(|m| m.0.to_string()).collect();
            want.sort();
            got.sort();
            if want != got {
                problems.push(format!(
                    "{label}: metrics {got:?}, BENCHMARK.json names {want:?}"
                ));
            }
            if !report.correct() {
                problems.push(format!(
                    "{label}: {} of {} operations failed their check",
                    report.failed, report.attempted
                ));
            }
            if traced && workload == Workload::Figure5 {
                let (d, e, c) = (
                    report.value("device.xfer_us_p50"),
                    report.value("engine.xfer_us_p50"),
                    report.value("wrapper.xfer_us_p50"),
                );
                if !(d <= e && e <= c) {
                    problems.push(format!(
                        "{label}: expected device {d} <= engine {e} <= classic {c}"
                    ));
                }
            }
            println!(
                "self-test {label}: {} metrics, {} operations",
                got.len(),
                report.attempted
            );
        }
    }
    for p in &problems {
        println!("self-test FAILED: {p}");
    }
    if problems.is_empty() {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
