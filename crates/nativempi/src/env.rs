//! Environmental management (MPI-1.1 §7): timers, processor name,
//! predefined attributes, and abort — plus the engine's environment
//! overrides.
//!
//! ## Environment overrides
//!
//! These are read once per launch, by
//! [`UniverseConfig::resolve`](crate::UniverseConfig::resolve): the
//! [`Universe`](crate::Universe) and `MpiRuntime` launchers call it once
//! per job and hand every rank the same resolved values, so the settings
//! are symmetric by construction; [`Engine::restore`] calls it for the
//! rank it rebuilds. [`Engine::new`] reads no environment. A value set
//! in code (`UniverseConfig::with_*`, the `MpiRuntime` builders) takes
//! precedence: `resolve` reads a variable only for a knob left unset. A
//! malformed value warns once on stderr and keeps the default. The
//! [`Engine::set_eager_threshold`]-style setters change a running
//! engine.
//!
//! | variable | effect |
//! |----------|--------|
//! | [`EAGER_LIMIT_ENV`] (`MPIJAVA_EAGER_LIMIT`) | eager/rendezvous switch-over point in bytes |
//! | [`SEGMENT_BYTES_ENV`] (`MPIJAVA_SEGMENT_BYTES`) | pipeline segment size for large transfers (unset = no segmentation) |
//! | `MPIJAVA_COLL_ALG` | pin the collective wire pattern (`linear`/`tree`/`rd`/`ring`/`pipelined`/`hier`) |
//! | [`NODES_ENV`] (`MPIJAVA_NODES`) | rank → node placement for the launchers (see below) |
//! | [`PROGRESS_ENV`] (`MPIJAVA_PROGRESS`) | `thread` = background progress thread per rank, `manual` = progress only inside MPI calls (default) |
//! | [`SPOOL_DIR_ENV`] (`MPIJAVA_SPOOL_DIR`) | persistent spool root for the `spool` device (unset = ephemeral temp dir) |
//! | [`LEASE_MS_ENV`] (`MPIJAVA_LEASE_MS`) | heartbeat lease in milliseconds for failure detection |
//! | [`FAULT_ENV`] (`MPIJAVA_FAULT`) | fault-injection plan for the test harness (see below) |
//! | [`TRACE_ENV`] (`MPIJAVA_TRACE`) | observability level: `off`, `counters`, or `events[:capacity]` (see below) |
//! | [`TRACE_DIR_ENV`] (`MPIJAVA_TRACE_DIR`) | directory for the per-rank JSONL trace dumps (see below) |
//!
//! Sizes accept an optional `k`/`K` (KiB) or `m`/`M` (MiB) suffix:
//! `MPIJAVA_EAGER_LIMIT=64k`, `MPIJAVA_SEGMENT_BYTES=1M`.
//! `MPIJAVA_SEGMENT_BYTES=0` turns segmentation off.
//!
//! ## `MPIJAVA_PROGRESS`
//!
//! Read by the launchers when no explicit mode was configured
//! (`UniverseConfig::with_progress` / `MpiRuntime::progress` take
//! precedence). `thread` (aliases `background`, `async`) spawns one
//! background progress thread per rank that keeps draining the
//! nonblocking-collective engine, the rendezvous/segment pipeline and
//! the RMA windows while application code computes; `manual` (alias
//! `none`) keeps the classic behavior where progress happens only
//! inside MPI calls. Anything else warns loudly on stderr and falls
//! back to `manual`, so a typo cannot silently change the concurrency
//! profile of a job.
//!
//! ## `MPIJAVA_NODES`
//!
//! Read by the [`Universe`](crate::Universe) / `MpiRuntime` launchers
//! when no explicit [`NodeMap`] was configured
//! (`UniverseConfig::with_nodes` takes precedence). Three spellings, for
//! a job of `P` ranks:
//!
//! * `MPIJAVA_NODES=2` — two nodes, ranks block-split as evenly as
//!   possible;
//! * `MPIJAVA_NODES=2x4` — two nodes × four ranks per node (block
//!   assignment; `2 × 4` must equal `P`);
//! * `MPIJAVA_NODES=0,0,1,1` — explicit per-rank node ids (one entry per
//!   rank; ids are normalized to dense `0..N` in order of first
//!   appearance, so non-contiguous placements like `0,1,0,1` are legal).
//!
//! The placement is what the `hybrid` device routes by (intra-node vs
//! inter-node class) and what the collective tuning layer consults to
//! auto-select the hierarchical algorithms; on single-fabric devices it
//! only affects the topology queries. A malformed or size-inconsistent
//! value warns loudly on stderr and is ignored, so a typo cannot
//! silently reshape a job.
//!
//! ## `MPIJAVA_SPOOL_DIR` and `MPIJAVA_LEASE_MS`
//!
//! Read by the launchers when no explicit spool root / lease was
//! configured (`UniverseConfig::with_spool_dir` / `with_lease` take
//! precedence). The spool root only matters on the `spool` device: set
//! it to keep undelivered frames on disk across process lifetimes (the
//! substrate for late-join and checkpoint/restart); unset, each job
//! spins up an ephemeral temp-dir spool that is removed when the last
//! rank detaches. The lease is the heartbeat timeout used by every
//! failure-detecting device: a rank whose lease file goes unrefreshed
//! for longer than the lease is reported dead to its peers. Malformed
//! lease values warn on stderr and fall back to the default
//! ([`mpi_transport::DEFAULT_LEASE`], 1000 ms); `0` is rejected the
//! same way because a zero lease would declare every rank dead on
//! arrival.
//!
//! ## `MPIJAVA_FAULT`
//!
//! Read by the launchers when no explicit [`FaultPlan`] was configured
//! (`UniverseConfig::with_faults` takes precedence). A comma-separated
//! list of fault actions for deterministic failure testing:
//!
//! * `kill:<rank>@<n>` — rank `<rank>`'s transport dies at its `<n>`-th
//!   send (1-based); peers see the death via the lease mechanism;
//! * `drop:<src>-><dst>@<n>` — silently drop the `<n>`-th frame from
//!   `src` to `dst`;
//! * `delay:<src>-><dst>@<n>:<ms>` — delay that frame by `<ms>`
//!   milliseconds (an optional `ms` suffix is accepted).
//!
//! Example: `MPIJAVA_FAULT=kill:2@5,delay:0->1@3:50ms`. A malformed
//! plan warns loudly on stderr and is ignored — fault injection is a
//! testing tool, and a typo must not take down a production job.
//!
//! ## `MPIJAVA_TRACE` and `MPIJAVA_TRACE_DIR`
//!
//! The observability level of the [`crate::trace`] subsystem, read once
//! per launch (`UniverseConfig::with_trace` / `MpiRuntime::trace` take
//! precedence):
//!
//! * `off` (aliases `none`, `0`, the default) — the always-compiled
//!   [`crate::EngineStats`] counters only; every trace hook is one enum
//!   compare;
//! * `counters` (alias `count`) — plus latency/duration histograms and
//!   transport frame counters in the metrics registry;
//! * `events` (alias `trace`) — plus the fixed-capacity per-rank event
//!   ring buffer, dumped as JSONL at finalize. An optional
//!   `events:<capacity>` sets the ring size in records (default
//!   [`crate::trace::DEFAULT_TRACE_CAPACITY`]).
//!
//! A malformed value warns loudly on stderr and falls back to `off`, so
//! a typo cannot silently record (or discard) a job's trace.
//!
//! `MPIJAVA_TRACE_DIR` names the directory the per-rank JSONL dumps go
//! to (created on demand). Unset, the dump lands in `<spool root>/trace`
//! when the job runs on the `spool` device, and nowhere otherwise — the
//! in-memory ring is still available programmatically through
//! `Engine::trace_events` / `Engine::dump_trace_to`.

use std::path::PathBuf;
use std::time::Duration;

use mpi_transport::{FaultPlan, Frame, FrameHeader, FrameKind, NodeMap};

use crate::comm::CommHandle;
use crate::error::{err, ErrorClass, Result};
use crate::types::TAG_UB;
use crate::Engine;

/// Environment variable overriding the eager/rendezvous switch-over
/// point, mirroring [`crate::UniverseConfig::with_eager_threshold`]:
/// `MPIJAVA_EAGER_LIMIT=<bytes>[k|m]`. Unset keeps
/// [`crate::DEFAULT_EAGER_THRESHOLD`]; a malformed value warns on stderr
/// and keeps it too.
pub const EAGER_LIMIT_ENV: &str = "MPIJAVA_EAGER_LIMIT";

/// Environment variable enabling segmented (pipelined) large-message
/// transfers: `MPIJAVA_SEGMENT_BYTES=<bytes>[k|m]`. Unset or `0` means
/// no segmentation for point-to-point rendezvous payloads (the pipelined
/// broadcast falls back to its own default segment size); a malformed
/// value warns on stderr and keeps segmentation off.
pub const SEGMENT_BYTES_ENV: &str = "MPIJAVA_SEGMENT_BYTES";

/// Environment variable placing ranks on nodes for the launchers:
/// `MPIJAVA_NODES=<nodes>|<nodes>x<ranks-per-node>|<id,id,…>` (see the
/// module docs for the grammar and precedence rules).
pub const NODES_ENV: &str = "MPIJAVA_NODES";

/// Environment variable selecting the progress model for the launchers:
/// `MPIJAVA_PROGRESS=thread|manual` (see the module docs for aliases and
/// precedence). Malformed values warn on stderr and fall back to
/// [`ProgressMode::Manual`].
pub const PROGRESS_ENV: &str = "MPIJAVA_PROGRESS";

/// Environment variable naming a persistent spool root for the `spool`
/// device: `MPIJAVA_SPOOL_DIR=<path>` (see the module docs). Unset means
/// an ephemeral per-job temp directory.
pub const SPOOL_DIR_ENV: &str = "MPIJAVA_SPOOL_DIR";

/// Environment variable overriding the heartbeat lease used for failure
/// detection: `MPIJAVA_LEASE_MS=<milliseconds>` (see the module docs).
/// Malformed or zero values warn on stderr and keep
/// [`mpi_transport::DEFAULT_LEASE`].
pub const LEASE_MS_ENV: &str = "MPIJAVA_LEASE_MS";

/// Environment variable injecting a deterministic fault plan:
/// `MPIJAVA_FAULT=kill:<rank>@<n>,drop:<src>-><dst>@<n>,delay:<src>-><dst>@<n>:<ms>`
/// (see the module docs for the full grammar). Malformed plans warn on
/// stderr and are ignored.
pub const FAULT_ENV: &str = "MPIJAVA_FAULT";

/// Environment variable selecting the observability level:
/// `MPIJAVA_TRACE=off|counters|events[:capacity]` (see the module docs
/// and [`crate::trace`]). Malformed values warn on stderr and fall back
/// to `off`.
pub const TRACE_ENV: &str = "MPIJAVA_TRACE";

/// Environment variable naming the directory for per-rank JSONL trace
/// dumps: `MPIJAVA_TRACE_DIR=<path>` (see the module docs). Unset, the
/// dump falls back to `<spool root>/trace` on the `spool` device.
pub const TRACE_DIR_ENV: &str = "MPIJAVA_TRACE_DIR";

/// How a rank's engine is progressed between MPI calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ProgressMode {
    /// Progress happens only inside MPI calls (test/wait/probe and the
    /// blocking entry points) — the classic single-threaded model.
    #[default]
    Manual,
    /// A background thread per rank drives the progress engine
    /// continuously: nonblocking collectives, rendezvous and segment
    /// pipelines, and passive-target RMA advance while the application
    /// computes, with zero manual `test()` calls.
    Thread,
}

impl ProgressMode {
    /// Parse the [`PROGRESS_ENV`] grammar: `manual`/`none` and
    /// `thread`/`background`/`async` (ASCII case-insensitive).
    pub fn parse(raw: &str) -> Option<ProgressMode> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "manual" | "none" => Some(ProgressMode::Manual),
            "thread" | "background" | "async" => Some(ProgressMode::Thread),
            _ => None,
        }
    }
}

impl std::fmt::Display for ProgressMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProgressMode::Manual => "manual",
            ProgressMode::Thread => "thread",
        })
    }
}

/// Where the `MPIJAVA_*` variables are read from: [`process_env`] when
/// a job launches, a fixed table in tests (see
/// [`UniverseConfig::resolve`](crate::UniverseConfig::resolve)).
pub type Lookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// The process environment as a [`Lookup`].
pub fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The value of `name` through `lookup`; unset or blank is `None`.
fn var(lookup: Lookup, name: &str) -> Option<String> {
    lookup(name).filter(|raw| !raw.trim().is_empty())
}

/// Read the [`PROGRESS_ENV`] override through `lookup`. Unset (or
/// empty) means no override; a malformed value warns on stderr and
/// falls back to [`ProgressMode::Manual`] rather than silently changing
/// the job's concurrency profile.
pub fn progress_from(lookup: Lookup) -> Option<ProgressMode> {
    let raw = var(lookup, PROGRESS_ENV)?;
    match ProgressMode::parse(&raw) {
        Some(mode) => Some(mode),
        None => {
            eprintln!(
                "warning: {PROGRESS_ENV}={raw:?} is not a known progress mode \
                 (expected `thread` or `manual`); running manual"
            );
            Some(ProgressMode::Manual)
        }
    }
}

/// [`progress_from`] over the process environment.
pub fn progress_from_env() -> Option<ProgressMode> {
    progress_from(&process_env)
}

/// Read the [`NODES_ENV`] placement override for a job of `size` ranks
/// through `lookup`. Unset (or empty) means no override; a malformed or
/// size-inconsistent value warns on stderr and is ignored rather than
/// silently reshaping the job.
pub fn nodes_from(lookup: Lookup, size: usize) -> Option<NodeMap> {
    let raw = var(lookup, NODES_ENV)?;
    match NodeMap::parse(&raw, size) {
        Ok(map) => Some(map),
        Err(reason) => {
            eprintln!(
                "warning: {NODES_ENV}={raw:?} is not a usable node placement for a \
                 {size}-rank job ({reason}); running single-node"
            );
            None
        }
    }
}

/// Read the [`SPOOL_DIR_ENV`] override through `lookup`. Unset (or
/// empty) means an ephemeral spool; no validation happens here — the
/// spool device itself reports a root it cannot create or attach to.
pub fn spool_dir_from(lookup: Lookup) -> Option<PathBuf> {
    var(lookup, SPOOL_DIR_ENV).map(PathBuf::from)
}

/// [`spool_dir_from`] over the process environment.
pub fn spool_dir_from_env() -> Option<PathBuf> {
    spool_dir_from(&process_env)
}

/// Read the [`LEASE_MS_ENV`] override through `lookup`. Unset (or
/// empty) means no override; a malformed or zero value warns on stderr
/// and falls back to the default lease rather than silently changing
/// (or breaking) the job's failure-detection window.
pub fn lease_from(lookup: Lookup) -> Option<Duration> {
    let raw = var(lookup, LEASE_MS_ENV)?;
    match raw.trim().parse::<u64>() {
        Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
        _ => {
            eprintln!(
                "warning: {LEASE_MS_ENV}={raw:?} is not a usable lease \
                 (expected a positive number of milliseconds); keeping the default"
            );
            None
        }
    }
}

/// [`lease_from`] over the process environment.
pub fn lease_from_env() -> Option<Duration> {
    lease_from(&process_env)
}

/// Read the [`FAULT_ENV`] fault-injection plan through `lookup`. Unset
/// (or empty) means no faults; a malformed plan warns on stderr and is
/// ignored rather than letting a typo inject (or suppress) failures
/// silently.
pub fn faults_from(lookup: Lookup) -> Option<FaultPlan> {
    let raw = var(lookup, FAULT_ENV)?;
    match FaultPlan::parse(&raw) {
        Ok(plan) => Some(plan),
        Err(reason) => {
            eprintln!(
                "warning: {FAULT_ENV}={raw:?} is not a usable fault plan ({reason}); \
                 running without fault injection"
            );
            None
        }
    }
}

/// [`faults_from`] over the process environment.
pub fn faults_from_env() -> Option<FaultPlan> {
    faults_from(&process_env)
}

/// Read the [`TRACE_ENV`] override through `lookup`. Unset (or empty)
/// means no override; a malformed value warns on stderr and falls back
/// to tracing `off` rather than silently recording (or discarding) a
/// job's trace.
pub fn trace_from(lookup: Lookup) -> Option<crate::trace::TraceConfig> {
    let raw = var(lookup, TRACE_ENV)?;
    match crate::trace::TraceConfig::parse(&raw) {
        Some(cfg) => Some(cfg),
        None => {
            eprintln!(
                "warning: {TRACE_ENV}={raw:?} is not a usable trace level \
                 (expected off|counters|events[:capacity]); tracing off"
            );
            Some(crate::trace::TraceConfig::off())
        }
    }
}

/// [`trace_from`] over the process environment.
pub fn trace_from_env() -> Option<crate::trace::TraceConfig> {
    trace_from(&process_env)
}

/// Read the [`TRACE_DIR_ENV`] override through `lookup`. Unset (or
/// empty) means no override; no validation happens here — the dump path
/// reports a directory it cannot create.
pub fn trace_dir_from(lookup: Lookup) -> Option<PathBuf> {
    var(lookup, TRACE_DIR_ENV).map(PathBuf::from)
}

/// [`trace_dir_from`] over the process environment.
pub fn trace_dir_from_env() -> Option<PathBuf> {
    trace_dir_from(&process_env)
}

/// Parse a byte size with an optional `k`/`K` (KiB) or `m`/`M` (MiB)
/// suffix. Returns `None` for anything unparsable.
pub fn parse_byte_size(raw: &str) -> Option<usize> {
    let s = raw.trim();
    let (digits, multiplier) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1024usize),
        b'm' | b'M' => (&s[..s.len() - 1], 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .trim()
        .parse::<usize>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
}

/// Read a byte-size override ([`EAGER_LIMIT_ENV`],
/// [`SEGMENT_BYTES_ENV`]) through `lookup`. Unset (or empty) means no
/// override; a malformed value warns on stderr and is ignored, so the
/// default stays.
pub fn bytes_from(lookup: Lookup, name: &str) -> Option<usize> {
    let raw = var(lookup, name)?;
    let bytes = parse_byte_size(&raw);
    if bytes.is_none() {
        eprintln!(
            "warning: {name}={raw:?} is not a byte size \
             (expected <bytes>[k|m]); keeping the default"
        );
    }
    bytes
}

/// Keys of the predefined communicator attributes (`MPI_TAG_UB`,
/// `MPI_HOST`, `MPI_IO`, `MPI_WTIME_IS_GLOBAL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredefinedAttr {
    /// Upper bound on tag values.
    TagUb,
    /// Rank of a host process (this engine has none: `PROC_NULL`).
    Host,
    /// Rank that can perform I/O (every rank can here).
    Io,
    /// Whether `Wtime` is synchronized across ranks.
    WtimeIsGlobal,
}

impl Engine {
    /// `MPI_Wtime`: seconds since an arbitrary (per-job) origin.
    ///
    /// The paper's §4.2 had to work around WMPI's millisecond-resolution
    /// `MPI_Wtime`; this engine uses the Rust monotonic clock, whose
    /// resolution is far below a microsecond.
    pub fn wtime(&self) -> f64 {
        self.start_time.elapsed().as_secs_f64()
    }

    /// `MPI_Wtick`: the resolution of [`Engine::wtime`] in seconds.
    pub fn wtick(&self) -> f64 {
        // std::time::Instant on the supported platforms is nanosecond-grained.
        Duration::from_nanos(1).as_secs_f64()
    }

    /// `MPI_Get_processor_name`.
    pub fn processor_name(&self) -> &str {
        &self.processor_name
    }

    /// Value of a predefined attribute on a communicator
    /// (`MPI_Attr_get` for the built-in keys).
    pub fn attr_predefined(&self, comm: CommHandle, key: PredefinedAttr) -> Result<i64> {
        self.comm(comm)?; // validate the handle
        Ok(match key {
            PredefinedAttr::TagUb => TAG_UB as i64,
            PredefinedAttr::Host => crate::types::PROC_NULL as i64,
            PredefinedAttr::Io => self.world_rank as i64,
            PredefinedAttr::WtimeIsGlobal => 0,
        })
    }

    /// `MPI_Attr_put` for user keyvals: store an integer-keyed blob on the
    /// engine (communicator attribute caching, simplified to engine scope).
    pub fn attr_put(&mut self, key: i32, value: Vec<u8>) -> Result<()> {
        if key < 0 {
            return err(ErrorClass::Arg, "user attribute keys must be non-negative");
        }
        self.keyvals.insert(key, value);
        Ok(())
    }

    /// `MPI_Attr_get` for user keyvals.
    pub fn attr_get(&self, key: i32) -> Option<&[u8]> {
        self.keyvals.get(&key).map(|v| v.as_slice())
    }

    /// `MPI_Attr_delete`.
    pub fn attr_delete(&mut self, key: i32) -> Result<()> {
        match self.keyvals.remove(&key) {
            Some(_) => Ok(()),
            None => err(ErrorClass::Arg, format!("attribute key {key} is not set")),
        }
    }

    /// `MPI_Abort`: broadcast an abort notification to every other rank and
    /// mark this engine dead. Unlike the C binding this does not call
    /// `exit()` — the caller (or the binding's error handler) decides.
    pub fn abort(&mut self, _comm: CommHandle, errorcode: i32) -> Result<()> {
        for world in 0..self.world_size {
            if world == self.world_rank {
                continue;
            }
            let header = FrameHeader {
                kind: FrameKind::Control,
                src: self.world_rank as u32,
                dst: world as u32,
                tag: errorcode,
                context: u32::MAX,
                token: 0,
                msg_len: 0,
            };
            // Best effort: a dead peer must not stop the abort.
            let _ = self.endpoint.send(Frame::control(header));
        }
        self.aborted = true;
        Ok(())
    }

    /// True once this engine has aborted or observed another rank's abort.
    pub fn is_aborted(&self) -> bool {
        self.aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::COMM_WORLD;
    use crate::types::SendMode;
    use crate::universe::Universe;
    use mpi_transport::DeviceKind;

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("4096"), Some(4096));
        assert_eq!(parse_byte_size(" 64k "), Some(64 * 1024));
        assert_eq!(parse_byte_size("64K"), Some(64 * 1024));
        assert_eq!(parse_byte_size("2m"), Some(2 * 1024 * 1024));
        assert_eq!(parse_byte_size("1 M"), Some(1024 * 1024));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("k"), None);
        assert_eq!(parse_byte_size("abc"), None);
        assert_eq!(parse_byte_size("-5"), None);
        // Overflow guarded, not wrapped.
        assert_eq!(parse_byte_size(&format!("{}m", usize::MAX)), None);
    }

    #[test]
    fn progress_modes_parse_with_aliases() {
        assert_eq!(ProgressMode::parse("manual"), Some(ProgressMode::Manual));
        assert_eq!(ProgressMode::parse("none"), Some(ProgressMode::Manual));
        assert_eq!(ProgressMode::parse("thread"), Some(ProgressMode::Thread));
        assert_eq!(ProgressMode::parse(" THREAD "), Some(ProgressMode::Thread));
        assert_eq!(
            ProgressMode::parse("background"),
            Some(ProgressMode::Thread)
        );
        assert_eq!(ProgressMode::parse("async"), Some(ProgressMode::Thread));
        assert_eq!(ProgressMode::parse(""), None);
        assert_eq!(ProgressMode::parse("threads"), None);
        assert_eq!(ProgressMode::parse("yes"), None);
    }

    #[test]
    fn malformed_progress_env_falls_back_to_manual() {
        // Serialized against itself only: no other test reads PROGRESS_ENV.
        std::env::set_var(PROGRESS_ENV, "turbo");
        assert_eq!(progress_from_env(), Some(ProgressMode::Manual));
        std::env::set_var(PROGRESS_ENV, "thread");
        assert_eq!(progress_from_env(), Some(ProgressMode::Thread));
        std::env::set_var(PROGRESS_ENV, "  ");
        assert_eq!(progress_from_env(), None);
        std::env::remove_var(PROGRESS_ENV);
        assert_eq!(progress_from_env(), None);
    }

    #[test]
    fn lease_env_rejects_zero_and_garbage() {
        // Serialized against itself only: no other test reads LEASE_MS_ENV.
        std::env::set_var(LEASE_MS_ENV, "250");
        assert_eq!(lease_from_env(), Some(Duration::from_millis(250)));
        std::env::set_var(LEASE_MS_ENV, "0");
        assert_eq!(lease_from_env(), None);
        std::env::set_var(LEASE_MS_ENV, "fast");
        assert_eq!(lease_from_env(), None);
        std::env::set_var(LEASE_MS_ENV, "  ");
        assert_eq!(lease_from_env(), None);
        std::env::remove_var(LEASE_MS_ENV);
        assert_eq!(lease_from_env(), None);
    }

    #[test]
    fn spool_and_fault_envs_parse_or_fall_back() {
        // Serialized against themselves only: no other test reads these.
        std::env::set_var(SPOOL_DIR_ENV, "/tmp/spool-here");
        assert_eq!(spool_dir_from_env(), Some(PathBuf::from("/tmp/spool-here")));
        std::env::set_var(SPOOL_DIR_ENV, "   ");
        assert_eq!(spool_dir_from_env(), None);
        std::env::remove_var(SPOOL_DIR_ENV);
        assert_eq!(spool_dir_from_env(), None);

        std::env::set_var(FAULT_ENV, "kill:2@5,drop:0->1@3");
        let plan = faults_from_env().expect("valid plan");
        assert_eq!(plan.actions.len(), 2);
        assert_eq!(plan.max_rank(), Some(2));
        std::env::set_var(FAULT_ENV, "explode:everything");
        assert_eq!(faults_from_env(), None);
        std::env::remove_var(FAULT_ENV);
        assert_eq!(faults_from_env(), None);
    }

    #[test]
    fn trace_env_parses_grammar_or_falls_back_to_off() {
        use crate::trace::TraceConfig;
        // Serialized against itself only: no other test reads TRACE_ENV.
        std::env::set_var(TRACE_ENV, "events:1024");
        assert_eq!(
            trace_from_env(),
            Some(TraceConfig::events().with_capacity(1024))
        );
        std::env::set_var(TRACE_ENV, "counters");
        assert_eq!(trace_from_env(), Some(TraceConfig::counters()));
        std::env::set_var(TRACE_ENV, "everything");
        assert_eq!(trace_from_env(), Some(TraceConfig::off()));
        std::env::set_var(TRACE_ENV, "  ");
        assert_eq!(trace_from_env(), None);
        std::env::remove_var(TRACE_ENV);
        assert_eq!(trace_from_env(), None);

        // Serialized against itself only: no other test reads TRACE_DIR_ENV.
        std::env::set_var(TRACE_DIR_ENV, "/tmp/traces-here");
        assert_eq!(
            trace_dir_from_env(),
            Some(PathBuf::from("/tmp/traces-here"))
        );
        std::env::set_var(TRACE_DIR_ENV, "  ");
        assert_eq!(trace_dir_from_env(), None);
        std::env::remove_var(TRACE_DIR_ENV);
        assert_eq!(trace_dir_from_env(), None);
    }

    #[test]
    fn wtime_is_monotonic_and_fine_grained() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            let t0 = engine.wtime();
            let mut x = 0u64;
            for i in 0..10_000u64 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            let t1 = engine.wtime();
            assert!(t1 >= t0);
            assert!(
                engine.wtick() < 1e-6,
                "paper needed µs resolution; we have ns"
            );
        })
        .unwrap();
    }

    #[test]
    fn processor_name_distinguishes_ranks() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            let name = engine.processor_name().to_string();
            assert!(name.contains(&format!("rank-{}", engine.world_rank())));
        })
        .unwrap();
    }

    #[test]
    fn predefined_attributes_are_available() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            assert_eq!(
                engine
                    .attr_predefined(COMM_WORLD, PredefinedAttr::TagUb)
                    .unwrap(),
                TAG_UB as i64
            );
            assert!(engine
                .attr_predefined(COMM_WORLD, PredefinedAttr::WtimeIsGlobal)
                .is_ok());
            assert!(engine.attr_predefined(99, PredefinedAttr::TagUb).is_err());
        })
        .unwrap();
    }

    #[test]
    fn user_attributes_roundtrip() {
        Universe::run(1, DeviceKind::ShmFast, |engine| {
            assert!(engine.attr_get(7).is_none());
            engine.attr_put(7, b"seven".to_vec()).unwrap();
            assert_eq!(engine.attr_get(7).unwrap(), b"seven");
            engine.attr_delete(7).unwrap();
            assert!(engine.attr_delete(7).is_err());
            assert!(engine.attr_put(-1, Vec::new()).is_err());
        })
        .unwrap();
    }

    #[test]
    fn abort_poisons_remote_engines() {
        Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                engine.abort(COMM_WORLD, 3).unwrap();
                assert!(engine.is_aborted());
                assert!(engine
                    .send(COMM_WORLD, 1, 0, b"", SendMode::Standard)
                    .is_err());
            } else {
                // Wait until the abort control frame has been processed.
                loop {
                    // iprobe drives the progress engine.
                    match engine.iprobe(COMM_WORLD, 0, 0) {
                        Err(_) => break, // check_live already failed
                        Ok(_) => {
                            if engine.is_aborted() {
                                break;
                            }
                        }
                    }
                    std::thread::yield_now();
                }
                assert!(engine.is_aborted());
            }
        })
        .unwrap();
    }
}
