//! The job launcher: plays the role of `mpirun` for the engine.
//!
//! A [`Universe`] builds a transport fabric, creates one [`Engine`] per
//! rank and runs the user's SPMD closure on one thread per rank — the
//! "multiple processes on a single machine" shape the paper uses for its
//! Shared-Memory mode, and (with the TCP device plus a network model) a
//! faithful stand-in for its two-workstation Distributed-Memory mode.
//!
//! Every launch goes through [`launch`]: it resolves the job's
//! [`UniverseConfig`] once (explicit values over `MPIJAVA_*` variables,
//! see [`UniverseConfig::resolve`]), builds the fabric, configures each
//! rank's engine from the resolved values, runs the ranks and turns a
//! panicking rank into an aborted job. [`Universe::run_with_config`]
//! and the binding's `MpiRuntime::run` are both thin layers over it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Duration;

use mpi_transport::{
    DeviceKind, DeviceProfile, Endpoint, Fabric, FabricConfig, FaultPlan, NetworkModel, NodeMap,
};

use crate::comm::COMM_WORLD;
use crate::env::{self, Lookup};
use crate::error::{ErrorClass, MpiError, Result};
use crate::Engine;

/// Everything needed to launch a job.
///
/// The `Option` knobs left `None` are filled from their `MPIJAVA_*`
/// variable when the job launches (see [`UniverseConfig::resolve`]); a
/// knob still `None` after that keeps its built-in default.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Number of ranks.
    pub size: usize,
    /// Transport device (see [`DeviceKind`]).
    pub device: DeviceKind,
    /// Link model (DM-mode experiments attach the 10BaseT model here).
    pub network: NetworkModel,
    /// Synthetic device cost profile (calibration of the two "native MPI"
    /// implementations; defaults to no synthetic cost).
    pub profile: DeviceProfile,
    /// Eager/rendezvous threshold in bytes (`MPIJAVA_EAGER_LIMIT`;
    /// default [`crate::DEFAULT_EAGER_THRESHOLD`]).
    pub eager_threshold: Option<usize>,
    /// Pipeline segment size for large transfers
    /// (`MPIJAVA_SEGMENT_BYTES`; default, and `0`, mean no segmentation).
    pub segment_bytes: Option<usize>,
    /// Collective algorithm pinned on every rank (`MPIJAVA_COLL_ALG`;
    /// default: the tuned size-aware selection, see [`crate::coll`]).
    pub coll_algorithm: Option<crate::coll::CollAlgorithm>,
    /// Rank → node placement (`MPIJAVA_NODES`; default: one flat node).
    /// The [`DeviceKind::Hybrid`] device routes by it; every device
    /// exposes it through the engine's topology queries, and the
    /// collective tuning layer auto-selects the hierarchical algorithms
    /// when it is non-trivial.
    pub nodes: Option<NodeMap>,
    /// Inter-node cost profile (hybrid device; defaults to free).
    pub inter_profile: DeviceProfile,
    /// Inter-node link model (hybrid device; defaults to unshaped).
    pub inter_network: NetworkModel,
    /// Progress model (`MPIJAVA_PROGRESS`; default
    /// [`crate::env::ProgressMode::Manual`]). The engine itself has no
    /// progress thread: [`launch`] hands the resolved value to the
    /// launcher's per-rank start hook, and launchers that share the
    /// engine behind a lock (`MpiRuntime`) start the thread there.
    pub progress: Option<crate::env::ProgressMode>,
    /// Persistent spool root for the [`DeviceKind::Spool`] device
    /// (`MPIJAVA_SPOOL_DIR`; default: an ephemeral per-job temp
    /// directory). A persistent root is the substrate for late-join and
    /// checkpoint/restart.
    pub spool_dir: Option<PathBuf>,
    /// Heartbeat lease for failure detection (`MPIJAVA_LEASE_MS`;
    /// default [`mpi_transport::DEFAULT_LEASE`]). A rank whose lease
    /// goes unrefreshed for longer than this is reported dead to its
    /// peers.
    pub lease: Option<Duration>,
    /// Deterministic fault-injection plan (`MPIJAVA_FAULT`; default: no
    /// faults). Testing tool: kills a rank's transport at a chosen
    /// operation, or drops/delays chosen frames.
    pub faults: Option<FaultPlan>,
    /// Observability level on every rank (`MPIJAVA_TRACE`; default off;
    /// see [`crate::trace`]). `counters` and `events` additionally
    /// enable the transport's frame counters.
    pub trace: Option<crate::trace::TraceConfig>,
    /// Directory for finalize-time trace dumps (`MPIJAVA_TRACE_DIR`;
    /// default: `<spool root>/trace` when the device has a spool).
    pub trace_dir: Option<PathBuf>,
}

impl UniverseConfig {
    /// A plain configuration over the given device.
    pub fn new(size: usize, device: DeviceKind) -> UniverseConfig {
        UniverseConfig {
            size,
            device,
            network: NetworkModel::unshaped(),
            profile: DeviceProfile::default(),
            eager_threshold: None,
            segment_bytes: None,
            coll_algorithm: None,
            nodes: None,
            inter_profile: DeviceProfile::default(),
            inter_network: NetworkModel::unshaped(),
            progress: None,
            spool_dir: None,
            lease: None,
            faults: None,
            trace: None,
            trace_dir: None,
        }
    }

    /// Attach a network model (DM-mode experiments).
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Attach a synthetic device cost profile.
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Set the eager threshold on every rank.
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = Some(bytes);
        self
    }

    /// Enable segmented (pipelined) large-message transfers with the
    /// given segment size on every rank (`0` turns segmentation off).
    pub fn with_segment_bytes(mut self, bytes: usize) -> Self {
        self.segment_bytes = Some(bytes);
        self
    }

    /// Pin the collective algorithm on every rank (ablations).
    pub fn with_coll_algorithm(mut self, alg: crate::coll::CollAlgorithm) -> Self {
        self.coll_algorithm = Some(alg);
        self
    }

    /// Place ranks on nodes (see [`NodeMap`]).
    pub fn with_nodes(mut self, nodes: NodeMap) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Attach an inter-node link model (hybrid device).
    pub fn with_inter_network(mut self, network: NetworkModel) -> Self {
        self.inter_network = network;
        self
    }

    /// Attach an inter-node cost profile (hybrid device).
    pub fn with_inter_profile(mut self, profile: DeviceProfile) -> Self {
        self.inter_profile = profile;
        self
    }

    /// Select the progress model.
    pub fn with_progress(mut self, mode: crate::env::ProgressMode) -> Self {
        self.progress = Some(mode);
        self
    }

    /// Keep spooled frames under `dir` across process lifetimes (spool
    /// device).
    pub fn with_spool_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spool_dir = Some(dir.into());
        self
    }

    /// Set the heartbeat lease for failure detection.
    pub fn with_lease(mut self, lease: Duration) -> Self {
        self.lease = Some(lease);
        self
    }

    /// Inject a deterministic fault plan (testing).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the observability level on every rank.
    pub fn with_trace(mut self, trace: crate::trace::TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Set the trace-dump directory on every rank.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Fill every knob left `None` from its `MPIJAVA_*` variable, read
    /// once through `lookup` ([`env::process_env`] when a job launches):
    /// a value set in code wins, and a variable is not read at all for a
    /// knob that has one. Unset, blank or malformed variables leave the
    /// knob `None`, that is at its built-in default (a malformed
    /// `MPIJAVA_PROGRESS` or `MPIJAVA_TRACE` resolves to its default
    /// value); each malformed one warns once on stderr. The grammar of
    /// every variable is in [`crate::env`].
    pub fn resolve(mut self, lookup: Lookup) -> UniverseConfig {
        let size = self.size;
        self.eager_threshold = self
            .eager_threshold
            .or_else(|| env::bytes_from(lookup, env::EAGER_LIMIT_ENV));
        self.segment_bytes = self
            .segment_bytes
            .or_else(|| env::bytes_from(lookup, env::SEGMENT_BYTES_ENV));
        self.coll_algorithm = self
            .coll_algorithm
            .or_else(|| crate::coll::CollAlgorithm::from_env(lookup));
        self.nodes = self.nodes.or_else(|| env::nodes_from(lookup, size));
        self.progress = self.progress.or_else(|| env::progress_from(lookup));
        self.spool_dir = self.spool_dir.or_else(|| env::spool_dir_from(lookup));
        self.lease = self.lease.or_else(|| env::lease_from(lookup));
        self.faults = self.faults.or_else(|| env::faults_from(lookup));
        self.trace = self.trace.or_else(|| env::trace_from(lookup));
        self.trace_dir = self.trace_dir.or_else(|| env::trace_dir_from(lookup));
        self
    }

    /// The fabric a resolved configuration describes. Any tracing beyond
    /// `off` also turns on the transport's frame counters.
    fn fabric(&self) -> FabricConfig {
        FabricConfig {
            network: self.network,
            profile: self.profile,
            nodes: self
                .nodes
                .clone()
                .unwrap_or_else(|| NodeMap::flat(self.size)),
            inter_network: self.inter_network,
            inter_profile: self.inter_profile,
            spool_dir: self.spool_dir.clone(),
            lease: self.lease.unwrap_or(mpi_transport::DEFAULT_LEASE),
            faults: self.faults.clone().unwrap_or_default(),
            frame_counters: self
                .trace
                .is_some_and(|t| t.mode != crate::trace::TraceMode::Off),
            ..FabricConfig::new(self.size, self.device)
        }
    }

    /// One rank's engine over `endpoint`, with the engine-level knobs of
    /// this resolved configuration applied (knobs left `None` keep the
    /// engine's defaults).
    pub(crate) fn engine(&self, endpoint: Box<dyn Endpoint>) -> Engine {
        let mut engine = Engine::new(endpoint);
        if let Some(bytes) = self.eager_threshold {
            engine.set_eager_threshold(bytes);
        }
        engine.set_segment_bytes(self.segment_bytes);
        engine.set_coll_algorithm(self.coll_algorithm);
        if let Some(trace) = self.trace {
            engine.set_trace(trace);
        }
        if let Some(dir) = &self.trace_dir {
            engine.set_trace_dir(dir.clone());
        }
        engine
    }
}

/// A rank's running state as [`launch`] sees it: whatever the launcher
/// wraps the rank's engine in.
pub trait RankState {
    /// Abort the job from this rank after its code panicked, so that no
    /// other rank blocks forever waiting for it.
    fn abort_job(&mut self);
}

impl RankState for Engine {
    fn abort_job(&mut self) {
        let _ = self.abort(COMM_WORLD, 1);
    }
}

/// Launch a job: resolve `config` once against the process environment
/// (see [`UniverseConfig::resolve`]), build its fabric, and run one
/// thread per rank. Each thread builds its rank's configured engine,
/// wraps it with `start` (which also receives the resolved
/// configuration) and runs `body` on the result. Returns the per-rank
/// results in rank order, or the first rank's error.
///
/// A panic in `body` aborts the job from that rank (see
/// [`RankState::abort_job`]) and is reported as an
/// [`ErrorClass::Aborted`] error naming the rank.
pub fn launch<S, T, E>(
    config: UniverseConfig,
    start: impl Fn(Engine, &UniverseConfig) -> S + Sync,
    body: impl Fn(&mut S) -> std::result::Result<T, E> + Sync,
) -> std::result::Result<Vec<T>, E>
where
    S: RankState,
    T: Send,
    E: From<MpiError> + Send,
{
    if config.size == 0 {
        return Err(MpiError::new(ErrorClass::Arg, "universe size must be at least 1").into());
    }
    let config = config.resolve(&env::process_env);
    let endpoints = Fabric::build(config.fabric())
        .map_err(|e| E::from(MpiError::from(e)))?
        .into_endpoints();
    let (config, start, body) = (&config, &start, &body);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|endpoint| {
                scope.spawn(move || {
                    let rank = endpoint.rank();
                    let mut state = start(config.engine(endpoint), config);
                    catch_unwind(AssertUnwindSafe(|| body(&mut state))).unwrap_or_else(|panic| {
                        state.abort_job();
                        let msg = panic
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "rank panicked".to_string());
                        let msg = format!("rank {rank} panicked: {msg}");
                        Err(MpiError::new(ErrorClass::Aborted, msg).into())
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(MpiError::new(ErrorClass::Intern, "rank thread crashed").into())
                })
            })
            .collect::<Vec<_>>()
    });
    results.into_iter().collect()
}

/// Launcher for SPMD jobs over the engine. See the module documentation.
pub struct Universe;

impl Universe {
    /// Run `f` once per rank (`size` ranks over `device`), each on its own
    /// thread with its own engine, and return the per-rank results in rank
    /// order. A panic on any rank aborts the job and is reported as an
    /// error.
    pub fn run<T, F>(size: usize, device: DeviceKind, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Engine) -> T + Send + Sync,
    {
        Self::run_with_config(UniverseConfig::new(size, device), f)
    }

    /// [`Universe::run`] with full control over the job configuration.
    pub fn run_with_config<T, F>(config: UniverseConfig, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(&mut Engine) -> T + Send + Sync,
    {
        launch(config, |engine, _| engine, |engine| Ok(f(engine)))
    }

    /// Write a checkpoint record for `engine`'s rank (see
    /// [`Engine::checkpoint`]). Only meaningful over a persistent
    /// [`DeviceKind::Spool`] fabric — on every other device this errors
    /// with [`ErrorClass::Unsupported`].
    pub fn checkpoint(engine: &mut Engine) -> Result<PathBuf> {
        engine.checkpoint()
    }

    /// Rebuild a rank's engine from the checkpoint record in its spool
    /// (see [`Engine::restore`]). Pair with
    /// [`mpi_transport::spool::SpoolDevice::attach`] to re-join a
    /// persistent spool after a crash: the restored engine's allocators
    /// resume past every checkpointed counter and pending frames are
    /// still in the inbox, ready to drain.
    pub fn restore(endpoint: Box<dyn mpi_transport::Endpoint>) -> Result<Engine> {
        Engine::restore(endpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SendMode;

    #[test]
    fn run_returns_per_rank_results_in_order() {
        let results =
            Universe::run(4, DeviceKind::ShmFast, |engine| engine.world_rank() * 10).unwrap();
        assert_eq!(results, vec![0, 10, 20, 30]);
    }

    #[test]
    fn zero_ranks_is_rejected() {
        assert!(Universe::run(0, DeviceKind::ShmFast, |_| ()).is_err());
    }

    #[test]
    fn config_applies_eager_threshold() {
        let config = UniverseConfig::new(2, DeviceKind::ShmFast).with_eager_threshold(64);
        Universe::run_with_config(config, |engine| {
            assert_eq!(engine.eager_threshold(), 64);
        })
        .unwrap();
    }

    #[test]
    fn panic_on_one_rank_is_reported_not_hung() {
        let result = Universe::run(2, DeviceKind::ShmFast, |engine| {
            if engine.world_rank() == 0 {
                panic!("deliberate test panic");
            } else {
                // This receive can never be satisfied; it must be unblocked
                // by the abort triggered by rank 0's panic.
                let _ = engine.recv(crate::comm::COMM_WORLD, 0, 99, None);
            }
        });
        assert!(result.is_err());
    }

    #[test]
    fn works_over_the_p4_device_too() {
        Universe::run(2, DeviceKind::ShmP4, |engine| {
            if engine.world_rank() == 0 {
                engine
                    .send(crate::comm::COMM_WORLD, 1, 1, b"p4", SendMode::Standard)
                    .unwrap();
            } else {
                let (d, _) = engine.recv(crate::comm::COMM_WORLD, 0, 1, None).unwrap();
                assert_eq!(&d, b"p4");
            }
        })
        .unwrap();
    }

    #[test]
    fn works_over_the_hybrid_device() {
        // 2 nodes x 2 ranks: rank pairs (0,1) and (2,3) talk intra-node,
        // everything else crosses the modelled inter-node link.
        let config = UniverseConfig::new(4, DeviceKind::Hybrid).with_nodes(NodeMap::regular(2, 2));
        Universe::run_with_config(config, |engine| {
            let rank = engine.world_rank();
            assert_eq!(engine.my_node(), rank / 2);
            let peer = ((rank + 2) % 4) as i32; // always inter-node
            let (data, _) = engine
                .sendrecv(
                    crate::comm::COMM_WORLD,
                    peer,
                    9,
                    &[rank as u8; 8],
                    peer,
                    9,
                    None,
                )
                .unwrap();
            assert!(data.iter().all(|&b| b == ((rank + 2) % 4) as u8));
        })
        .unwrap();
    }

    #[test]
    fn mismatched_node_map_is_rejected_at_launch() {
        let config = UniverseConfig::new(4, DeviceKind::Hybrid).with_nodes(NodeMap::regular(2, 3));
        assert!(Universe::run_with_config(config, |_| ()).is_err());
    }

    #[test]
    fn works_over_the_spool_device() {
        Universe::run(2, DeviceKind::Spool, |engine| {
            let rank = engine.world_rank();
            let peer = (1 - rank) as i32;
            let (data, _) = engine
                .sendrecv(
                    crate::comm::COMM_WORLD,
                    peer,
                    5,
                    &[rank as u8; 8],
                    peer,
                    5,
                    None,
                )
                .unwrap();
            assert!(data.iter().all(|&b| b == (1 - rank) as u8));
        })
        .unwrap();
    }

    /// A [`Lookup`] that sees no `MPIJAVA_*` variable at all.
    fn no_env(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn config_resolves_spool_lease_and_faults() {
        let fabric = UniverseConfig::new(2, DeviceKind::Spool)
            .with_spool_dir("/tmp/spool-x")
            .with_lease(Duration::from_millis(42))
            .with_faults(FaultPlan::parse("drop:0->1@1").unwrap())
            .resolve(&no_env)
            .fabric();
        assert_eq!(fabric.spool_dir, Some(PathBuf::from("/tmp/spool-x")));
        assert_eq!(fabric.lease, Duration::from_millis(42));
        assert_eq!(fabric.faults.actions.len(), 1);

        // Defaults: no spool dir, the stock lease, no faults.
        let plain = UniverseConfig::new(2, DeviceKind::ShmFast)
            .resolve(&no_env)
            .fabric();
        assert_eq!(plain.spool_dir, None);
        assert_eq!(plain.lease, mpi_transport::DEFAULT_LEASE);
        assert!(plain.faults.is_empty());
    }

    /// A one-rank engine configured as `config` configures each rank.
    fn engine_of(config: &UniverseConfig) -> Engine {
        let fabric = Fabric::build(FabricConfig::new(1, DeviceKind::ShmFast)).unwrap();
        config.engine(fabric.into_endpoints().pop().unwrap())
    }

    /// One knob of the precedence table: its variable, how to set it in
    /// code, what it resolves to (built-in defaults applied), a valid and
    /// some malformed variable values, and the expected value when set in
    /// code, from the variable, and by default.
    struct Knob {
        var: &'static str,
        set: fn(UniverseConfig) -> UniverseConfig,
        value: fn(&UniverseConfig) -> String,
        env: &'static str,
        malformed: &'static [&'static str],
        expect: [&'static str; 3],
    }

    #[test]
    fn explicit_beats_env_beats_default_for_every_knob() {
        use crate::coll::CollAlgorithm;
        use crate::env::ProgressMode;
        use crate::trace::TraceConfig;
        let knobs = [
            Knob {
                var: env::EAGER_LIMIT_ENV,
                set: |c| c.with_eager_threshold(64),
                value: |c| format!("{}", engine_of(c).eager_threshold()),
                env: "2k",
                malformed: &["12q", "-5"],
                expect: ["64", "2048", "131072"],
            },
            Knob {
                var: env::SEGMENT_BYTES_ENV,
                set: |c| c.with_segment_bytes(4096),
                value: |c| format!("{:?}", engine_of(c).segment_bytes()),
                env: "1m",
                malformed: &["lots"],
                expect: ["Some(4096)", "Some(1048576)", "None"],
            },
            Knob {
                var: crate::coll::COLL_ALG_ENV,
                set: |c| c.with_coll_algorithm(CollAlgorithm::Ring),
                value: |c| format!("{:?}", engine_of(c).coll_algorithm()),
                env: "tree",
                malformed: &["quantum"],
                expect: ["Some(Ring)", "Some(BinomialTree)", "None"],
            },
            Knob {
                var: env::NODES_ENV,
                set: |c| c.with_nodes(NodeMap::regular(2, 2)),
                value: |c| format!("{:?}", c.fabric().nodes.assignment()),
                env: "0,1,0,1",
                malformed: &["2x3", "nodes"],
                expect: ["[0, 0, 1, 1]", "[0, 1, 0, 1]", "[0, 0, 0, 0]"],
            },
            Knob {
                var: env::PROGRESS_ENV,
                set: |c| c.with_progress(ProgressMode::Manual),
                value: |c| format!("{}", c.progress.unwrap_or_default()),
                env: "thread",
                malformed: &["turbo"],
                expect: ["manual", "thread", "manual"],
            },
            Knob {
                var: env::SPOOL_DIR_ENV,
                set: |c| c.with_spool_dir("/tmp/spool-code"),
                value: |c| format!("{:?}", c.fabric().spool_dir),
                env: "/tmp/spool-env",
                malformed: &[],
                expect: [
                    "Some(\"/tmp/spool-code\")",
                    "Some(\"/tmp/spool-env\")",
                    "None",
                ],
            },
            Knob {
                var: env::LEASE_MS_ENV,
                set: |c| c.with_lease(Duration::from_millis(42)),
                value: |c| format!("{:?}", c.fabric().lease),
                env: "250",
                malformed: &["0", "fast"],
                expect: ["42ms", "250ms", "1s"],
            },
            Knob {
                var: env::FAULT_ENV,
                set: |c| c.with_faults(FaultPlan::parse("drop:0->1@1").unwrap()),
                value: |c| format!("{}", c.fabric().faults.actions.len()),
                env: "kill:2@5,drop:0->1@3",
                malformed: &["explode:everything"],
                expect: ["1", "2", "0"],
            },
            Knob {
                var: env::TRACE_ENV,
                set: |c| c.with_trace(TraceConfig::counters()),
                value: |c| format!("{:?}", engine_of(c).trace_config().mode),
                env: "events",
                malformed: &["everything"],
                expect: ["Counters", "Events", "Off"],
            },
            Knob {
                var: env::TRACE_DIR_ENV,
                set: |c| c.with_trace_dir("/tmp/traces-code"),
                value: |c| format!("{:?}", engine_of(c).trace_dir()),
                env: "/tmp/traces-env",
                malformed: &[],
                expect: [
                    "Some(\"/tmp/traces-code\")",
                    "Some(\"/tmp/traces-env\")",
                    "None",
                ],
            },
        ];
        for knob in &knobs {
            let resolved = |explicit: bool, raw: Option<&str>| {
                let lookup = |name: &str| raw.filter(|_| name == knob.var).map(str::to_string);
                let config = UniverseConfig::new(4, DeviceKind::ShmFast);
                let config = if explicit { (knob.set)(config) } else { config };
                (knob.value)(&config.resolve(&lookup))
            };
            let [explicit, from_env, default] = knob.expect;
            let var = knob.var;
            assert_eq!(
                resolved(true, Some(knob.env)),
                explicit,
                "{var}: code over env"
            );
            assert_eq!(
                resolved(false, Some(knob.env)),
                from_env,
                "{var}: env over default"
            );
            assert_eq!(resolved(false, None), default, "{var}: unset");
            for raw in ["", "  "].iter().chain(knob.malformed) {
                assert_eq!(resolved(false, Some(raw)), default, "{var}={raw:?}");
            }
        }

        // A segment size of 0 from the environment means no segmentation.
        let lookup = |name: &str| (name == env::SEGMENT_BYTES_ENV).then(|| "0".to_string());
        let config = UniverseConfig::new(2, DeviceKind::ShmFast).resolve(&lookup);
        assert_eq!(engine_of(&config).segment_bytes(), None);
    }

    #[test]
    fn resolve_reads_each_variable_at_most_once_and_skips_explicit_knobs() {
        let asked = std::cell::RefCell::new(Vec::new());
        let lookup = |name: &str| {
            asked.borrow_mut().push(name.to_string());
            None
        };
        UniverseConfig::new(2, DeviceKind::ShmFast)
            .with_eager_threshold(64)
            .with_trace(crate::trace::TraceConfig::off())
            .resolve(&lookup);
        let mut asked = asked.into_inner();
        assert!(!asked
            .iter()
            .any(|n| n == env::EAGER_LIMIT_ENV || n == env::TRACE_ENV));
        let total = asked.len();
        asked.sort();
        asked.dedup();
        assert_eq!(asked.len(), total, "a variable was read twice");
        assert_eq!(total, 8);
    }

    #[test]
    fn works_over_the_tcp_device() {
        Universe::run(2, DeviceKind::Tcp, |engine| {
            let rank = engine.world_rank();
            let peer = (1 - rank) as i32;
            let (data, _) = engine
                .sendrecv(
                    crate::comm::COMM_WORLD,
                    peer,
                    3,
                    &[rank as u8; 16],
                    peer,
                    3,
                    None,
                )
                .unwrap();
            assert!(data.iter().all(|&b| b == (1 - rank) as u8));
        })
        .unwrap();
    }
}
