//! Jacobi relaxation of a 512×512 `f64` grid split by columns across two
//! ranks, with a strided halo exchange and a residual allreduce per step.
//!
//! Each rank stores its 256 columns plus one ghost column per side as a
//! row-major 512×258 array, so a boundary column is the derived type
//! `Datatype.vector(512, 1, 258, DOUBLE)`. The grid is double-buffered
//! and never copied: step `t` sends its boundary column out of the
//! current buffer `a` and receives the peer's column into the ghost
//! column of the next buffer `b`. The stencil reads the ghost from `b`
//! and everything else from `a`, writes the owned cells of `b`, and the
//! buffers swap. (Sending from and receiving into one array would need
//! a shared and a mutable borrow of it at once.)

use bytes::Bytes;
use mpi_native::pack;
use mpi_native::{CommHandle, DatatypeDef, PrimitiveKind};
use mpi_transport::{Endpoint, Frame, FrameHeader, FrameKind};
use mpijava::{Datatype, Intracomm, MpiResult, Op, MPI};

use crate::common::{drive, Clock, Pacer, Rng, SpanLog, Tally};
use crate::pingpong::device_error;

pub const ROWS: usize = 512;
pub const COLS: usize = 512;
/// Columns owned by each rank.
pub const OWNED: usize = COLS / 2;
/// Row stride of a rank's local array: owned columns plus two ghosts.
pub const STRIDE: usize = OWNED + 2;
/// Payload bytes of one boundary column.
pub const COLUMN_BYTES: usize = ROWS * 8;
const TAG: i32 = 11;
/// Written into a ghost column before an exchange, so an exchange that
/// delivers nothing fails the check.
const POISON: f64 = -1.0;

/// The seeded problem: every cell of the global grid, boundary included.
pub struct Problem {
    pub initial: Vec<f64>,
}

impl Problem {
    pub fn new(rng: &mut Rng) -> Problem {
        Problem {
            initial: (0..ROWS * COLS).map(|_| rng.unit()).collect(),
        }
    }
}

/// Local column of the element this rank sends.
pub fn send_col(rank: usize) -> usize {
    if rank == 0 {
        OWNED
    } else {
        1
    }
}

/// Local column of the ghost this rank receives into.
pub fn ghost_col(rank: usize) -> usize {
    if rank == 0 {
        OWNED + 1
    } else {
        0
    }
}

/// One rank's two buffers.
pub struct Local {
    pub rank: usize,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    /// The peer's boundary column in the initial grid.
    pub expected_ghost: Vec<f64>,
}

impl Local {
    pub fn new(problem: &Problem, rank: usize) -> Local {
        let mut a = vec![0.0; ROWS * STRIDE];
        for r in 0..ROWS {
            for c in 1..=OWNED {
                a[r * STRIDE + c] = problem.initial[r * COLS + rank * OWNED + c - 1];
            }
        }
        // Global column of the peer's boundary: 256 for rank 0, 255 for rank 1.
        let peer_col = if rank == 0 { OWNED } else { OWNED - 1 };
        let expected_ghost = (0..ROWS)
            .map(|r| problem.initial[r * COLS + peer_col])
            .collect();
        Local {
            rank,
            b: a.clone(),
            a,
            expected_ghost,
        }
    }

    /// Fingerprint of the owned columns of the current buffer.
    pub fn owned_print(&self) -> u64 {
        fingerprint((0..ROWS).flat_map(|r| &self.a[r * STRIDE + 1..=r * STRIDE + OWNED]))
    }

    fn poison_ghost(&mut self) {
        let g = ghost_col(self.rank);
        for r in 0..ROWS {
            self.b[r * STRIDE + g] = POISON;
        }
    }

    fn ghost_ok(&self) -> bool {
        let g = ghost_col(self.rank);
        (0..ROWS).all(|r| self.b[r * STRIDE + g].to_bits() == self.expected_ghost[r].to_bits())
    }
}

/// The update of one cell; the serial reference uses the same function,
/// so both compute bit-identical grids.
#[inline]
fn relax(up: f64, down: f64, left: f64, right: f64) -> f64 {
    0.25 * ((up + down) + (left + right))
}

/// One relaxation sweep of this rank's owned interior cells from `src`
/// into `dst`, reading the ghost column from `dst`. Returns the largest
/// change of any cell.
pub fn stencil(src: &[f64], dst: &mut [f64], rank: usize) -> f64 {
    // Global columns 0 and 511 are fixed boundary.
    let (lo, hi) = if rank == 0 {
        (2, OWNED)
    } else {
        (1, OWNED - 1)
    };
    let mut residual = 0.0f64;
    for r in 1..ROWS - 1 {
        let row = r * STRIDE;
        let left_ghost = dst[row];
        let right_ghost = dst[row + STRIDE - 1];
        for c in lo..=hi {
            let i = row + c;
            let left = if c == 1 { left_ghost } else { src[i - 1] };
            let right = if c == OWNED { right_ghost } else { src[i + 1] };
            let new = relax(src[i - STRIDE], src[i + STRIDE], left, right);
            residual = residual.max((new - src[i]).abs());
            dst[i] = new;
        }
    }
    residual
}

/// The single-threaded reference: the same sweeps over the whole grid.
pub struct Serial {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Serial {
    pub fn new(problem: &Problem) -> Serial {
        Serial {
            a: problem.initial.clone(),
            b: problem.initial.clone(),
        }
    }

    /// One sweep; returns the residual.
    pub fn step(&mut self) -> f64 {
        let mut residual = 0.0f64;
        let (src, dst) = (&self.a, &mut self.b);
        for r in 1..ROWS - 1 {
            for c in 1..COLS - 1 {
                let i = r * COLS + c;
                let new = relax(src[i - COLS], src[i + COLS], src[i - 1], src[i + 1]);
                residual = residual.max((new - src[i]).abs());
                dst[i] = new;
            }
        }
        std::mem::swap(&mut self.a, &mut self.b);
        residual
    }

    /// Fingerprint of rank `rank`'s owned columns of the current grid.
    pub fn owned_print(&self, rank: usize) -> u64 {
        fingerprint((0..ROWS).flat_map(|r| {
            let start = r * COLS + rank * OWNED;
            &self.a[start..start + OWNED]
        }))
    }
}

/// The communication of one step, through one API surface.
pub trait Halo {
    const LAYER: &'static str;
    const EXCHANGE: &'static str;
    const REDUCE: &'static str;
    /// Send this rank's boundary column of `src`; receive the peer's
    /// into the ghost column of `dst`.
    fn halo(&mut self, src: &[f64], dst: &mut [f64]) -> MpiResult<()>;
    /// Global maximum of `local` over both ranks.
    fn max(&mut self, local: f64) -> MpiResult<f64>;
}

/// What a run of steps leaves behind for checking and reporting.
pub struct Steps {
    /// Per-step times in nanoseconds (timed steps only).
    pub samples: Vec<u64>,
    /// Global residual after every step, warmup included.
    pub residuals: Vec<f64>,
    /// Fingerprint of the owned columns of the final grid.
    pub owned_print: u64,
}

/// SipHash of the bit patterns of `cells`, row-major: grids that differ
/// in any bit differ here but for odds of 2^-64. Runs keep this rather
/// than their final grids, because holding a 1 MiB grid per rank and
/// round fragments the rank threads' heaps until the program's own
/// large buffers page-fault on every call, which slows every later
/// round about 2.4 times.
pub fn fingerprint<'a>(cells: impl Iterator<Item = &'a f64>) -> u64 {
    use std::hash::{DefaultHasher, Hasher};
    let mut h = DefaultHasher::new();
    for c in cells {
        h.write_u64(c.to_bits());
    }
    h.finish()
}

/// Relaxation steps until the pacer stops.
#[allow(clippy::too_many_arguments)]
pub fn steps<H: Halo>(
    halo: &mut H,
    local: &mut Local,
    pacer: &Pacer,
    clock: Clock,
    log: &mut SpanLog,
    warmup: usize,
    batch: usize,
) -> MpiResult<Steps> {
    let mut samples = Vec::new();
    let mut residuals = Vec::new();
    let rank = local.rank;
    drive(pacer, rank, warmup, batch, |timed| {
        let step = residuals.len() as u64;
        let t0 = clock.now();
        halo.halo(&local.a, &mut local.b)?;
        let t1 = clock.now();
        let mine = stencil(&local.a, &mut local.b, rank);
        let t2 = clock.now();
        let global = halo.max(mine)?;
        let t3 = clock.now();
        std::mem::swap(&mut local.a, &mut local.b);
        residuals.push(global);
        if timed {
            samples.push(t3 - t0);
            log.record("bench", "step", step, t0, t3);
            log.record(H::LAYER, H::EXCHANGE, step, t0, t1);
            log.record("bench", "stencil", step, t1, t2);
            log.record(H::LAYER, H::REDUCE, step, t2, t3);
        }
        Ok(())
    })?;
    Ok(Steps {
        samples,
        residuals,
        owned_print: local.owned_print(),
    })
}

/// Halo exchanges alone, without the stencil, checking every delivered
/// ghost column. Samples are this rank's exchange times.
pub fn exchanges<X: Exchange>(
    x: &mut X,
    rank: usize,
    pacer: &Pacer,
    clock: Clock,
    log: &mut SpanLog,
    warmup: usize,
    batch: usize,
) -> MpiResult<Tally> {
    let mut tally = Tally::default();
    let mut step = 0u64;
    drive(pacer, rank, warmup, batch, |timed| {
        x.poison();
        let t0 = clock.now();
        x.exchange()?;
        let t1 = clock.now();
        if timed {
            tally.samples.push(t1 - t0);
            log.record("bench", "step", step, t0, t1);
            log.record(X::LAYER, X::CALL, step, t0, t1);
        }
        tally.check(x.ghost_ok());
        step += 1;
        Ok(())
    })?;
    Ok(tally)
}

/// One halo exchange through one layer, on a grid that stays put.
pub trait Exchange {
    const LAYER: &'static str;
    const CALL: &'static str;
    fn exchange(&mut self) -> MpiResult<()>;
    fn poison(&mut self);
    fn ghost_ok(&self) -> bool;
}

/// Any step-loop surface also runs the exchange-only loop.
pub struct HaloExchange<H: Halo> {
    pub halo: H,
    pub local: Local,
}

impl<H: Halo> Exchange for HaloExchange<H> {
    const LAYER: &'static str = H::LAYER;
    const CALL: &'static str = H::EXCHANGE;

    fn exchange(&mut self) -> MpiResult<()> {
        self.halo.halo(&self.local.a, &mut self.local.b)
    }

    fn poison(&mut self) {
        self.local.poison_ghost();
    }

    fn ghost_ok(&self) -> bool {
        self.local.ghost_ok()
    }
}

/// The paper's surface: `Comm.Sendrecv` of one column of the derived
/// vector type, `Intracomm.Allreduce(MAX)` of one `double`.
pub struct Classic {
    world: Intracomm,
    column: Datatype,
    double: Datatype,
    max: Op,
    peer: i32,
    send_off: usize,
    recv_off: usize,
}

impl Classic {
    pub fn new(mpi: &MPI) -> MpiResult<Classic> {
        let world = mpi.comm_world();
        let rank = world.rank()?;
        let double = Datatype::double();
        Ok(Classic {
            column: Datatype::vector(ROWS, 1, STRIDE as isize, &double)?,
            double,
            max: Op::max(),
            peer: 1 - rank as i32,
            send_off: send_col(rank),
            recv_off: ghost_col(rank),
            world,
        })
    }
}

impl Halo for Classic {
    const LAYER: &'static str = "mpijava";
    const EXCHANGE: &'static str = "Comm.Sendrecv";
    const REDUCE: &'static str = "Intracomm.Allreduce";

    fn halo(&mut self, src: &[f64], dst: &mut [f64]) -> MpiResult<()> {
        let (peer, col) = (self.peer, &self.column);
        self.world
            .sendrecv(
                src,
                self.send_off,
                1,
                col,
                peer,
                TAG,
                dst,
                self.recv_off,
                1,
                col,
                peer,
                TAG,
            )
            .map(drop)
    }

    fn max(&mut self, local: f64) -> MpiResult<f64> {
        let mut out = [0.0f64];
        self.world
            .allreduce(&[local], 0, &mut out, 0, 1, &self.double, &self.max)?;
        Ok(out[0])
    }
}

/// The idiomatic surface has no derived datatypes, so its user packs the
/// column into a contiguous buffer and unpacks the one received.
pub mod idiomatic {
    use super::*;
    use mpijava::rs::Communicator;

    pub struct Rs {
        world: Intracomm,
        peer: i32,
        send_off: usize,
        recv_off: usize,
        out: Vec<f64>,
        inc: Vec<f64>,
    }

    impl Rs {
        pub fn new(mpi: &MPI) -> MpiResult<Rs> {
            let world = mpi.comm_world();
            let rank = Communicator::rank(&world)?;
            Ok(Rs {
                world,
                peer: 1 - rank as i32,
                send_off: send_col(rank),
                recv_off: ghost_col(rank),
                out: vec![0.0; ROWS],
                inc: vec![0.0; ROWS],
            })
        }
    }

    impl Halo for Rs {
        const LAYER: &'static str = "mpijava.rs";
        const EXCHANGE: &'static str = "Communicator::sendrecv";
        const REDUCE: &'static str = "Communicator::all_reduce";

        fn halo(&mut self, src: &[f64], dst: &mut [f64]) -> MpiResult<()> {
            for (r, v) in self.out.iter_mut().enumerate() {
                *v = src[r * STRIDE + self.send_off];
            }
            Communicator::sendrecv(
                &self.world,
                &self.out,
                self.peer,
                TAG,
                &mut self.inc,
                self.peer,
                TAG,
            )?;
            for (r, v) in self.inc.iter().enumerate() {
                dst[r * STRIDE + self.recv_off] = *v;
            }
            Ok(())
        }

        fn max(&mut self, local: f64) -> MpiResult<f64> {
            let mut out = [0.0f64];
            self.world.all_reduce(&[local], &mut out, Op::max())?;
            Ok(out[0])
        }
    }
}

/// Little-endian byte image of `f64`s: the memory a C program hands MPI.
fn to_le_bytes(values: &[f64]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The native engine called directly: `pack::pack` of the column out of
/// the grid's bytes, `Engine::sendrecv`, `pack::unpack` into the ghost.
pub struct Native<'a> {
    mpi: &'a MPI,
    comm: CommHandle,
    column: DatatypeDef,
    peer: i32,
    send_off: usize,
    recv_off: usize,
    a: Vec<u8>,
    b: Vec<u8>,
    expected_ghost: Vec<f64>,
}

/// The engine-level column type, as `Datatype.vector` builds it.
pub fn column_def() -> DatatypeDef {
    DatatypeDef::basic(PrimitiveKind::Double)
        .vector(ROWS, 1, STRIDE as isize)
        .expect("valid vector type")
}

impl<'a> Native<'a> {
    pub fn new(mpi: &'a MPI, local: &Local) -> MpiResult<Native<'a>> {
        let world = mpi.comm_world();
        let rank = world.rank()?;
        Ok(Native {
            mpi,
            comm: world.handle(),
            column: column_def(),
            peer: 1 - rank as i32,
            send_off: send_col(rank) * 8,
            recv_off: ghost_col(rank) * 8,
            a: to_le_bytes(&local.a),
            b: to_le_bytes(&local.b),
            expected_ghost: local.expected_ghost.clone(),
        })
    }

    fn ghost(&self, r: usize) -> f64 {
        let at = r * STRIDE * 8 + self.recv_off;
        f64::from_le_bytes(self.b[at..at + 8].try_into().expect("8 bytes"))
    }
}

impl Exchange for Native<'_> {
    const LAYER: &'static str = "mpi_native";
    const CALL: &'static str = "pack+Engine::sendrecv+unpack";

    fn exchange(&mut self) -> MpiResult<()> {
        let packed = pack::pack(&self.a, self.send_off, 1, &self.column)?;
        let (comm, peer) = (self.comm, self.peer);
        let (data, _) = self
            .mpi
            .with_engine(|e| e.sendrecv(comm, peer, TAG, &packed, peer, TAG, Some(COLUMN_BYTES)))?;
        pack::unpack(&data, &mut self.b, self.recv_off, 1, &self.column)?;
        Ok(())
    }

    fn poison(&mut self) {
        for r in 0..ROWS {
            let at = r * STRIDE * 8 + self.recv_off;
            self.b[at..at + 8].copy_from_slice(&POISON.to_le_bytes());
        }
    }

    fn ghost_ok(&self) -> bool {
        (0..ROWS).all(|r| self.ghost(r).to_bits() == self.expected_ghost[r].to_bits())
    }
}

/// A raw device endpoint moving the packed column as one frame each way.
pub struct Device {
    endpoint: Box<dyn Endpoint>,
    column: Bytes,
    expected: Vec<u8>,
    last: Bytes,
}

impl Device {
    pub fn new(endpoint: Box<dyn Endpoint>, local: &Local) -> Device {
        let rank = local.rank;
        let column: Vec<f64> = (0..ROWS)
            .map(|r| local.a[r * STRIDE + send_col(rank)])
            .collect();
        Device {
            endpoint,
            column: Bytes::from(to_le_bytes(&column)),
            expected: to_le_bytes(&local.expected_ghost),
            last: Bytes::new(),
        }
    }
}

impl Exchange for Device {
    const LAYER: &'static str = "mpi_transport";
    const CALL: &'static str = "Endpoint::send+recv";

    fn exchange(&mut self) -> MpiResult<()> {
        let rank = self.endpoint.rank() as u32;
        let header = FrameHeader {
            kind: FrameKind::Eager,
            src: rank,
            dst: 1 - rank,
            tag: TAG,
            context: 0,
            token: 0,
            msg_len: COLUMN_BYTES as u64,
        };
        self.endpoint
            .send(Frame::new(header, self.column.clone()))
            .map_err(device_error)?;
        self.last = self.endpoint.recv().map_err(device_error)?.payload;
        Ok(())
    }

    fn poison(&mut self) {
        self.last = Bytes::new();
    }

    fn ghost_ok(&self) -> bool {
        self.last[..] == self.expected[..]
    }
}
