//! Closed-loop ping-pong of one seeded payload, through each layer:
//! rank 0 sends, rank 1 echoes what it received, rank 0 times the round
//! trip. One message is in flight at a time.
//!
//! The same loop runs over every layer, so the layers differ only in
//! the calls they make:
//! - `mpijava` classic: `Comm.Send` / `Comm.Recv` with `MPI.BYTE`;
//! - `mpijava` idiomatic: `rs::Communicator::send` / `recv_into`;
//! - `mpi_native`: `Engine::send` / `Engine::recv_into` on the same
//!   communicator the wrapper uses;
//! - `mpi_transport`: `Endpoint::send` / `recv` of one frame.

use bytes::Bytes;
use mpi_native::{CommHandle, SendMode};
use mpi_transport::{Endpoint, Frame, FrameHeader, FrameKind};
use mpijava::{Datatype, Intracomm, MpiResult, MPI};

use crate::common::{drive, Clock, Pacer, SpanLog, Tally};

const TAG: i32 = 7;

/// Seeded payloads, cycled so that a receive that delivers nothing new
/// leaves the previous payload in place and fails the check.
pub struct Payloads {
    pub vecs: Vec<Vec<u8>>,
    pub frames: Vec<Bytes>,
}

impl Payloads {
    pub fn new(rng: &mut crate::common::Rng, size: usize, count: usize) -> Payloads {
        let mut vecs: Vec<Vec<u8>> = (0..count).map(|_| rng.bytes(size)).collect();
        // Neighbours in the cycle must differ, even at one byte.
        for i in 1..count {
            if vecs[i] == vecs[i - 1] {
                vecs[i][0] = vecs[i - 1][0].wrapping_add(1);
            }
        }
        if count > 1 && vecs[0] == vecs[count - 1] {
            vecs[0][0] = vecs[count - 1][0].wrapping_add(1);
            if vecs[0] == vecs[1] {
                vecs[0][0] = vecs[0][0].wrapping_add(1);
            }
        }
        let frames = vecs.iter().map(|v| Bytes::from(v.clone())).collect();
        Payloads { vecs, frames }
    }

    pub fn size(&self) -> usize {
        self.vecs[0].len()
    }
}

/// The calls one layer makes for a ping-pong.
pub trait PingLayer {
    const LAYER: &'static str;
    const SEND: &'static str;
    const RECV: &'static str;
    /// Send payload `k` to the peer.
    fn send_payload(&mut self, k: usize) -> MpiResult<()>;
    /// Send back what the last `recv` delivered.
    fn send_received(&mut self) -> MpiResult<()>;
    fn recv(&mut self) -> MpiResult<()>;
    /// What the last `recv` delivered.
    fn received(&self) -> &[u8];
}

/// Ping-pong until the pacer stops. Rank 0's samples are round trips in
/// nanoseconds; both ranks check every payload they receive, outside the
/// timed interval.
#[allow(clippy::too_many_arguments)]
pub fn run<L: PingLayer>(
    layer: &mut L,
    rank: usize,
    payloads: &Payloads,
    pacer: &Pacer,
    clock: Clock,
    log: &mut SpanLog,
    warmup: usize,
    batch: usize,
) -> MpiResult<Tally> {
    let mut tally = Tally::default();
    let mut step = 0u64;
    drive(pacer, rank, warmup, batch, |timed| {
        let k = step as usize % payloads.vecs.len();
        if rank == 0 {
            let t0 = clock.now();
            layer.send_payload(k)?;
            let t1 = clock.now();
            layer.recv()?;
            let t2 = clock.now();
            tally.check(layer.received() == payloads.vecs[k].as_slice());
            if timed {
                // The step span covers the whole iteration, check included:
                // the benchmark's own share of a closed-loop step.
                let t3 = clock.now();
                tally.samples.push(t2 - t0);
                log.record("bench", "step", step, t0, t3);
                log.record(L::LAYER, L::SEND, step, t0, t1);
                log.record(L::LAYER, L::RECV, step, t1, t2);
            }
        } else {
            layer.recv()?;
            layer.send_received()?;
            tally.check(layer.received() == payloads.vecs[k].as_slice());
        }
        step += 1;
        Ok(())
    })?;
    Ok(tally)
}

/// The paper's mpiJava surface.
pub struct Classic<'a> {
    world: Intracomm,
    ty: Datatype,
    peer: i32,
    payloads: &'a Payloads,
    rbuf: Vec<u8>,
}

impl<'a> Classic<'a> {
    pub fn new(mpi: &MPI, payloads: &'a Payloads) -> MpiResult<Classic<'a>> {
        let world = mpi.comm_world();
        let peer = 1 - world.rank()? as i32;
        Ok(Classic {
            world,
            ty: Datatype::byte(),
            peer,
            payloads,
            rbuf: vec![0; payloads.size()],
        })
    }
}

impl PingLayer for Classic<'_> {
    const LAYER: &'static str = "mpijava";
    const SEND: &'static str = "Comm.Send";
    const RECV: &'static str = "Comm.Recv";

    fn send_payload(&mut self, k: usize) -> MpiResult<()> {
        let buf = &self.payloads.vecs[k];
        self.world.send(buf, 0, buf.len(), &self.ty, self.peer, TAG)
    }

    fn send_received(&mut self) -> MpiResult<()> {
        let n = self.rbuf.len();
        self.world.send(&self.rbuf, 0, n, &self.ty, self.peer, TAG)
    }

    fn recv(&mut self) -> MpiResult<()> {
        let n = self.rbuf.len();
        self.world
            .recv(&mut self.rbuf, 0, n, &self.ty, self.peer, TAG)
            .map(drop)
    }

    fn received(&self) -> &[u8] {
        &self.rbuf
    }
}

/// The idiomatic `rs` surface. Kept in its own module because importing
/// `rs::Communicator` shadows the classic methods of the same name.
pub mod idiomatic {
    use super::*;
    use mpijava::rs::Communicator;

    pub struct Rs<'a> {
        world: Intracomm,
        peer: i32,
        payloads: &'a Payloads,
        rbuf: Vec<u8>,
    }

    impl<'a> Rs<'a> {
        pub fn new(mpi: &MPI, payloads: &'a Payloads) -> MpiResult<Rs<'a>> {
            let world = mpi.comm_world();
            let peer = 1 - Communicator::rank(&world)? as i32;
            Ok(Rs {
                world,
                peer,
                payloads,
                rbuf: vec![0; payloads.size()],
            })
        }
    }

    impl PingLayer for Rs<'_> {
        const LAYER: &'static str = "mpijava.rs";
        const SEND: &'static str = "Communicator::send";
        const RECV: &'static str = "Communicator::recv_into";

        fn send_payload(&mut self, k: usize) -> MpiResult<()> {
            Communicator::send(&self.world, &self.payloads.vecs[k], self.peer, TAG)
        }

        fn send_received(&mut self) -> MpiResult<()> {
            Communicator::send(&self.world, &self.rbuf, self.peer, TAG)
        }

        fn recv(&mut self) -> MpiResult<()> {
            self.world
                .recv_into(&mut self.rbuf, self.peer, TAG)
                .map(drop)
        }

        fn received(&self) -> &[u8] {
            &self.rbuf
        }
    }
}

/// The native engine under the wrapper, called directly: the paper's
/// "C MPI" baseline on the same substrate.
pub struct Native<'a> {
    mpi: &'a MPI,
    comm: CommHandle,
    peer: i32,
    payloads: &'a Payloads,
    rbuf: Vec<u8>,
}

impl<'a> Native<'a> {
    pub fn new(mpi: &'a MPI, payloads: &'a Payloads) -> MpiResult<Native<'a>> {
        let world = mpi.comm_world();
        let peer = 1 - world.rank()? as i32;
        Ok(Native {
            mpi,
            comm: world.handle(),
            peer,
            payloads,
            rbuf: vec![0; payloads.size()],
        })
    }

    fn send(&self, buf: &[u8]) -> MpiResult<()> {
        let (comm, peer) = (self.comm, self.peer);
        self.mpi
            .with_engine(|e| e.send(comm, peer, TAG, buf, SendMode::Standard))?;
        Ok(())
    }
}

impl PingLayer for Native<'_> {
    const LAYER: &'static str = "mpi_native";
    const SEND: &'static str = "Engine::send";
    const RECV: &'static str = "Engine::recv_into";

    fn send_payload(&mut self, k: usize) -> MpiResult<()> {
        self.send(&self.payloads.vecs[k])
    }

    fn send_received(&mut self) -> MpiResult<()> {
        self.send(&self.rbuf)
    }

    fn recv(&mut self) -> MpiResult<()> {
        let (comm, peer, rbuf) = (self.comm, self.peer, &mut self.rbuf);
        self.mpi
            .with_engine(|e| e.recv_into(comm, peer, TAG, rbuf))?;
        Ok(())
    }

    fn received(&self) -> &[u8] {
        &self.rbuf
    }
}

/// A raw device endpoint: one frame per message, no engine above it
/// (the paper's raw-socket row). Payloads travel as shared buffers, so
/// the device itself copies nothing.
pub struct Device<'a> {
    endpoint: Box<dyn Endpoint>,
    payloads: &'a Payloads,
    last: Bytes,
}

impl<'a> Device<'a> {
    pub fn new(endpoint: Box<dyn Endpoint>, payloads: &'a Payloads) -> Device<'a> {
        Device {
            endpoint,
            payloads,
            last: Bytes::new(),
        }
    }

    fn send(&self, payload: Bytes) -> MpiResult<()> {
        let rank = self.endpoint.rank() as u32;
        let header = FrameHeader {
            kind: FrameKind::Eager,
            src: rank,
            dst: 1 - rank,
            tag: TAG,
            context: 0,
            token: 0,
            msg_len: payload.len() as u64,
        };
        self.endpoint
            .send(Frame::new(header, payload))
            .map_err(device_error)
    }
}

pub fn device_error(e: mpi_transport::TransportError) -> mpijava::MPIException {
    mpijava::MPIException::from(mpi_native::MpiError::from(e))
}

impl PingLayer for Device<'_> {
    const LAYER: &'static str = "mpi_transport";
    const SEND: &'static str = "Endpoint::send";
    const RECV: &'static str = "Endpoint::recv";

    fn send_payload(&mut self, k: usize) -> MpiResult<()> {
        self.send(self.payloads.frames[k].clone())
    }

    fn send_received(&mut self) -> MpiResult<()> {
        self.send(self.last.clone())
    }

    fn recv(&mut self) -> MpiResult<()> {
        self.last = self.endpoint.recv().map_err(device_error)?.payload;
        Ok(())
    }

    fn received(&self) -> &[u8] {
        &self.last
    }
}
