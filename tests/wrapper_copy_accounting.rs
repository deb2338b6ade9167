//! Wrapper copy-accounting suite: pins the classic wrapper's datapath to
//! one payload copy per direction, through the counters a user can read
//! (`MPI::engine_stats().bytes_copied` and `MPI::jni_stats()`), in the
//! style of the engine's own copy-accounting tests.
//!
//! The contract, per rank and per message on the shm-fast device:
//!
//! * send side — `jni.bytes_in` grows by exactly the payload (the bytes
//!   the datatype selects, not the span it covers), and `bytes_copied`
//!   by exactly one payload: the engine's staging copy, taken straight
//!   from the buffer's byte view;
//! * receive side — `jni.bytes_out` and `bytes_copied` grow by exactly
//!   one payload: the unpack from the completion buffer into the user's
//!   buffer.
//!
//! `bytes_copied` counts bytes, so a second copy shows up as a multiple
//! and a skipped one as a shortfall.

use mpijava::{Datatype, DeviceKind, MpiResult, MpiRuntime, MPI};

/// The paper's Figure 5 convergence size.
const LEN: usize = 256 * 1024;

/// Eager threshold above and below [`LEN`]: both protocols must keep
/// the same budget.
const THRESHOLDS: [(usize, &str); 2] = [(1 << 20, "eager"), (1024, "rendezvous")];

/// What one rank's counters moved by across an operation.
#[derive(Debug, PartialEq, Eq)]
struct Budget {
    copied: u64,
    bytes_in: u64,
    bytes_out: u64,
}

fn measure(mpi: &MPI, op: impl FnOnce() -> MpiResult<()>) -> MpiResult<Budget> {
    let (copied, jni) = (mpi.engine_stats().bytes_copied, mpi.jni_stats());
    op()?;
    let jni_after = mpi.jni_stats();
    Ok(Budget {
        copied: mpi.engine_stats().bytes_copied - copied,
        bytes_in: jni_after.bytes_in - jni.bytes_in,
        bytes_out: jni_after.bytes_out - jni.bytes_out,
    })
}

fn sent(len: usize) -> Budget {
    Budget {
        copied: len as u64,
        bytes_in: len as u64,
        bytes_out: 0,
    }
}

fn received(len: usize) -> Budget {
    Budget {
        copied: len as u64,
        bytes_in: 0,
        bytes_out: len as u64,
    }
}

fn payload() -> Vec<u8> {
    (0..LEN).map(|i| (i * 7 % 251) as u8).collect()
}

/// Run `f` on two shm-fast ranks at each eager threshold.
fn on_two_ranks(f: impl Fn(&MPI, &str) -> MpiResult<()> + Send + Sync) {
    for (threshold, protocol) in THRESHOLDS {
        MpiRuntime::new(2)
            .device(DeviceKind::ShmFast)
            .eager_threshold(threshold)
            .run(|mpi| f(mpi, protocol))
            .unwrap();
    }
}

#[test]
fn classic_send_recv_costs_one_copy_per_side() {
    on_two_ranks(|mpi, protocol| {
        let world = mpi.comm_world();
        let byte = Datatype::byte();
        let data = payload();
        if world.rank()? == 0 {
            let budget = measure(mpi, || world.send(&data, 0, LEN, &byte, 1, 0))?;
            assert_eq!(budget, sent(LEN), "{protocol} Send");
        } else {
            let mut buf = vec![0u8; LEN];
            let budget = measure(mpi, || world.recv(&mut buf, 0, LEN, &byte, 0, 0).map(drop))?;
            assert_eq!(budget, received(LEN), "{protocol} Recv");
            assert!(buf == data, "{protocol} payload");
        }
        Ok(())
    });
}

#[test]
fn strided_sendrecv_marshals_only_the_selected_bytes() {
    // One column of a 512 x 258 row-major grid of doubles: 512 selected
    // doubles (4096 B) spread over a span of 131 839 doubles (1 054 712 B).
    const ROWS: usize = 512;
    const COLS: usize = 258;
    MpiRuntime::new(2)
        .device(DeviceKind::ShmFast)
        .run(|mpi| {
            let world = mpi.comm_world();
            let rank = world.rank()?;
            let peer = 1 - rank as i32;
            let column = Datatype::vector(ROWS, 1, COLS as isize, &Datatype::double())?;
            let grid: Vec<f64> = (0..ROWS * COLS)
                .map(|i| (rank * 1_000_000 + i) as f64)
                .collect();
            let mut next = vec![-1.0f64; ROWS * COLS];
            let budget = measure(mpi, || {
                world
                    .sendrecv(
                        &grid, 1, 1, &column, peer, 0, &mut next, 0, 1, &column, peer, 0,
                    )
                    .map(drop)
            })?;
            let selected = ROWS * 8;
            assert_eq!(budget.bytes_in, selected as u64, "marshalled in");
            assert_eq!(budget.bytes_out, selected as u64, "marshalled out");
            // Counted: the engine's staging copy of the packed column and
            // the wrapper's unpack. The gather into the packed column is
            // the wrapper's own and not counted.
            assert_eq!(budget.copied, 2 * selected as u64, "engine-counted copies");
            for (i, row) in next.chunks_exact(COLS).enumerate() {
                let want = ((1 - rank) * 1_000_000 + i * COLS + 1) as f64;
                assert_eq!(row[0], want, "row {i}: received column");
                assert!(
                    row[1..].iter().all(|&x| x == -1.0),
                    "row {i}: holes untouched"
                );
            }
            Ok(())
        })
        .unwrap();
}

#[test]
fn nonblocking_isend_irecv_keep_the_budget() {
    on_two_ranks(|mpi, protocol| {
        let world = mpi.comm_world();
        let byte = Datatype::byte();
        let data = payload();
        if world.rank()? == 0 {
            let budget = measure(mpi, || {
                world.isend(&data, 0, LEN, &byte, 1, 0)?.wait().map(drop)
            })?;
            assert_eq!(budget, sent(LEN), "{protocol} Isend");
        } else {
            let mut buf = vec![0u8; LEN];
            let budget = measure(mpi, || {
                world.irecv(&mut buf, 0, LEN, &byte, 0, 0)?.wait().map(drop)
            })?;
            assert_eq!(budget, received(LEN), "{protocol} Irecv");
            assert!(buf == data, "{protocol} payload");
        }
        Ok(())
    });
}

#[test]
fn persistent_requests_keep_the_budget_every_start() {
    const ROUNDS: usize = 3;
    on_two_ranks(|mpi, protocol| {
        let world = mpi.comm_world();
        let byte = Datatype::byte();
        let data = payload();
        if world.rank()? == 0 {
            let mut req = world.send_init(&data, 0, LEN, &byte, 1, 0)?;
            for round in 0..ROUNDS {
                let budget = measure(mpi, || {
                    req.start()?;
                    req.wait().map(drop)
                })?;
                assert_eq!(budget, sent(LEN), "{protocol} Send_init round {round}");
            }
            req.free()?;
        } else {
            let mut buf = vec![0u8; LEN];
            let mut req = world.recv_init(&mut buf, 0, LEN, &byte, 0, 0)?;
            for round in 0..ROUNDS {
                let budget = measure(mpi, || {
                    req.start()?;
                    req.wait().map(drop)
                })?;
                assert_eq!(budget, received(LEN), "{protocol} Recv_init round {round}");
            }
            req.free()?;
            assert!(buf == data, "{protocol} payload");
        }
        Ok(())
    });
}

#[test]
fn rs_send_and_recv_into_keep_the_budget() {
    // In scope only here: the trait's methods shadow the classic ones.
    use mpijava::rs::Communicator;
    on_two_ranks(|mpi, protocol| {
        let world = mpi.comm_world();
        let data: Vec<f64> = (0..LEN / 8).map(|i| i as f64 * 0.5).collect();
        if world.rank()? == 0 {
            let budget = measure(mpi, || world.send(&data, 1, 0))?;
            assert_eq!(budget, sent(LEN), "{protocol} rs send");
        } else {
            let mut buf = vec![0.0f64; LEN / 8];
            let budget = measure(mpi, || world.recv_into(&mut buf, 0, 0).map(drop))?;
            assert_eq!(budget, received(LEN), "{protocol} rs recv_into");
            assert!(buf == data, "{protocol} payload");
        }
        Ok(())
    });
}

#[test]
fn rs_persistent_requests_polled_with_test_keep_the_budget() {
    // In scope only here: the trait's methods shadow the classic ones.
    use mpijava::rs::{Communicator, PersistentRequest};
    const ROUNDS: usize = 3;
    /// Drive one started iteration to completion through `test()` alone.
    fn poll(req: &mut PersistentRequest<'_>) -> MpiResult<()> {
        while req.test()?.is_none() {
            std::thread::yield_now();
        }
        assert!(!req.is_active(), "completed iteration is inactive");
        Ok(())
    }
    on_two_ranks(|mpi, protocol| {
        let world = mpi.comm_world();
        let data = payload();
        if world.rank()? == 0 {
            let mut req = world.send_init(&data, 1, 0)?;
            for round in 0..ROUNDS {
                let budget = measure(mpi, || {
                    req.start()?;
                    poll(&mut req)
                })?;
                assert_eq!(budget, sent(LEN), "{protocol} rs send_init round {round}");
            }
            req.free()?;
        } else {
            let mut buf = vec![0u8; LEN];
            let mut req = world.recv_init(&mut buf, 0, 0)?;
            for round in 0..ROUNDS {
                let budget = measure(mpi, || {
                    req.start()?;
                    poll(&mut req)
                })?;
                assert_eq!(
                    budget,
                    received(LEN),
                    "{protocol} rs recv_init round {round}"
                );
            }
            req.free()?;
            assert!(buf == data, "{protocol} payload");
        }
        Ok(())
    });
}
