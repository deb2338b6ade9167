//! A blocking, bounded, multi-producer inbox with optional delayed delivery.
//!
//! Each rank of the in-process devices owns one `Mailbox`; every other rank
//! pushes frames into it. Delivery order is the push order, which together
//! with the per-sender FIFO of the callers gives the per-pair ordering the
//! MPI engine relies on. A frame may carry a *due* instant (set by the
//! [`crate::NetworkModel`]); it is then not handed to the receiver before
//! that instant, which is how the DM-mode link is simulated without
//! blocking senders.
//!
//! # Waiting: spin, then park
//!
//! A blocking pop that finds the queue empty (and the mailbox open) first
//! spins: it polls an atomic mirror of the queue length, without taking
//! the lock, for at most `SPIN_BUDGET` (10 µs) or until the caller's
//! deadline, whichever comes first. It polls in short `spin_loop`
//! bursts with a `yield_now` between them, so on a host with fewer CPUs
//! than busy threads the producer it waits for still gets to run. Only
//! then does it park on a `Condvar`. The budget is about one cross-CPU
//! park+wake: a ping-pong reply usually lands inside it, and spinning
//! longer than a wakeup would cost gains nothing over parking.
//! [`Mailbox::try_pop`] never spins, and a head frame that is not yet
//! due is waited for by parking until its due time.
//!
//! Two wake gates keep the futex syscalls off the fast path: a push
//! notifies `not_empty` only when a popper is parked, and a pop notifies
//! `not_full` only when a pusher is parked. Waiters change those counts
//! under the lock they hold when they park, and notifiers read them under
//! the same lock, so either the notifier sees the parked waiter or the
//! waiter sees the notifier's change to the queue: no wakeup is lost.
//! A spinning popper is not counted; it sees the length mirror change.
//! It notices [`Mailbox::close`] when its spin ends.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::error::{Result, TransportError};
use crate::frame::Frame;

/// How long an empty blocking pop spins before it parks: about one
/// cross-CPU park+wake. On a 2-CPU Xeon host a traced 1-byte SM
/// ping-pong spent 6.8–8.1 µs per one-way message in the device when
/// every receive parked, and 0.75–0.78 µs with this spin; a spin that
/// runs out costs no more than the wakeup it would otherwise have paid.
const SPIN_BUDGET: Duration = Duration::from_micros(10);

/// Length-mirror polls per spin burst (about 0.5 µs on the same host);
/// each burst ends with one clock read and, if the spin goes on, one
/// `yield_now`.
const SPIN_BURST: u32 = 32;

struct Slot {
    frame: Frame,
    due: Option<Instant>,
}

struct Inner {
    queue: VecDeque<Slot>,
    closed: bool,
    /// Poppers waiting on `not_empty`.
    parked_poppers: usize,
    /// Pushers waiting on `not_full`.
    parked_pushers: usize,
}

/// Blocking bounded inbox. See the module documentation.
pub struct Mailbox {
    inner: Mutex<Inner>,
    /// `inner.queue.len()`, stored (`Release`) under the lock on every
    /// push and pop and loaded (`Acquire`) without it by spinning
    /// poppers. It is only a hint: a popper takes the lock before it
    /// touches the queue.
    queued: AtomicUsize,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl Mailbox {
    /// Create a mailbox holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Mailbox {
        Mailbox {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
                parked_poppers: 0,
                parked_pushers: 0,
            }),
            queued: AtomicUsize::new(0),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of frames currently queued (including not-yet-due ones).
    pub fn len(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }

    /// True when no frames are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push a frame, blocking while the mailbox is full.
    pub fn push(&self, frame: Frame, due: Option<Instant>) -> Result<()> {
        let mut inner = self.inner.lock();
        while inner.queue.len() >= self.capacity && !inner.closed {
            inner.parked_pushers += 1;
            self.not_full.wait(&mut inner);
            inner.parked_pushers -= 1;
        }
        if inner.closed {
            return Err(TransportError::Disconnected);
        }
        inner.queue.push_back(Slot { frame, due });
        self.queued.store(inner.queue.len(), Ordering::Release);
        let wake = inner.parked_poppers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Pop the frame at the head of the queue, blocking until one is
    /// available *and* its due time (if any) has passed.
    pub fn pop(&self) -> Result<Frame> {
        loop {
            if let Some(frame) = self.pop_deadline(None)? {
                return Ok(frame);
            }
        }
    }

    /// Pop with a timeout. Returns `Ok(None)` when the timeout expires.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<Option<Frame>> {
        self.pop_deadline(Some(Instant::now() + timeout))
    }

    /// Non-blocking pop. Returns `Ok(None)` when no frame is ready
    /// (either the queue is empty or the head frame is not yet due).
    pub fn try_pop(&self) -> Result<Option<Frame>> {
        let inner = self.inner.lock();
        match inner.queue.front() {
            Some(slot) if slot.due.is_some_and(|due| Instant::now() < due) => Ok(None),
            Some(_) => Ok(Some(self.take_front(inner))),
            None if inner.closed => Err(TransportError::Disconnected),
            None => Ok(None),
        }
    }

    fn pop_deadline(&self, deadline: Option<Instant>) -> Result<Option<Frame>> {
        let mut inner = self.inner.lock();
        let mut spun = false;
        loop {
            let expired = || deadline.is_some_and(|d| Instant::now() >= d);
            if let Some(slot) = inner.queue.front() {
                match slot.due {
                    // Head frame exists but is still "on the wire".
                    Some(due) if Instant::now() < due => {
                        if expired() {
                            return Ok(None);
                        }
                        let until = deadline.map_or(due, |d| d.min(due));
                        self.park_popper(&mut inner, Some(until));
                    }
                    _ => return Ok(Some(self.take_front(inner))),
                }
                continue;
            }
            if inner.closed {
                return Err(TransportError::Disconnected);
            }
            if expired() {
                return Ok(None);
            }
            if spun {
                self.park_popper(&mut inner, deadline);
            } else {
                spun = true;
                drop(inner);
                self.spin(deadline);
                inner = self.inner.lock();
            }
        }
    }

    /// Poll the length mirror until a frame is queued, [`SPIN_BUDGET`]
    /// has passed or `deadline` is reached.
    fn spin(&self, deadline: Option<Instant>) {
        let budget_end = Instant::now() + SPIN_BUDGET;
        let end = deadline.map_or(budget_end, |d| d.min(budget_end));
        loop {
            for _ in 0..SPIN_BURST {
                if self.queued.load(Ordering::Acquire) != 0 {
                    return;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= end {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Park on `not_empty` until notified or `until`, counted so that a
    /// push knows to notify.
    fn park_popper(&self, inner: &mut MutexGuard<'_, Inner>, until: Option<Instant>) {
        inner.parked_poppers += 1;
        match until {
            Some(until) => {
                self.not_empty.wait_until(inner, until);
            }
            None => self.not_empty.wait(inner),
        }
        inner.parked_poppers -= 1;
    }

    /// Remove the head frame, then wake a parked pusher if there is one.
    fn take_front(&self, mut inner: MutexGuard<'_, Inner>) -> Frame {
        let slot = inner.queue.pop_front().expect("caller checked the head");
        self.queued.store(inner.queue.len(), Ordering::Release);
        let wake = inner.parked_pushers > 0;
        drop(inner);
        if wake {
            self.not_full.notify_one();
        }
        slot.frame
    }

    /// Mark the mailbox closed: pending pops return `Disconnected` once the
    /// queue drains; new pushes fail immediately.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameHeader, FrameKind};
    use bytes::Bytes;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    fn frame(tag: i32, payload: &[u8]) -> Frame {
        Frame::new(
            FrameHeader {
                kind: FrameKind::Eager,
                src: 0,
                dst: 1,
                tag,
                context: 0,
                token: 0,
                msg_len: payload.len() as u64,
            },
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn push_pop_is_fifo() {
        let mb = Mailbox::new(16);
        for i in 0..5 {
            mb.push(frame(i, &[i as u8]), None).unwrap();
        }
        for i in 0..5 {
            assert_eq!(mb.pop().unwrap().header.tag, i);
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn try_pop_on_empty_returns_none() {
        let mb = Mailbox::new(4);
        assert!(mb.try_pop().unwrap().is_none());
    }

    #[test]
    fn pop_timeout_expires() {
        let mb = Mailbox::new(4);
        let start = Instant::now();
        let got = mb.pop_timeout(Duration::from_millis(30)).unwrap();
        assert!(got.is_none());
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn delayed_frames_are_not_released_early() {
        let mb = Mailbox::new(4);
        let due = Instant::now() + Duration::from_millis(50);
        mb.push(frame(1, b"x"), Some(due)).unwrap();
        assert!(mb.try_pop().unwrap().is_none(), "frame released before due");
        let start = Instant::now();
        let got = mb.pop().unwrap();
        assert_eq!(got.header.tag, 1);
        assert!(start.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn blocking_pop_wakes_on_push_from_other_thread() {
        let mb = Arc::new(Mailbox::new(4));
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.pop().unwrap().header.tag);
        std::thread::sleep(Duration::from_millis(20));
        mb.push(frame(7, b"hello"), None).unwrap();
        assert_eq!(handle.join().unwrap(), 7);
    }

    /// Run `f` on its own thread and fail if it has not finished within
    /// `limit`, so a lost wakeup fails the test instead of hanging it.
    fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done_tx, done) = mpsc::channel();
        let worker = std::thread::spawn(move || {
            let out = f();
            let _ = done_tx.send(());
            out
        });
        if let Err(RecvTimeoutError::Timeout) = done.recv_timeout(limit) {
            panic!("mailbox operation hung for {limit:?}: lost wakeup?");
        }
        worker
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    #[test]
    fn close_unblocks_waiters_with_disconnected() {
        // Closed as the popper starts (usually while it spins), and once
        // it has parked.
        for wait_for_park in [false, true] {
            let mb = Arc::new(Mailbox::new(4));
            let mb2 = Arc::clone(&mb);
            let popped = within(Duration::from_secs(10), move || {
                let start = Arc::new(Barrier::new(2));
                let start2 = Arc::clone(&start);
                let popper = std::thread::spawn(move || {
                    start2.wait();
                    mb2.pop()
                });
                start.wait();
                while wait_for_park && mb.inner.lock().parked_poppers == 0 {
                    std::thread::yield_now();
                }
                mb.close();
                assert!(matches!(
                    mb.push(frame(0, b""), None),
                    Err(TransportError::Disconnected)
                ));
                popper.join().unwrap()
            });
            assert!(matches!(popped, Err(TransportError::Disconnected)));
        }
    }

    #[test]
    fn pop_timeout_shorter_than_spin_returns_near_deadline() {
        let mb = Mailbox::new(4);
        for timeout in [Duration::ZERO, SPIN_BUDGET / 4, SPIN_BUDGET / 2] {
            let start = Instant::now();
            assert!(mb.pop_timeout(timeout).unwrap().is_none());
            let took = start.elapsed();
            assert!(took >= timeout);
            assert!(
                took < Duration::from_millis(20),
                "{timeout:?} timeout took {took:?}"
            );
        }
    }

    #[test]
    fn no_lost_wakeup_with_mixed_pops_and_full_queue() {
        const PRODUCERS: u32 = 3;
        const FRAMES: u64 = 20_000;
        // Capacity 2 keeps pushers parking on `not_full` as often as the
        // consumer parks on `not_empty`.
        let mb = Arc::new(Mailbox::new(2));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|src| {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    for seq in 0..FRAMES {
                        let mut f = frame(0, b"");
                        f.header.src = src;
                        f.header.token = seq;
                        mb.push(f, None).unwrap();
                    }
                })
            })
            .collect();
        let next = within(Duration::from_secs(15), move || {
            let mut next = [0u64; PRODUCERS as usize];
            let mut received = 0u64;
            let mut i = 0u64;
            while received < PRODUCERS as u64 * FRAMES {
                i += 1;
                let got = match i % 4 {
                    0 => Some(mb.pop().unwrap()),
                    1 => mb.pop_timeout(SPIN_BUDGET / 5).unwrap(),
                    2 => mb.pop_timeout(Duration::from_millis(1)).unwrap(),
                    _ => mb.try_pop().unwrap(),
                };
                if let Some(f) = got {
                    let src = f.header.src as usize;
                    assert_eq!(f.header.token, next[src], "producer {src} reordered");
                    next[src] += 1;
                    received += 1;
                }
            }
            next
        });
        assert_eq!(next, [FRAMES; PRODUCERS as usize]);
        for producer in producers {
            producer.join().unwrap();
        }
    }

    #[test]
    fn bounded_capacity_blocks_until_drained() {
        let mb = Arc::new(Mailbox::new(2));
        mb.push(frame(0, b"a"), None).unwrap();
        mb.push(frame(1, b"b"), None).unwrap();
        let mb2 = Arc::clone(&mb);
        let pusher = std::thread::spawn(move || {
            mb2.push(frame(2, b"c"), None).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(mb.len(), 2, "third push should still be blocked");
        assert_eq!(mb.pop().unwrap().header.tag, 0);
        pusher.join().unwrap();
        assert_eq!(mb.pop().unwrap().header.tag, 1);
        assert_eq!(mb.pop().unwrap().header.tag, 2);
    }
}
