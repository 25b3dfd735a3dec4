//! A hand-rolled bounded MPSC channel (Mutex + Condvar + ring buffer).
//!
//! `std::sync::mpsc::channel` is unbounded, which the `bounded-channel`
//! lint bans in this crate for a reason: the whole point of the live
//! service is that overload becomes *visible backpressure* (a blocked
//! feeder, a counted shed, a degraded mode), never silent memory growth.
//! Capacity is fixed at construction and every overflow behaviour is an
//! explicit method:
//!
//! * [`Sender::send`] — block until space (the `block` policy),
//! * [`Sender::try_send`] — fail fast (drives `sample` degradation),
//! * [`Sender::send_dropping_oldest`] — evict the queue head (the
//!   `drop-oldest` policy), returning the victim so it can be counted
//!   and reported as a typed [`airguard_obs::ObsEvent`].
//!
//! Each side counts its parked threads under the lock, and a push or a
//! pop calls `notify_one` only when the other side has one parked:
//! `notify_one` is a futex syscall even when nobody waits, which costs
//! several uncontended lock round trips. The disconnect paths (the last
//! sender or the receiver dropping) always `notify_all`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Shared queue state.
#[derive(Debug)]
struct State<T> {
    queue: VecDeque<T>,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
    /// Receivers waiting on `not_empty`.
    parked_receivers: usize,
    /// Senders waiting on `not_full`.
    parked_senders: usize,
}

#[derive(Debug)]
struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when the queue gains an item or all senders leave.
    not_empty: Condvar,
    /// Signalled when the queue loses an item or the receiver leaves.
    not_full: Condvar,
}

/// The sending half; clone one per producer.
#[derive(Debug)]
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half.
#[derive(Debug)]
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Outcome of a bounded-wait receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeout<T> {
    /// An item arrived within the deadline.
    Item(T),
    /// Every sender is gone and the queue is drained.
    Disconnected,
    /// The deadline passed with the queue still empty.
    TimedOut,
}

/// Why a send did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The receiver was dropped; the channel can never drain.
    Disconnected,
    /// The queue is at capacity (returned by [`Sender::try_send`] and by
    /// [`Sender::send_timeout`] on timeout).
    Full,
}

/// Creates a bounded channel with room for `capacity` in-flight items
/// (floored at 1: a zero-capacity rendezvous channel would deadlock the
/// single-threaded tests and serves no policy here).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let capacity = capacity.max(1);
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            capacity,
            senders: 1,
            receiver_alive: true,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Waits on `condvar` until woken, or until `deadline` when one is set.
/// A poisoned lock is recovered like in [`Shared::lock`].
fn wait<'a, T>(
    condvar: &Condvar,
    state: MutexGuard<'a, State<T>>,
    deadline: Option<Instant>,
) -> MutexGuard<'a, State<T>> {
    match deadline {
        None => condvar.wait(state).unwrap_or_else(PoisonError::into_inner),
        Some(deadline) => {
            let timeout = deadline.saturating_duration_since(Instant::now());
            match condvar.wait_timeout(state, timeout) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            }
        }
    }
}

impl<T> Shared<T> {
    /// Acquires the state lock, recovering from a poisoned mutex: a
    /// worker that panicked while holding the lock leaves a structurally
    /// intact queue (all mutations are single `push`/`pop` calls), and
    /// the panic itself is surfaced separately by the thread scope.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues and wakes a parked receiver. `notify_one` costs a
    /// syscall even when nobody waits, so it is skipped unless a
    /// receiver is parked.
    fn push(&self, state: &mut State<T>, item: T) {
        state.queue.push_back(item);
        if state.parked_receivers > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Dequeues and wakes a parked sender, on the same rule as
    /// [`Shared::push`].
    fn pop(&self, state: &mut State<T>) -> Option<T> {
        let item = state.queue.pop_front()?;
        if state.parked_senders > 0 {
            self.not_full.notify_one();
        }
        Some(item)
    }

    /// Blocks until the item fits, the receiver is gone, or `timeout`
    /// (if any) passes with the queue still full.
    fn send(&self, item: T, timeout: Option<Duration>) -> Result<(), SendError> {
        // Set at the first wait; `Some(None)` when `timeout` overflows
        // the clock, which leaves the wait unbounded.
        let mut deadline = None;
        let mut state = self.lock();
        loop {
            if !state.receiver_alive {
                return Err(SendError::Disconnected);
            }
            if state.queue.len() < state.capacity {
                self.push(&mut state, item);
                return Ok(());
            }
            // The clock is read only once the queue is found full.
            if let Some(timeout) = timeout {
                let now = Instant::now();
                let due = *deadline.get_or_insert_with(|| now.checked_add(timeout));
                if due.is_some_and(|due| now >= due) {
                    return Err(SendError::Full);
                }
            }
            state.parked_senders += 1;
            state = wait(&self.not_full, state, deadline.flatten());
            state.parked_senders -= 1;
        }
    }

    /// Blocks for the next item until every sender is gone, or until
    /// `timeout` (if any) passes with the queue still empty.
    fn recv(&self, timeout: Option<Duration>) -> RecvTimeout<T> {
        let deadline = timeout.and_then(|timeout| Instant::now().checked_add(timeout));
        let mut state = self.lock();
        loop {
            if let Some(item) = self.pop(&mut state) {
                return RecvTimeout::Item(item);
            }
            if state.senders == 0 {
                return RecvTimeout::Disconnected;
            }
            if deadline.is_some_and(|due| Instant::now() >= due) {
                return RecvTimeout::TimedOut;
            }
            state.parked_receivers += 1;
            state = wait(&self.not_empty, state, deadline);
            state.parked_receivers -= 1;
        }
    }
}

impl<T> Sender<T> {
    /// Blocks until the item fits (backpressure), or the receiver is
    /// gone.
    pub fn send(&self, item: T) -> Result<(), SendError> {
        self.shared.send(item, None)
    }

    /// Like [`Sender::send`] but gives up after `timeout` with
    /// [`SendError::Full`] — the watchdog's probe for a consumer that
    /// has stopped consuming.
    pub fn send_timeout(&self, item: T, timeout: Duration) -> Result<(), SendError> {
        self.shared.send(item, Some(timeout))
    }

    /// Enqueues without blocking; [`SendError::Full`] when at capacity.
    pub fn try_send(&self, item: T) -> Result<(), SendError> {
        let mut state = self.shared.lock();
        if !state.receiver_alive {
            return Err(SendError::Disconnected);
        }
        if state.queue.len() < state.capacity {
            self.shared.push(&mut state, item);
            Ok(())
        } else {
            Err(SendError::Full)
        }
    }

    /// Enqueues unconditionally, evicting the oldest queued item when at
    /// capacity. Returns the evicted item so the caller can count and
    /// report the shed — a silent drop is exactly what this crate's
    /// telemetry contract forbids.
    pub fn send_dropping_oldest(&self, item: T) -> Result<Option<T>, SendError> {
        let mut state = self.shared.lock();
        if !state.receiver_alive {
            return Err(SendError::Disconnected);
        }
        let evicted = if state.queue.len() >= state.capacity {
            state.queue.pop_front()
        } else {
            None
        };
        self.shared.push(&mut state, item);
        Ok(evicted)
    }

    /// Items currently queued (a congestion probe for degraded-mode
    /// recovery; racy by nature, which is fine for a heuristic).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            // Wake a receiver blocked on an empty queue so it can see
            // the disconnect and finish.
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Blocks for the next item; `None` once every sender is gone and
    /// the queue is drained (the clean end-of-stream signal).
    #[must_use]
    pub fn recv(&self) -> Option<T> {
        match self.shared.recv(None) {
            RecvTimeout::Item(item) => Some(item),
            RecvTimeout::Disconnected | RecvTimeout::TimedOut => None,
        }
    }

    /// Like [`Receiver::recv`] but gives up after `timeout` — the
    /// checkpoint barrier's guard against a shard that never replies.
    pub fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        self.shared.recv(Some(timeout))
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receiver_alive = false;
        drop(state);
        // Senders blocked on a full queue must observe the disconnect.
        self.shared.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::{bounded, SendError, Shared};
    use std::time::{Duration, Instant};

    #[test]
    fn fifo_order_is_preserved() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).expect("receiver alive");
        }
        drop(tx);
        let drained: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_send_reports_full_at_capacity() {
        let (tx, _rx) = bounded(2);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Ok(()));
        assert_eq!(tx.try_send(3), Err(SendError::Full));
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn send_dropping_oldest_returns_the_victim() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.send_dropping_oldest(1), Ok(None));
        assert_eq!(tx.send_dropping_oldest(2), Ok(None));
        assert_eq!(tx.send_dropping_oldest(3), Ok(Some(1)));
        drop(tx);
        let drained: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(drained, vec![2, 3]);
    }

    #[test]
    fn recv_sees_disconnect_after_drain() {
        let (tx, rx) = bounded(2);
        tx.send(7).expect("receiver alive");
        drop(tx);
        assert_eq!(rx.recv(), Some(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_once_receiver_is_gone() {
        let (tx, rx) = bounded(2);
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError::Disconnected));
        assert_eq!(tx.try_send(1), Err(SendError::Disconnected));
        assert_eq!(tx.send_dropping_oldest(1), Err(SendError::Disconnected));
    }

    #[test]
    fn send_timeout_times_out_on_a_stuck_consumer() {
        let (tx, _rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(
            tx.send_timeout(2, Duration::from_millis(20)),
            Err(SendError::Full)
        );
    }

    #[test]
    fn recv_timeout_distinguishes_empty_from_disconnected() {
        use super::RecvTimeout;
        let (tx, rx) = bounded(2);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            RecvTimeout::TimedOut
        );
        tx.send(5).expect("receiver alive");
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            RecvTimeout::Item(5)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            RecvTimeout::Disconnected
        );
    }

    /// Yields until exactly `receivers` receivers and `senders` senders
    /// are parked on the channel. Polling the counts, rather than
    /// sleeping, makes the wake tests below exact: the waker acts only
    /// once its target is provably asleep.
    fn await_parked<T>(shared: &Shared<T>, receivers: usize, senders: usize) {
        loop {
            let state = shared.lock();
            if (state.parked_receivers, state.parked_senders) == (receivers, senders) {
                return;
            }
            drop(state);
            std::thread::yield_now();
        }
    }

    #[test]
    fn send_wakes_a_parked_recv() {
        let (tx, rx) = bounded(1);
        std::thread::scope(|scope| {
            let got = scope.spawn(|| rx.recv());
            await_parked(&tx.shared, 1, 0);
            tx.send(5).expect("receiver alive");
            assert_eq!(got.join().expect("no panic"), Some(5));
        });
        assert_eq!(tx.shared.lock().parked_receivers, 0);
    }

    #[test]
    fn blocking_send_resumes_when_space_frees() {
        let (tx, rx) = bounded(1);
        tx.send(0).expect("receiver alive");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Blocks until the main thread drains one item.
                tx.send(1).expect("receiver alive");
            });
            await_parked(&rx.shared, 0, 1);
            assert_eq!(rx.recv(), Some(0));
            assert_eq!(rx.recv(), Some(1));
        });
    }

    #[test]
    fn recv_wakes_a_parked_send_timeout() {
        let (tx, rx) = bounded(1);
        tx.send(0).expect("receiver alive");
        let patience = Duration::from_secs(60);
        std::thread::scope(|scope| {
            let sent = scope.spawn(|| {
                let start = Instant::now();
                (tx.send_timeout(1, patience), start.elapsed())
            });
            await_parked(&rx.shared, 0, 1);
            assert_eq!(rx.recv(), Some(0));
            let (sent, waited) = sent.join().expect("no panic");
            assert_eq!(sent, Ok(()));
            // Woken by the pop: a lost wake would sleep to the deadline
            // and only then find the free slot.
            assert!(waited < patience, "woke at its deadline, not on the pop");
            assert_eq!(rx.recv(), Some(1));
        });
        assert_eq!(tx.shared.lock().parked_senders, 0);
    }

    #[test]
    fn dropping_the_last_sender_wakes_a_parked_recv() {
        let (tx, rx) = bounded::<i32>(1);
        let tx2 = tx.clone();
        std::thread::scope(|scope| {
            let got = scope.spawn(|| rx.recv());
            await_parked(&rx.shared, 1, 0);
            drop(tx);
            drop(tx2);
            assert_eq!(got.join().expect("no panic"), None);
        });
    }

    #[test]
    fn dropping_the_receiver_wakes_a_parked_send() {
        let (tx, rx) = bounded(1);
        tx.send(0).expect("receiver alive");
        std::thread::scope(|scope| {
            let sent = scope.spawn(|| tx.send(1));
            await_parked(&tx.shared, 0, 1);
            drop(rx);
            assert_eq!(sent.join().expect("no panic"), Err(SendError::Disconnected));
        });
    }

    #[test]
    fn cloned_senders_all_count_toward_disconnect() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        tx.send(1).expect("receiver alive");
        tx2.send(2).expect("receiver alive");
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }
}
