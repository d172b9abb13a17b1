//! Offline shim for the `crossbeam` crate.
//!
//! `channel` implements crossbeam's MPMC channel API (both `unbounded` and
//! `bounded`) on a `Mutex<VecDeque>` + two condvars — enough for the
//! pipeline's backpressure needs: `try_send`, `send_timeout`, `recv_timeout`,
//! `len`/`capacity`/`is_full`, and the `TrySendError`/`SendTimeoutError`/
//! `RecvTimeoutError` surface mirroring the real crate. Wakeups are
//! counted: the mutex also guards how many receivers and senders are
//! parked on each condvar, and a side notifies only when the other has a
//! parked thread — a futex wake is a syscall even with no waiter.
//! A thread signaled but not yet running is not signaled again: a burst of
//! sends to a parked receiver costs one wake, not one per send.
//! [`channel::Receiver::recv_many`] and its mirror
//! [`channel::Sender::send_many`] are shim extensions (crossbeam spells
//! them `recv` + `try_iter().take(n)` and a `send` loop): a batch under one
//! lock and at most one wake. A bounded queue's storage never grows past
//! its bound. `thread::scope` delegates to `std::thread::scope`,
//! preserving crossbeam's `Result`-returning signature.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    /// Error from [`Sender::send`]: all receivers are gone. Carries the
    /// unsent value, like `std::sync::mpsc::SendError`.
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error from [`Sender::try_send`].
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum TrySendError<T> {
        /// The channel is bounded and at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// The value that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// True when the failure was a full queue (retryable).
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }

        /// True when all receivers are gone (terminal).
        pub fn is_disconnected(&self) -> bool {
            matches!(self, TrySendError::Disconnected(_))
        }
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("sending on a full channel"),
                TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    /// Error from [`Sender::send_timeout`].
    #[derive(PartialEq, Eq, Clone, Copy)]
    pub enum SendTimeoutError<T> {
        /// The queue stayed full for the whole timeout.
        Timeout(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    impl<T> SendTimeoutError<T> {
        /// The value that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                SendTimeoutError::Timeout(v) | SendTimeoutError::Disconnected(v) => v,
            }
        }

        /// True when the failure was a timeout (retryable).
        pub fn is_timeout(&self) -> bool {
            matches!(self, SendTimeoutError::Timeout(_))
        }
    }

    impl<T> fmt::Debug for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("Timeout(..)"),
                SendTimeoutError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for SendTimeoutError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                SendTimeoutError::Timeout(_) => f.write_str("timed out sending on a full channel"),
                SendTimeoutError::Disconnected(_) => {
                    f.write_str("sending on a disconnected channel")
                }
            }
        }
    }

    impl<T> std::error::Error for SendTimeoutError<T> {}

    /// Error from [`Receiver::recv`]: channel empty and all senders gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Error from [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The channel stayed empty for the whole timeout.
        Timeout,
        /// Empty and all senders are gone.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out receiving on an empty channel"),
                RecvTimeoutError::Disconnected => {
                    f.write_str("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers parked on `not_empty`.
        parked_receivers: usize,
        /// Senders parked on `not_full`.
        parked_senders: usize,
        /// Parked receivers already signaled that have not run yet (never
        /// more than are awake and about to re-check the queue).
        signaled_receivers: usize,
        /// Parked senders already signaled that have not run yet.
        signaled_senders: usize,
    }

    impl<T> State<T> {
        fn is_full(&self, capacity: Option<usize>) -> bool {
            capacity.is_some_and(|cap| self.queue.len() >= cap)
        }

        /// Grows the queue's storage, if needed, to take `n` more values.
        /// An unbounded queue grows as `VecDeque` does. A bounded one
        /// doubles too, but never past its capacity: plain growth of a
        /// queue that is not a power of two in size would double to nearly
        /// twice the bound.
        fn make_room(&mut self, n: usize, capacity: Option<usize>) {
            let queue = &mut self.queue;
            let Some(cap) = capacity else {
                queue.reserve(n);
                return;
            };
            let needed = queue.len() + n;
            if needed <= queue.capacity() {
                return;
            }
            let target = needed.max(queue.capacity() * 2).min(cap.max(needed));
            queue.reserve_exact(target - queue.len());
        }
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// `None` = unbounded.
        capacity: Option<usize>,
        not_empty: Condvar,
        not_full: Condvar,
        /// Condvar notifications sent, for the tests.
        #[cfg(test)]
        notifications: std::sync::atomic::AtomicUsize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().expect("channel poisoned")
        }

        #[cfg(test)]
        fn count_notification(&self) {
            self.notifications
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }

        #[cfg(not(test))]
        fn count_notification(&self) {}

        /// Parks a receiver on `not_empty`, for at most `timeout` when one
        /// is given, and returns the re-taken lock.
        fn park_receiver<'a>(
            &self,
            mut state: MutexGuard<'a, State<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, State<T>> {
            state.parked_receivers += 1;
            let mut state = match timeout {
                None => self.not_empty.wait(state).expect("channel poisoned"),
                Some(timeout) => {
                    self.not_empty
                        .wait_timeout(state, timeout)
                        .expect("channel poisoned")
                        .0
                }
            };
            state.parked_receivers -= 1;
            state.signaled_receivers = state.signaled_receivers.saturating_sub(1);
            state
        }

        /// Parks a sender on `not_full` for at most `timeout` when one is
        /// given, and returns the re-taken lock.
        fn park_sender<'a>(
            &self,
            mut state: MutexGuard<'a, State<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, State<T>> {
            state.parked_senders += 1;
            let mut state = match timeout {
                None => self.not_full.wait(state).expect("channel poisoned"),
                Some(timeout) => {
                    self.not_full
                        .wait_timeout(state, timeout)
                        .expect("channel poisoned")
                        .0
                }
            };
            state.parked_senders -= 1;
            state.signaled_senders = state.signaled_senders.saturating_sub(1);
            state
        }

        /// Pushes onto a queue the caller found not full, unlocks, and
        /// wakes a parked receiver (see [`Shared::added`]).
        fn push(&self, mut state: MutexGuard<'_, State<T>>, value: T) {
            state.make_room(1, self.capacity);
            state.queue.push_back(value);
            self.added(state, 1);
        }

        /// Unlocks after `added` values joined the queue, and wakes parked
        /// receivers not yet signaled: one for one value, all for more.
        fn added(&self, mut state: MutexGuard<'_, State<T>>, added: usize) {
            let unsignaled = state.parked_receivers - state.signaled_receivers;
            let all = added > 1 && unsignaled > 1;
            let one = added > 0 && unsignaled > 0 && !all;
            if all {
                state.signaled_receivers = state.parked_receivers;
            } else if one {
                state.signaled_receivers += 1;
            }
            drop(state);
            if all {
                self.count_notification();
                self.not_empty.notify_all();
            } else if one {
                self.count_notification();
                self.not_empty.notify_one();
            }
        }

        /// Unlocks after `freed` values left the queue, and wakes parked
        /// senders not yet signaled: one for one slot, all for more.
        fn freed(&self, mut state: MutexGuard<'_, State<T>>, freed: usize) {
            let unsignaled = state.parked_senders - state.signaled_senders;
            let all = freed > 1 && unsignaled > 1;
            let one = freed > 0 && unsignaled > 0 && !all;
            if all {
                state.signaled_senders = state.parked_senders;
            } else if one {
                state.signaled_senders += 1;
            }
            drop(state);
            if all {
                self.not_full.notify_all();
            } else if one {
                self.not_full.notify_one();
            }
        }
    }

    fn make_channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
                signaled_receivers: 0,
                signaled_senders: 0,
            }),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            #[cfg(test)]
            notifications: std::sync::atomic::AtomicUsize::new(0),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded channel: sends never block.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        make_channel(None)
    }

    /// Creates a bounded channel holding at most `cap` queued values.
    /// `send` blocks while full; `try_send` fails fast.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is 0 (the real crossbeam supports zero-capacity
    /// rendezvous channels; this shim does not need them).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        assert!(cap > 0, "zero-capacity channels are not supported");
        make_channel(Some(cap))
    }

    /// The sending half; clonable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
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
            if state.senders == 0 && state.parked_receivers > 0 {
                // Wake receivers blocked on an empty queue so they observe
                // the disconnect.
                drop(state);
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends a value, blocking while a bounded queue is full; errors
        /// when all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if !state.is_full(self.shared.capacity) {
                    break;
                }
                state = self.shared.park_sender(state, None);
            }
            self.shared.push(state, value);
            Ok(())
        }

        /// Non-blocking send: fails with [`TrySendError::Full`] instead of
        /// waiting for queue space.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let state = self.shared.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if state.is_full(self.shared.capacity) {
                return Err(TrySendError::Full(value));
            }
            self.shared.push(state, value);
            Ok(())
        }

        /// Sends, waiting at most `timeout` for queue space. The clock is
        /// read only once the queue is found full.
        pub fn send_timeout(&self, value: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
            let mut deadline = None;
            let mut state = self.shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendTimeoutError::Disconnected(value));
                }
                if !state.is_full(self.shared.capacity) {
                    break;
                }
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + timeout);
                if now >= deadline {
                    return Err(SendTimeoutError::Timeout(value));
                }
                state = self.shared.park_sender(state, Some(deadline - now));
            }
            self.shared.push(state, value);
            Ok(())
        }

        /// Moves values from the front of `from` onto the queue, oldest
        /// first — as many as fit — under one lock, then wakes parked
        /// receivers once: one for one value, all for more. A full queue is waited on for at most `timeout`
        /// (`Duration::ZERO` never waits; the clock is read only once the
        /// queue is found full). Returns how many moved: 0 only when
        /// `from` is empty or the wait timed out. Errors, moving nothing,
        /// only when all receivers are gone. A shim extension, the mirror
        /// of [`Receiver::recv_many`]: crossbeam spells it a `send` loop.
        pub fn send_many(
            &self,
            from: &mut VecDeque<T>,
            timeout: Duration,
        ) -> Result<usize, SendError<()>> {
            let mut deadline = None;
            let mut state = self.shared.lock();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(()));
                }
                if from.is_empty() || !state.is_full(self.shared.capacity) {
                    break;
                }
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + timeout);
                if now >= deadline {
                    return Ok(0);
                }
                state = self.shared.park_sender(state, Some(deadline - now));
            }
            let room = self
                .shared
                .capacity
                .map_or(usize::MAX, |cap| cap - state.queue.len());
            let n = room.min(from.len());
            state.make_room(n, self.shared.capacity);
            state.queue.extend(from.drain(..n));
            self.shared.added(state, n);
            Ok(n)
        }

        /// Queued values right now.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// True when a bounded queue is at capacity (always false for
        /// unbounded channels).
        pub fn is_full(&self) -> bool {
            self.shared.lock().is_full(self.shared.capacity)
        }

        /// The bound, or `None` for unbounded channels.
        pub fn capacity(&self) -> Option<usize> {
            self.shared.capacity
        }
    }

    /// The receiving half; clonable (consumers share one queue).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.lock();
            state.receivers -= 1;
            if state.receivers == 0 && state.parked_senders > 0 {
                // Wake senders blocked on a full queue so they observe the
                // disconnect.
                drop(state);
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    self.shared.freed(state, 1);
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.park_receiver(state, None);
            }
        }

        /// Blocks until at least one value is queued, then moves up to
        /// `max` of them, oldest first, onto the back of `into` under one
        /// lock, waking parked senders once. Returns how many moved; errors
        /// only when the queue is empty and all senders are gone. A shim
        /// extension: crossbeam spells it `recv` + `try_iter().take(n)`.
        pub fn recv_many(&self, into: &mut VecDeque<T>, max: usize) -> Result<usize, RecvError> {
            let mut state = self.shared.lock();
            while state.queue.is_empty() {
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.park_receiver(state, None);
            }
            let n = max.min(state.queue.len());
            into.extend(state.queue.drain(..n));
            self.shared.freed(state, n);
            Ok(n)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.lock();
            if let Some(value) = state.queue.pop_front() {
                self.shared.freed(state, 1);
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Receives, waiting at most `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    self.shared.freed(state, 1);
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self.shared.park_receiver(state, Some(deadline - now));
            }
        }

        /// Queued values right now.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// True when nothing is queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The bound, or `None` for unbounded channels.
        pub fn capacity(&self) -> Option<usize> {
            self.shared.capacity
        }

        /// Senders parked on a full queue right now.
        #[cfg(test)]
        pub(crate) fn parked_senders(&self) -> usize {
            self.shared.lock().parked_senders
        }

        /// Receivers parked on an empty queue right now.
        #[cfg(test)]
        pub(crate) fn parked_receivers(&self) -> usize {
            self.shared.lock().parked_receivers
        }

        /// Notifications sent to parked receivers so far.
        #[cfg(test)]
        pub(crate) fn notifications(&self) -> usize {
            self.shared
                .notifications
                .load(std::sync::atomic::Ordering::Relaxed)
        }

        /// Values the queue's storage holds without growing.
        #[cfg(test)]
        pub(crate) fn storage_capacity(&self) -> usize {
            self.shared.lock().queue.capacity()
        }

        /// Iterates until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Blocking iterator over received values.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

pub mod thread {
    /// Runs `f` with a scope in which borrowing spawns are allowed; joins
    /// all spawned threads before returning. Unlike std, returns `Ok` to
    /// match crossbeam's signature (panics propagate as panics).
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(f))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{
        bounded, unbounded, RecvError, RecvTimeoutError, SendError, TrySendError,
    };
    use std::collections::VecDeque;
    use std::time::{Duration, Instant};

    #[test]
    fn channel_roundtrip() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1u32).unwrap();
        tx2.send(2).unwrap();
        drop((tx, tx2));
        let got: Vec<u32> = rx.iter().collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn try_send_fails_fast_on_full_queue() {
        let (tx, rx) = bounded(2);
        tx.try_send(1u32).unwrap();
        tx.try_send(2).unwrap();
        assert!(tx.is_full());
        let err = tx.try_send(3).unwrap_err();
        assert!(err.is_full());
        assert_eq!(err.into_inner(), 3);
        // Draining one slot makes room again.
        assert_eq!(rx.recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn try_send_reports_disconnect() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.try_send(7u32).unwrap_err().is_disconnected());
    }

    #[test]
    fn send_timeout_expires_while_full() {
        let (tx, _rx) = bounded(1);
        tx.send(1u32).unwrap();
        let started = Instant::now();
        let err = tx.send_timeout(2, Duration::from_millis(30)).unwrap_err();
        assert!(err.is_timeout());
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert_eq!(err.into_inner(), 2);
    }

    #[test]
    fn send_timeout_succeeds_when_consumer_drains() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let consumer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let first = rx.recv().unwrap();
            let second = rx.recv().unwrap();
            (first, second)
        });
        tx.send_timeout(2, Duration::from_secs(5)).unwrap();
        assert_eq!(consumer.join().unwrap(), (1, 2));
    }

    #[test]
    fn blocking_send_waits_for_space() {
        let (tx, rx) = bounded(1);
        tx.send(1u32).unwrap();
        let producer = std::thread::spawn(move || {
            tx.send(2).unwrap(); // blocks until the consumer drains
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        producer.join().unwrap();
    }

    #[test]
    fn recv_timeout_expires_and_recovers() {
        let (tx, rx) = bounded::<u32>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap(), 9);
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
    }

    /// Shedding the oldest element (receiver-side `try_recv` on a full
    /// queue, then `try_send`) preserves FIFO order of the survivors.
    #[test]
    fn fifo_order_survives_drop_oldest_shedding() {
        let (tx, rx) = bounded(3);
        let mut shed = Vec::new();
        for i in 0..10u32 {
            match tx.try_send(i) {
                Ok(()) => {}
                Err(TrySendError::Full(v)) => {
                    shed.push(rx.try_recv().unwrap());
                    tx.try_send(v).unwrap();
                }
                Err(TrySendError::Disconnected(_)) => unreachable!(),
            }
        }
        drop(tx);
        let kept: Vec<u32> = rx.iter().collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(shed, vec![0, 1, 2, 3, 4, 5, 6]);
        // Interleaved, order is still globally FIFO.
        let mut all = shed;
        all.extend(&kept);
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    /// `recv_many` moves at most `max` values per call in FIFO order, and
    /// errors only once the queue is empty and every sender is gone. The
    /// producer outruns a bounded(2) queue, so both sides park and wake
    /// each other throughout: a lost wakeup hangs this test.
    #[test]
    fn recv_many_is_fifo_bounded_and_errs_only_when_drained() {
        let (tx, rx) = bounded(2);
        let producer = std::thread::spawn(move || {
            for i in 0..2_000u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = VecDeque::new();
        loop {
            let before = got.len();
            match rx.recv_many(&mut got, 3) {
                Ok(n) => {
                    assert!((1..=3).contains(&n), "moved {n}");
                    assert_eq!(got.len(), before + n);
                }
                Err(RecvError) => break,
            }
        }
        producer.join().unwrap();
        assert!(got.into_iter().eq(0..2_000));
    }

    /// On an empty queue `recv_many` waits for a value instead of
    /// returning an empty batch.
    #[test]
    fn recv_many_blocks_until_a_value_arrives() {
        let (tx, rx) = unbounded::<u32>();
        let consumer = std::thread::spawn(move || {
            let mut got = VecDeque::new();
            let n = rx.recv_many(&mut got, 8).unwrap();
            (n, got)
        });
        tx.send(5).unwrap();
        let (n, got) = consumer.join().unwrap();
        assert_eq!((n, Vec::from(got)), (1, vec![5]));
    }

    #[test]
    fn parked_sender_completes_after_one_recv_many() {
        let (tx, rx) = bounded(2);
        tx.send(1u32).unwrap();
        tx.send(2).unwrap();
        let producer = std::thread::spawn(move || tx.send(3).unwrap());
        while rx.parked_senders() == 0 {
            std::thread::yield_now();
        }
        let mut got = VecDeque::new();
        assert_eq!(rx.recv_many(&mut got, 8).unwrap(), 2);
        producer.join().unwrap();
        assert_eq!(rx.recv().unwrap(), 3);
        assert_eq!(Vec::from(got), vec![1, 2]);
    }

    /// `send_many` moves what fits in FIFO order from odd-sized batches
    /// while a consumer drains a bounded(2) queue: both sides park and wake
    /// each other throughout, so a lost wakeup hangs this test.
    #[test]
    fn send_many_is_fifo_across_partial_moves() {
        let (tx, rx) = bounded(2);
        let producer = std::thread::spawn(move || {
            let mut next = 0u32;
            let mut pending = VecDeque::new();
            for size in (1..).step_by(2) {
                if next == 2_000 {
                    break;
                }
                pending.extend(next..(next + size).min(2_000));
                next = (next + size).min(2_000);
                while !pending.is_empty() {
                    let before = pending.len();
                    let moved = tx.send_many(&mut pending, Duration::from_secs(5)).unwrap();
                    assert!((1..=2).contains(&moved), "moved {moved}");
                    assert_eq!(pending.len(), before - moved);
                }
            }
        });
        let got: Vec<u32> = rx.iter().collect();
        producer.join().unwrap();
        assert!(got.into_iter().eq(0..2_000));
    }

    #[test]
    fn send_many_moves_only_what_fits_into_a_nearly_full_queue() {
        let (tx, rx) = bounded(4);
        for i in 0..3u32 {
            tx.send(i).unwrap();
        }
        let mut batch: VecDeque<u32> = (3..6).collect();
        assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Ok(1));
        assert_eq!(Vec::from(batch.clone()), vec![4, 5]);
        // Full: a zero timeout moves nothing and does not wait.
        assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Ok(0));
        let started = Instant::now();
        assert_eq!(tx.send_many(&mut batch, Duration::from_millis(30)), Ok(0));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert_eq!(rx.recv().unwrap(), 0);
        assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Ok(1));
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(Vec::from(batch), vec![5]);
    }

    #[test]
    fn send_many_wakes_a_parked_receiver() {
        let (tx, rx) = bounded(8);
        let probe = rx.clone();
        let consumer = std::thread::spawn(move || {
            let mut got = VecDeque::new();
            rx.recv_many(&mut got, 8).unwrap();
            got
        });
        while probe.parked_receivers() == 0 {
            std::thread::yield_now();
        }
        let mut batch: VecDeque<u32> = (0..3).collect();
        assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Ok(3));
        let got = consumer.join().unwrap();
        assert!(!got.is_empty() && got.iter().copied().eq(0..got.len() as u32));
    }

    /// Sends that land while a signaled receiver has not run yet do not
    /// signal it again.
    #[test]
    fn a_burst_signals_a_parked_receiver_once() {
        let (tx, rx) = bounded(64);
        let probe = rx.clone();
        let consumer = std::thread::spawn(move || rx.recv().unwrap());
        while probe.parked_receivers() == 0 {
            std::thread::yield_now();
        }
        for i in 0..32u32 {
            tx.try_send(i).unwrap();
        }
        assert_eq!(consumer.join().unwrap(), 0);
        assert_eq!(probe.notifications(), 1);
    }

    /// Two parked receivers are both woken — by a two-value batch, and by
    /// two single sends, the second signaling the one the first did not.
    #[test]
    fn every_parked_receiver_gets_woken_for_values_it_can_take() {
        for batched in [true, false] {
            let (tx, rx) = bounded::<u32>(8);
            let probe = rx.clone();
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || rx.recv().unwrap())
                })
                .collect();
            while probe.parked_receivers() < 2 {
                std::thread::yield_now();
            }
            if batched {
                let mut batch: VecDeque<u32> = (0..2).collect();
                assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Ok(2));
            } else {
                tx.try_send(0).unwrap();
                tx.try_send(1).unwrap();
            }
            let mut got: Vec<u32> = consumers.into_iter().map(|c| c.join().unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, vec![0, 1], "batched: {batched}");
        }
    }

    #[test]
    fn send_many_errs_only_once_disconnected() {
        let (tx, rx) = bounded(1);
        let mut batch: VecDeque<u32> = (0..3).collect();
        assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Ok(1));
        assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Ok(0));
        assert_eq!(tx.send_many(&mut VecDeque::new(), Duration::ZERO), Ok(0));
        drop(rx);
        assert_eq!(tx.send_many(&mut batch, Duration::ZERO), Err(SendError(())));
        assert_eq!(Vec::from(batch), vec![1, 2], "nothing moved on error");
    }

    /// Bulk moves grow the queue's storage no further than its bound, yet
    /// still by doubling: odd-sized batches into bounded(1,000) would
    /// otherwise leave storage for nearly twice the bound.
    #[test]
    fn send_many_storage_never_exceeds_the_bound() {
        let (tx, rx) = bounded(1_000);
        let mut next = 0u32;
        for size in (3..).step_by(4) {
            let mut batch: VecDeque<u32> = (next..next + size).collect();
            next += size;
            tx.send_many(&mut batch, Duration::ZERO).unwrap();
            if tx.is_full() {
                break;
            }
        }
        assert_eq!(rx.len(), 1_000);
        assert!(
            rx.storage_capacity() <= 1_000,
            "storage for {} values",
            rx.storage_capacity()
        );
        // Single sends into a non-power-of-two bound are capped too.
        let (tx, rx) = bounded(100);
        for i in 0..100u32 {
            tx.try_send(i).unwrap();
        }
        assert!(rx.storage_capacity() <= 100);
    }

    #[test]
    fn send_timeout_zero_sends_with_room_and_times_out_when_full() {
        let (tx, rx) = bounded(1);
        tx.send_timeout(1u32, Duration::ZERO).unwrap();
        let err = tx.send_timeout(2, Duration::ZERO).unwrap_err();
        assert!(err.is_timeout());
        assert_eq!(err.into_inner(), 2);
        assert_eq!(rx.try_recv().unwrap(), 1);
    }

    #[test]
    fn len_tracks_queue_depth() {
        let (tx, rx) = bounded(4);
        assert!(tx.is_empty() && rx.is_empty());
        for i in 0..4u32 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        assert_eq!(rx.len(), 4);
        assert_eq!(rx.capacity(), Some(4));
        rx.recv().unwrap();
        assert_eq!(tx.len(), 3);
    }

    #[test]
    fn scoped_threads_borrow() {
        let data = [1u64, 2, 3, 4];
        let sum = super::thread::scope(|s| {
            let (a, b) = data.split_at(2);
            let h1 = s.spawn(|| a.iter().sum::<u64>());
            let h2 = s.spawn(|| b.iter().sum::<u64>());
            h1.join().unwrap() + h2.join().unwrap()
        })
        .unwrap();
        assert_eq!(sum, 10);
    }
}
