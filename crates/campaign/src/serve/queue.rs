//! Bounded MPMC job queue feeding the daemon's executor pool.
//!
//! Deliberately boring: a `Mutex<VecDeque>` + `Condvar`. Submissions are
//! rejected (HTTP 503) when the queue is full — backpressure at the API
//! boundary instead of unbounded memory growth — and `close()` wakes
//! every blocked executor so graceful shutdown never hangs on a sleeping
//! worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a `push` was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// At capacity: the client should retry later (503).
    Full,
    /// The queue was closed by shutdown: no new work is accepted.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer/multi-consumer FIFO.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Poison-tolerant lock: a panicking queue user must not wedge every
    /// other producer/consumer — the `Inner` state (a deque and a flag)
    /// is valid after any partial operation.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue without blocking; refuses when full or closed.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Enqueue bypassing the capacity bound (still refuses when closed).
    /// Pending-accept replay must never drop a campaign the previous
    /// incarnation already acknowledged with a 202 — a replayed backlog
    /// larger than the queue bound is admitted whole, and backpressure
    /// only applies to *new* submissions on top of it.
    pub fn push_recovered(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, blocking until an item arrives or the queue is closed.
    /// `None` means closed **and** drained — the executor should exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// `Retry-After` seconds to send with a queue-full 503: roughly one
    /// second per queued campaign, clamped to `1..=30`. Crude, but it
    /// scales the hint with the actual backlog instead of a constant —
    /// deeper queue, longer advised backoff.
    pub fn retry_after_hint(&self) -> u64 {
        (self.len() as u64).clamp(1, 30)
    }

    /// Stop accepting work and wake every blocked `pop`. Items already
    /// queued are still handed out (drain-then-exit semantics); use
    /// [`Self::drain`] to also discard them.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Close and remove everything still queued, returning the orphans
    /// (the daemon marks them cancelled rather than silently dropping).
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.lock();
        inner.closed = true;
        let orphans = inner.items.drain(..).collect();
        drop(inner);
        self.ready.notify_all();
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Ok(()));
        assert_eq!(q.push(3), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn recovered_pushes_are_capacity_exempt_but_not_close_exempt() {
        let q = BoundedQueue::new(1);
        assert_eq!(q.push(1), Ok(()));
        assert_eq!(q.push(2), Err(PushError::Full));
        assert_eq!(q.push_recovered(2), Ok(()), "recovery overrides the bound");
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.push_recovered(3), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn retry_after_hint_tracks_depth_within_bounds() {
        let q = BoundedQueue::new(64);
        assert_eq!(q.retry_after_hint(), 1, "empty queue still advises a minimal backoff");
        for i in 0..40 {
            q.push(i).unwrap();
        }
        assert_eq!(q.retry_after_hint(), 30, "hint is capped at 30s");
        while q.len() > 5 {
            q.pop();
        }
        assert_eq!(q.retry_after_hint(), 5);
    }

    #[test]
    fn close_wakes_blocked_consumers_and_rejects_producers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || q.pop()));
        }
        // Give the consumers a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None, "blocked pop must observe the close");
        }
        assert_eq!(q.push(1), Err(PushError::Closed));
    }

    #[test]
    fn close_drains_queued_items_first() {
        let q = BoundedQueue::new(8);
        q.push("a").unwrap();
        q.push("b").unwrap();
        q.close();
        assert_eq!(q.pop(), Some("a"), "queued work survives a plain close");
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);

        let q = BoundedQueue::new(8);
        q.push("a").unwrap();
        assert_eq!(q.drain(), vec!["a"], "drain hands orphans back");
        assert_eq!(q.pop(), None);
    }
}
