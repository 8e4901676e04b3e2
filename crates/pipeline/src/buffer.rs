//! Fixed-capacity FIFOs: the per-pipeline decoupling buffers and the
//! per-thread reorder buffers.
//!
//! "In order to decouple the fetch engine from the characteristics of each
//! specific pipeline it feeds, some small buffers are added before each
//! pipeline … the fetch engine inserts in-order the fetched instructions at
//! its own rate while each pipeline extracts in-order instructions
//! according to its width." (§2) A squash must also be able to delete a
//! thread's instructions that are still sitting in the buffer, hence
//! `retain`.
//!
//! The paper replicates a 256-entry ROB per thread (Table 1, §3), a
//! `RingBuf<InstId>`: commit pops the head in order, and squash walks
//! back from the tail with `back`/`pop_back`.

use std::collections::VecDeque;

/// Fixed-capacity FIFO. Backed by a pre-sized `VecDeque`; never grows past
/// its capacity, so steady-state operation is allocation-free.
pub struct RingBuf<T> {
    q: VecDeque<T>,
    capacity: usize,
}

impl<T> RingBuf<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RingBuf { q: VecDeque::with_capacity(capacity), capacity }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    #[inline]
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.capacity
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append; `false` when full (fetch back-pressure).
    pub fn push_back(&mut self, v: T) -> bool {
        if self.is_full() {
            return false;
        }
        self.q.push_back(v);
        true
    }

    /// In-order extraction by the pipeline's decode stage.
    #[inline]
    pub fn pop_front(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.q.front()
    }

    /// Youngest entry (the ROB's squash candidate).
    #[inline]
    pub fn back(&self) -> Option<&T> {
        self.q.back()
    }

    /// Remove the youngest entry (walk-back squash).
    #[inline]
    pub fn pop_back(&mut self) -> Option<T> {
        self.q.pop_back()
    }

    /// Squash support: drop entries failing the predicate, preserving order.
    pub fn retain(&mut self, f: impl FnMut(&T) -> bool) {
        self.q.retain(f);
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_with_capacity() {
        let mut b = RingBuf::new(2);
        assert!(b.push_back(1));
        assert!(b.push_back(2));
        assert!(!b.push_back(3), "full buffer applies back-pressure");
        assert_eq!(b.pop_front(), Some(1));
        assert!(b.push_back(3));
        assert_eq!(b.pop_front(), Some(2));
        assert_eq!(b.pop_front(), Some(3));
        assert_eq!(b.pop_front(), None);
    }

    #[test]
    fn retain_preserves_order() {
        let mut b = RingBuf::new(8);
        for i in 0..6 {
            b.push_back(i);
        }
        b.retain(|&v| v != 2 && v != 4);
        let left: Vec<i32> = std::iter::from_fn(|| b.pop_front()).collect();
        assert_eq!(left, [0, 1, 3, 5]);
    }

    #[test]
    fn free_slots_accounting() {
        let mut b = RingBuf::new(4);
        assert!(b.push_back(1) && b.push_back(2));
        assert_eq!((b.len(), b.capacity()), (2, 4));
        b.pop_front();
        // Three slots are free again: exactly three more pushes land.
        assert!((0..3).all(|i| b.push_back(i)));
        assert!(b.is_full() && !b.push_back(9));
    }

    #[test]
    fn fifo_order() {
        let mut r = RingBuf::new(4);
        for i in 0..4 {
            assert!(r.push_back(i));
        }
        assert!(!r.push_back(99), "full ring rejects");
        assert_eq!(r.pop_front(), Some(0));
        assert_eq!(r.pop_front(), Some(1));
        assert!(r.push_back(4));
        let order: Vec<u32> = r.iter().copied().collect();
        assert_eq!(order, [2, 3, 4]);
    }

    #[test]
    fn tail_squash() {
        let mut r = RingBuf::new(8);
        for i in 0..5 {
            r.push_back(i);
        }
        assert_eq!(r.back(), Some(&4));
        assert_eq!(r.pop_back(), Some(4));
        assert_eq!(r.pop_back(), Some(3));
        assert_eq!(r.len(), 3);
        assert_eq!(r.front(), Some(&0));
        // Push after squash reuses the space.
        assert!(r.push_back(10));
        let order: Vec<u32> = r.iter().copied().collect();
        assert_eq!(order, [0, 1, 2, 10]);
    }

    #[test]
    fn wraparound_stress() {
        let mut r = RingBuf::new(3);
        let mut next = 0u32;
        let mut expect_head = 0u32;
        #[allow(clippy::explicit_counter_loop)] // head lags tail; not a plain index
        for _ in 0..100 {
            while r.push_back(next) {
                next += 1;
            }
            assert!(r.is_full());
            assert_eq!(r.pop_front(), Some(expect_head));
            expect_head += 1;
        }
    }

    #[test]
    fn empty_behaviour() {
        let mut r = RingBuf::<u32>::new(2);
        assert!(r.is_empty());
        assert_eq!((r.front(), r.back()), (None, None));
        assert_eq!(r.pop_front(), None);
        assert_eq!(r.pop_back(), None);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = RingBuf::<u32>::new(0);
    }
}
