//! Bounded ingress queue with cheapest-first eviction.
//!
//! A plain, single-threaded data structure — determinism lives here, so
//! no locks (the nondeterministic edge owns those; see [`crate::edge`]).
//! The queue is FIFO for admitted work. When full, an offer either
//! evicts the oldest *cheaper* queued report (a [`ShedCost::Replaceable`]
//! one yielding to a [`ShedCost::Fresh`] one) or is rejected, which the
//! ingest layer translates into backpressure toward the producer.
//!
//! A `capacity` of zero is legal and means "admit nothing": every offer
//! is rejected. Capacity one degenerates to a single-slot mailbox. Both
//! are exercised by the overload tests.

use std::collections::VecDeque;

use enki_core::validation::RawReport;
use enki_telemetry::trace::TraceContext;
use serde::{Decode, Deserialize, Encode, Serialize};
// (Serialize/Deserialize are for QueuedReport and Offer only; the queue
// itself checkpoints through snapshot()/restore().)

use crate::shed::ShedCost;
use crate::Tick;

/// One report waiting for admission, stamped with everything the shed
/// policy needs to rank it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct QueuedReport {
    /// Day the report belongs to.
    pub day: u64,
    /// Tick by which the report must clear admission.
    pub deadline: Tick,
    /// Tick the report entered the queue (for admission-latency
    /// accounting).
    pub enqueued_at: Tick,
    /// What shedding this report would cost.
    pub cost: ShedCost,
    /// The raw report itself.
    pub report: RawReport,
    /// Causal context stamped at enqueue (the `enqueue` stage of the
    /// report's journey), carried through checkpoints and the journal.
    pub trace: Option<TraceContext>,
}

/// Outcome of offering one report to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Offer {
    /// The report was enqueued; capacity remained.
    Enqueued,
    /// The report was enqueued by evicting the returned cheaper report
    /// (cheapest-first shedding under overload).
    Evicted(QueuedReport),
    /// The queue is full and nothing cheaper could yield; the report
    /// was not enqueued and the producer should back off.
    Rejected,
}

/// A bounded FIFO of reports awaiting admission.
///
/// Not serialized directly: checkpoints go through
/// [`snapshot`](IngressQueue::snapshot) /
/// [`restore`](IngressQueue::restore), which use a plain `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub struct IngressQueue {
    capacity: usize,
    items: VecDeque<QueuedReport>,
}

impl IngressQueue {
    /// An empty queue holding at most `capacity` reports.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            items: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reports currently queued.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offers one report. When the queue is full, a `Fresh` report may
    /// evict the oldest `Replaceable` one; otherwise the offer is
    /// rejected.
    pub fn offer(&mut self, item: QueuedReport) -> Offer {
        if self.items.len() < self.capacity {
            self.items.push_back(item);
            return Offer::Enqueued;
        }
        if item.cost == ShedCost::Fresh {
            let victim_at = self
                .items
                .iter()
                .position(|q| q.cost == ShedCost::Replaceable);
            if let Some(at) = victim_at {
                if let Some(victim) = self.items.remove(at) {
                    self.items.push_back(item);
                    return Offer::Evicted(victim);
                }
            }
        }
        Offer::Rejected
    }

    /// Pops the oldest queued report.
    pub fn pop(&mut self) -> Option<QueuedReport> {
        self.items.pop_front()
    }

    /// The queued reports, oldest first (for checkpointing).
    #[must_use]
    pub fn snapshot(&self) -> Vec<QueuedReport> {
        self.items.iter().copied().collect()
    }

    /// Rebuilds a queue from a checkpoint snapshot. Items beyond the
    /// capacity are dropped oldest-last (the snapshot of a well-formed
    /// queue never exceeds it).
    #[must_use]
    pub fn restore(capacity: usize, items: Vec<QueuedReport>) -> Self {
        let mut queue = Self::new(capacity);
        for item in items.into_iter().take(capacity) {
            queue.items.push_back(item);
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enki_core::household::HouseholdId;
    use enki_core::validation::RawPreference;

    fn item(h: u32, cost: ShedCost) -> QueuedReport {
        QueuedReport {
            day: 0,
            deadline: 30,
            enqueued_at: 0,
            cost,
            report: RawReport::new(
                HouseholdId::new(h),
                RawPreference::new(18.0, 22.0, 2.0),
            ),
            trace: None,
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = IngressQueue::new(3);
        for h in 0..3 {
            assert_eq!(q.offer(item(h, ShedCost::Fresh)), Offer::Enqueued);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|i| i.report.household.index())
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut q = IngressQueue::new(0);
        assert_eq!(q.offer(item(0, ShedCost::Fresh)), Offer::Rejected);
        assert_eq!(q.offer(item(1, ShedCost::Replaceable)), Offer::Rejected);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_one_is_a_mailbox() {
        let mut q = IngressQueue::new(1);
        assert_eq!(q.offer(item(0, ShedCost::Fresh)), Offer::Enqueued);
        assert_eq!(q.offer(item(1, ShedCost::Fresh)), Offer::Rejected);
        assert_eq!(q.pop().map(|i| i.report.household.index()), Some(0));
        assert_eq!(q.offer(item(1, ShedCost::Fresh)), Offer::Enqueued);
    }

    #[test]
    fn fresh_evicts_the_oldest_replaceable() {
        let mut q = IngressQueue::new(2);
        q.offer(item(0, ShedCost::Replaceable));
        q.offer(item(1, ShedCost::Replaceable));
        match q.offer(item(2, ShedCost::Fresh)) {
            Offer::Evicted(victim) => {
                assert_eq!(victim.report.household.index(), 0);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|i| i.report.household.index())
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn replaceable_never_evicts_anything() {
        let mut q = IngressQueue::new(1);
        q.offer(item(0, ShedCost::Replaceable));
        assert_eq!(q.offer(item(1, ShedCost::Replaceable)), Offer::Rejected);
        assert!(q.offer(item(2, ShedCost::Fresh)).is_eviction());
    }

    #[test]
    fn fresh_never_evicts_fresh() {
        let mut q = IngressQueue::new(1);
        q.offer(item(0, ShedCost::Fresh));
        assert_eq!(q.offer(item(1, ShedCost::Fresh)), Offer::Rejected);
    }

    #[test]
    fn snapshot_restore_roundtrips() {
        let mut q = IngressQueue::new(4);
        q.offer(item(0, ShedCost::Fresh));
        q.offer(item(1, ShedCost::Replaceable));
        let restored = IngressQueue::restore(4, q.snapshot());
        assert_eq!(restored, q);
    }

    impl Offer {
        fn is_eviction(&self) -> bool {
            matches!(self, Offer::Evicted(_))
        }
    }
}
