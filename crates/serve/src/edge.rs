//! The nondeterministic edge: threads and locks live here, and only here.
//!
//! Everything else in this crate is a single-threaded deterministic
//! state machine. This module is the boundary where real producers —
//! running on their own OS threads, finishing in whatever order the
//! scheduler picks — hand byte frames to the deterministic core. The
//! contract that keeps the core reproducible:
//!
//! * The edge deals only in opaque byte frames. No decoding, no policy,
//!   no clocks — those belong to [`crate::ingest`], which is fed on the
//!   consumer's thread in a deterministic order.
//! * [`EdgeMailbox::drain`] moves the accumulated frames out under one
//!   short lock; the consumer then processes them without holding it.
//! * Frame *arrival order* across producers is nondeterministic by
//!   nature. Tests that need byte-reproducibility either use a single
//!   producer or sort the drained frames before feeding the core; the
//!   core itself is order-insensitive in its invariants (shed
//!   accounting and admission never double-count regardless of
//!   interleaving).
//!
//! Within the serve crate only this file carries `#[expect]`s past the
//! workspace `clippy.toml` bans on threads and locks; `std::thread` or
//! lock use anywhere else in `enki-serve` fails clippy.

use std::sync::Arc;
use std::thread::JoinHandle;

#[expect(
    clippy::disallowed_types,
    reason = "the nondeterministic edge: producer threads hand frames to the \
              deterministic core here"
)]
use parking_lot::Mutex;

/// A shared mailbox where producer threads post encoded frames for the
/// ingest consumer to drain.
#[derive(Debug, Default)]
pub struct EdgeMailbox {
    #[expect(
        clippy::disallowed_types,
        reason = "the nondeterministic edge: producer threads hand frames to the \
                  deterministic core here"
    )]
    frames: Mutex<Vec<Vec<u8>>>,
}

impl EdgeMailbox {
    /// A fresh, empty mailbox behind an [`Arc`] for sharing with
    /// producer threads.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Posts one encoded frame. Called from producer threads.
    pub fn post(&self, frame: Vec<u8>) {
        self.frames.lock().push(frame);
    }

    /// Takes every posted frame, leaving the mailbox empty. Called from
    /// the consumer thread; the lock is held only for the swap.
    #[must_use]
    pub fn drain(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.frames.lock())
    }

    /// Frames currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.lock().len()
    }

    /// Whether no frames are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.lock().is_empty()
    }
}

/// Spawns one OS thread per producer, each posting its frames to the
/// mailbox in order. Join the handles before asserting on totals.
///
/// Per-producer frame order is preserved (each thread posts
/// sequentially); interleaving *across* producers is up to the OS
/// scheduler.
#[expect(
    clippy::disallowed_methods,
    reason = "the nondeterministic edge: producer threads hand frames to the \
              deterministic core here"
)]
pub fn spawn_producers(
    mailbox: &Arc<EdgeMailbox>,
    producers: Vec<Vec<Vec<u8>>>,
) -> Vec<JoinHandle<()>> {
    producers
        .into_iter()
        .map(|frames| {
            let mailbox = Arc::clone(mailbox);
            std::thread::spawn(move || {
                for frame in frames {
                    mailbox.post(frame);
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_empties_the_mailbox() {
        let mailbox = EdgeMailbox::new();
        mailbox.post(vec![1, 2, 3]);
        mailbox.post(vec![4]);
        assert_eq!(mailbox.len(), 2);
        let drained = mailbox.drain();
        assert_eq!(drained, vec![vec![1, 2, 3], vec![4]]);
        assert!(mailbox.is_empty());
    }

    #[test]
    fn producers_deliver_every_frame_exactly_once() {
        let mailbox = EdgeMailbox::new();
        let producers: Vec<Vec<Vec<u8>>> = (0u8..4)
            .map(|p| (0u8..25).map(|i| vec![p, i]).collect())
            .collect();
        let handles = spawn_producers(&mailbox, producers);
        for handle in handles {
            handle.join().unwrap();
        }
        let mut drained = mailbox.drain();
        drained.sort_unstable();
        let mut expected: Vec<Vec<u8>> = (0u8..4)
            .flat_map(|p| (0u8..25).map(move |i| vec![p, i]))
            .collect();
        expected.sort_unstable();
        assert_eq!(drained, expected);
    }

    #[test]
    fn single_producer_order_is_preserved() {
        let mailbox = EdgeMailbox::new();
        let frames: Vec<Vec<u8>> = (0u8..50).map(|i| vec![i]).collect();
        let handles = spawn_producers(&mailbox, vec![frames.clone()]);
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(mailbox.drain(), frames);
    }
}
