//! Deterministic causal trace contexts.
//!
//! A [`TraceContext`] is the cross-agent analogue of a span's parent
//! link: a `(trace_id, span_id, parent_id)` triple that travels with a
//! message, queue entry, or journal record so the spans it touches on
//! *different* recorders (different threads, different agents, even
//! different processes replaying a journal) can be stitched into one
//! causal tree after the fact.
//!
//! Ids are **derived, not allocated**: every id is a pure function of
//! the run seed, the day, the household, and the pipeline stage, mixed
//! through a SplitMix64 finalizer. Two consequences:
//!
//! * traces are byte-identical across runs and thread counts — the
//!   chaos suites' reproducibility assertions survive tracing;
//! * two ends of a frozen wire format can each derive the *same*
//!   context independently, so tracing crosses the serve codec boundary
//!   without changing a single wire byte.
//!
//! The canonical journey of one household report is the stage chain
//! [`REPORT_STAGES`]: `report → enqueue → admit → settle → bill`, each
//! stage's context parented on the previous one and salted by the
//! household id. The per-day solve hangs off the day root directly
//! (it is shared by every household, not owned by one).

use serde::{Decode, Deserialize, Encode, Serialize};

/// Ordered pipeline stages of one household report, edge to bill.
///
/// [`TraceContext::report_stage`] folds the day root through a prefix
/// of this list, so stage `k`'s context is parented on stage `k − 1`.
pub const REPORT_STAGES: [&str; 5] = ["report", "enqueue", "admit", "settle", "bill"];

/// Named indices into [`REPORT_STAGES`].
pub mod stage {
    /// `report` — the household ECC sends its preference.
    pub const REPORT: usize = 0;
    /// `enqueue` — the ingestion queue accepts the report.
    pub const ENQUEUE: usize = 1;
    /// `admit` — center admission classifies the report.
    pub const ADMIT: usize = 2;
    /// `settle` — settlement matches the meter reading.
    pub const SETTLE: usize = 3;
    /// `bill` — the bill goes out.
    pub const BILL: usize = 4;
}

/// SplitMix64 finalizer: a cheap, well-mixed, dependency-free hash
/// step. Deterministic by construction.
#[must_use]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a label, the stable string hash shared with run ids.
fn fnv_label(label: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A causal position inside one deterministic trace.
///
/// `parent_id == 0` marks a root: span id 0 is never produced by the
/// derivation (it is remapped), so 0 is free to mean "no parent".
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize, Encode, Decode,
)]
pub struct TraceContext {
    /// The trace this context belongs to — one per (seed, day).
    pub trace_id: u64,
    /// This context's own causal span id.
    pub span_id: u64,
    /// The causal parent's span id; 0 for a root.
    pub parent_id: u64,
}

/// Remaps the one forbidden id (0, reserved for "no parent").
fn nonzero(id: u64) -> u64 {
    if id == 0 {
        0x5_eed0_fd41
    } else {
        id
    }
}

impl TraceContext {
    /// The root context of one day's trace in one run. Pure function of
    /// `(seed, day)` — every agent derives the identical root.
    #[must_use]
    pub fn day_root(seed: u64, day: u64) -> Self {
        let trace_id = nonzero(mix(mix(seed) ^ day));
        Self {
            trace_id,
            span_id: nonzero(mix(trace_id)),
            parent_id: 0,
        }
    }

    /// A deterministic child of this context, keyed by a label.
    #[must_use]
    pub fn child(&self, label: &str) -> Self {
        self.child_salted(label, 0)
    }

    /// A deterministic child keyed by a label and a numeric salt
    /// (typically a household id), so per-entity chains stay distinct.
    #[must_use]
    pub fn child_salted(&self, label: &str, salt: u64) -> Self {
        let span_id = nonzero(mix(
            self.trace_id ^ self.span_id.rotate_left(17) ^ fnv_label(label) ^ mix(salt),
        ));
        Self {
            trace_id: self.trace_id,
            span_id,
            parent_id: self.span_id,
        }
    }

    /// The context of one report's pipeline stage: the day root folded
    /// through `REPORT_STAGES[..=stage]`, each step salted by the
    /// household. Stage `k`'s parent is stage `k − 1`; stage 0's parent
    /// is the day root. Any boundary can derive any stage from scratch.
    #[must_use]
    pub fn report_stage(seed: u64, day: u64, household: u64, stage: usize) -> Self {
        let mut ctx = Self::day_root(seed, day);
        let last = stage.min(REPORT_STAGES.len() - 1);
        for name in &REPORT_STAGES[..=last] {
            ctx = ctx.child_salted(name, household);
        }
        ctx
    }

    /// True when this context is a trace root.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.parent_id == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_roots_are_deterministic_and_distinct() {
        assert_eq!(TraceContext::day_root(7, 0), TraceContext::day_root(7, 0));
        assert_ne!(TraceContext::day_root(7, 0), TraceContext::day_root(7, 1));
        assert_ne!(TraceContext::day_root(7, 0), TraceContext::day_root(8, 0));
        assert!(TraceContext::day_root(7, 0).is_root());
    }

    #[test]
    fn children_chain_parent_links() {
        let root = TraceContext::day_root(42, 3);
        let child = root.child("solve");
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_id, root.span_id);
        assert!(!child.is_root());
        // Distinct labels and salts give distinct ids.
        assert_ne!(root.child("solve"), root.child("settle"));
        assert_ne!(root.child_salted("admit", 1), root.child_salted("admit", 2));
        // Same inputs, same child.
        assert_eq!(root.child("solve"), root.child("solve"));
    }

    #[test]
    fn report_stages_form_one_chain_per_household() {
        let seed = 2017;
        for household in [0u64, 5, 11] {
            let mut parent = TraceContext::day_root(seed, 1).span_id;
            for stage in 0..REPORT_STAGES.len() {
                let ctx = TraceContext::report_stage(seed, 1, household, stage);
                assert_eq!(ctx.parent_id, parent, "stage {stage} chains on its predecessor");
                parent = ctx.span_id;
            }
        }
        // Different households have disjoint chains under one trace id.
        let a = TraceContext::report_stage(seed, 1, 0, 2);
        let b = TraceContext::report_stage(seed, 1, 1, 2);
        assert_eq!(a.trace_id, b.trace_id);
        assert_ne!(a.span_id, b.span_id);
    }

    #[test]
    fn span_ids_are_never_zero() {
        for seed in 0..64u64 {
            for day in 0..8u64 {
                let root = TraceContext::day_root(seed, day);
                assert_ne!(root.trace_id, 0);
                assert_ne!(root.span_id, 0);
                assert_ne!(root.child("x").span_id, 0);
            }
        }
    }
}
