//! R11 fixture: the crate body is irrelevant; the manifest is the subject.

pub fn total(a: u64, b: u64) -> u64 {
    a.saturating_add(b)
}
