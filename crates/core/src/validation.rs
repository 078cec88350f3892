//! Admission control for household reports.
//!
//! The paper assumes every report reaching the center is a well-formed
//! preference `χ̂ = (α̂, β̂, v)`. A production center cannot: reports
//! arrive from millions of ECC units over a network, and any of them may
//! be buggy, stale, or adversarial. This module is the center's first
//! line of defense — a pure, total function from *raw* wire-level
//! reports to a structured [`AdmissionReport`] that classifies every
//! report as **accepted** (verbatim), **clamped** (repaired to the
//! nearest valid preference, with the repair recorded), or
//! **quarantined** (unrepairable; the household falls back to the
//! center's standing model of its demand, or is excluded from the day).
//!
//! A report is never *silently* altered: the verdict for each input
//! records exactly what happened, so a settled day can always answer
//! "why was this household billed for that window".
//!
//! Classification rules:
//!
//! | input defect | verdict |
//! |---|---|
//! | NaN / ±∞ in any field | quarantined ([`QuarantineReason::NonFinite`]) |
//! | inverted window (`end < begin`) | quarantined ([`QuarantineReason::InvertedWindow`]) |
//! | window entirely outside the day | quarantined ([`QuarantineReason::EmptyWindow`]) |
//! | zero or negative duration | quarantined ([`QuarantineReason::NonPositiveDuration`]) |
//! | second report for the same household | quarantined ([`QuarantineReason::DuplicateHousehold`]) |
//! | window partially outside `[0, 24)` | clamped ([`ClampReason::OutOfHorizon`]) |
//! | fractional hours | clamped inward ([`ClampReason::FractionalHours`]) |
//! | duration exceeding the window | clamped to the window length ([`ClampReason::DurationExceedsWindow`]) |
//!
//! ```
//! use enki_core::prelude::*;
//! use enki_core::validation::{admit, RawPreference, RawReport};
//!
//! let raw = vec![
//!     RawReport::new(HouseholdId::new(0), RawPreference::new(18.0, 22.0, 2.0)),
//!     RawReport::new(HouseholdId::new(1), RawPreference::new(f64::NAN, 22.0, 2.0)),
//!     RawReport::new(HouseholdId::new(2), RawPreference::new(-3.0, 20.5, 2.0)),
//! ];
//! let admission = admit(&raw);
//! assert_eq!(admission.accepted().count(), 1);
//! assert_eq!(admission.quarantined().count(), 1);
//! assert_eq!(admission.clamped().count(), 1);
//! let reports = admission.admitted();
//! assert_eq!(reports.len(), 2); // the NaN report never reaches the mechanism
//! ```

use std::fmt;

use serde::{Decode, Deserialize, Encode, Serialize};

use crate::household::{HouseholdId, Preference, Report};
use crate::time::DAY_END;

/// An unvalidated preference as it arrives off the wire: three raw
/// numbers claiming to be `(α̂, β̂, v)`. Nothing is checked at
/// construction — checking is the admission layer's job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct RawPreference {
    /// Claimed window begin hour (may be anything a float can hold).
    pub begin: f64,
    /// Claimed (exclusive) window end hour.
    pub end: f64,
    /// Claimed consumption duration in hours.
    pub duration: f64,
}

impl RawPreference {
    /// Wraps three raw numbers. No validation happens here.
    #[must_use]
    pub fn new(begin: f64, end: f64, duration: f64) -> Self {
        Self {
            begin,
            end,
            duration,
        }
    }
}

impl From<Preference> for RawPreference {
    /// A validated preference is trivially a raw one.
    fn from(p: Preference) -> Self {
        Self {
            begin: f64::from(p.begin()),
            end: f64::from(p.end()),
            duration: f64::from(p.duration()),
        }
    }
}

impl fmt::Display for RawPreference {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.begin, self.end, self.duration)
    }
}

/// An unvalidated report: a household id plus a raw preference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Encode, Decode)]
pub struct RawReport {
    /// Reporting household.
    pub household: HouseholdId,
    /// The raw claimed preference.
    pub preference: RawPreference,
}

impl RawReport {
    /// Creates a raw report.
    #[must_use]
    pub fn new(household: HouseholdId, preference: RawPreference) -> Self {
        Self {
            household,
            preference,
        }
    }
}

impl From<Report> for RawReport {
    fn from(r: Report) -> Self {
        Self {
            household: r.household,
            preference: r.preference.into(),
        }
    }
}

/// Why a report was repaired rather than accepted verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClampReason {
    /// The window extended past the day horizon and was trimmed to
    /// `[0, 24)`.
    OutOfHorizon,
    /// Begin, end, or duration was fractional and was snapped inward to
    /// the hour grid (begin up, end down, duration up).
    FractionalHours,
    /// The duration exceeded the (clamped) window and was reduced to the
    /// window length.
    DurationExceedsWindow,
}

impl fmt::Display for ClampReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfHorizon => write!(f, "window trimmed to the day horizon"),
            Self::FractionalHours => write!(f, "fractional hours snapped to the grid"),
            Self::DurationExceedsWindow => {
                write!(f, "duration reduced to the window length")
            }
        }
    }
}

/// Why a report was quarantined: no valid preference can be recovered
/// from it without guessing the household's intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineReason {
    /// A field was NaN or infinite.
    NonFinite,
    /// The window was inverted (`end < begin`); swapping the endpoints
    /// would invent an intent the household never expressed.
    InvertedWindow,
    /// No schedulable hour remains once the window is clamped to the day
    /// (empty as given, or entirely outside `[0, 24)`).
    EmptyWindow,
    /// The duration was zero or negative.
    NonPositiveDuration,
    /// An earlier report in the same batch already claimed this
    /// household; later claims are never trusted over the first.
    DuplicateHousehold,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonFinite => write!(f, "non-finite field"),
            Self::InvertedWindow => write!(f, "inverted window"),
            Self::EmptyWindow => write!(f, "no schedulable hour inside the day"),
            Self::NonPositiveDuration => write!(f, "non-positive duration"),
            Self::DuplicateHousehold => write!(f, "duplicate household in the batch"),
        }
    }
}

/// The admission decision for one raw report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Verdict {
    /// The raw report was already a valid preference and was admitted
    /// verbatim.
    Accepted,
    /// The raw report was repaired into the given valid preference; every
    /// repair applied is listed.
    Clamped {
        /// The repairs applied, in application order.
        reasons: Vec<ClampReason>,
    },
    /// The raw report was rejected outright.
    Quarantined {
        /// Why no valid preference could be recovered.
        reason: QuarantineReason,
    },
}

/// One raw report's journey through admission: the input, the verdict,
/// and the admitted preference (absent when quarantined).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionEntry {
    /// The household that sent the raw report.
    pub household: HouseholdId,
    /// The raw report as received.
    pub raw: RawPreference,
    /// What admission decided.
    pub verdict: Verdict,
    /// The preference that enters the mechanism, when one was admitted.
    pub admitted: Option<Preference>,
    /// Whether this raw preference is bit-identical to the one the same
    /// household submitted on an earlier day (see
    /// [`admit_with_history`]). A replay is *flagged, not rejected*:
    /// honest households with stable routines legitimately resend the
    /// same preference every day, so the flag feeds anomaly counters
    /// rather than the verdict.
    pub cross_day_replay: bool,
}

/// The structured outcome of admitting one day's raw report batch.
///
/// Entries are in input order, one per raw report. The admitted report
/// list is duplicate-free by construction, so it can be fed straight
/// into [`Enki::allocate`](crate::mechanism::Enki::allocate).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[must_use = "an unread admission report silently drops quarantine decisions"]
pub struct AdmissionReport {
    /// Per-input decisions, aligned with the raw batch.
    pub entries: Vec<AdmissionEntry>,
}

impl AdmissionReport {
    /// The admitted (accepted or clamped) reports, in input order,
    /// duplicate-free.
    #[must_use]
    pub fn admitted(&self) -> Vec<Report> {
        self.entries
            .iter()
            .filter_map(|e| e.admitted.map(|p| Report::new(e.household, p)))
            .collect()
    }

    /// The admitted reports with quarantined households replaced by a
    /// fallback preference (e.g. the center's standing ECC-profile model
    /// of that household). Households whose fallback is `None` stay
    /// excluded. Duplicate entries never produce a fallback — only the
    /// *first* report per household can.
    pub fn admitted_with_fallback<F>(&self, mut fallback: F) -> Vec<Report>
    where
        F: FnMut(HouseholdId) -> Option<Preference>,
    {
        self.entries
            .iter()
            .filter_map(|e| match (&e.verdict, e.admitted) {
                (_, Some(p)) => Some(Report::new(e.household, p)),
                (
                    Verdict::Quarantined {
                        reason: QuarantineReason::DuplicateHousehold,
                    },
                    None,
                ) => None,
                (Verdict::Quarantined { .. }, None) => {
                    fallback(e.household).map(|p| Report::new(e.household, p))
                }
                _ => None,
            })
            .collect()
    }

    /// Entries accepted verbatim.
    pub fn accepted(&self) -> impl Iterator<Item = &AdmissionEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.verdict, Verdict::Accepted))
    }

    /// Entries admitted after repair.
    pub fn clamped(&self) -> impl Iterator<Item = &AdmissionEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.verdict, Verdict::Clamped { .. }))
    }

    /// Entries rejected outright.
    pub fn quarantined(&self) -> impl Iterator<Item = &AdmissionEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.verdict, Verdict::Quarantined { .. }))
    }

    /// Whether every report in the batch was accepted verbatim.
    #[must_use]
    pub fn is_fully_accepted(&self) -> bool {
        self.entries
            .iter()
            .all(|e| matches!(e.verdict, Verdict::Accepted))
    }

    /// Entries whose raw preference exactly replays an earlier day's
    /// submission (only ever nonzero for reports admitted through
    /// [`admit_with_history`]).
    #[must_use]
    pub fn cross_day_replays(&self) -> usize {
        self.entries.iter().filter(|e| e.cross_day_replay).count()
    }
}

/// Whether two raw preferences are bit-for-bit identical.
///
/// Comparison is over the IEEE-754 bit patterns, not float equality:
/// it is total (NaN payloads compare meaningfully, `-0.0 != 0.0`) and
/// detects the byte-level replays a stuck or replaying ECC unit
/// produces, which is exactly what the wire delivers.
#[must_use]
fn same_bits(a: RawPreference, b: RawPreference) -> bool {
    a.begin.to_bits() == b.begin.to_bits()
        && a.end.to_bits() == b.end.to_bits()
        && a.duration.to_bits() == b.duration.to_bits()
}

/// Classifies one raw preference in isolation (no duplicate handling).
///
/// Returns the verdict and, unless quarantined, the admitted preference.
#[must_use]
pub fn admit_preference(raw: RawPreference) -> (Verdict, Option<Preference>) {
    let RawPreference {
        begin,
        end,
        duration,
    } = raw;
    if !begin.is_finite() || !end.is_finite() || !duration.is_finite() {
        return quarantine(QuarantineReason::NonFinite);
    }
    if end < begin {
        return quarantine(QuarantineReason::InvertedWindow);
    }
    if duration <= 0.0 {
        return quarantine(QuarantineReason::NonPositiveDuration);
    }

    let mut reasons = Vec::new();
    let horizon = f64::from(DAY_END);

    // Trim the window to the day horizon.
    let (mut b, mut e) = (begin, end);
    if b < 0.0 || e > horizon {
        b = b.max(0.0);
        e = e.min(horizon);
        reasons.push(ClampReason::OutOfHorizon);
    }
    if b >= e {
        // Entirely outside the day (or empty as given).
        return quarantine(QuarantineReason::EmptyWindow);
    }

    // Snap to the hour grid, shrinking inward: the admitted window never
    // claims an hour the household did not ask for in full.
    let (gb, ge) = (b.ceil(), e.floor());
    let mut v = duration;
    if gb != b || ge != e || v.ceil() != v {
        reasons.push(ClampReason::FractionalHours);
        v = v.ceil();
    }
    if gb >= ge {
        return quarantine(QuarantineReason::EmptyWindow);
    }

    // Fit the duration inside the admitted window.
    let window_len = ge - gb;
    if v > window_len {
        v = window_len;
        reasons.push(ClampReason::DurationExceedsWindow);
    }

    // All three values are now integers in [0, 24] with gb < ge and
    // 1 <= v <= ge - gb, so the cast and construction cannot fail.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "gb, ge and v are integers in [0, 24] here, as checked above"
    )]
    let pref = match Preference::new(gb as u8, ge as u8, v as u8) {
        Ok(p) => p,
        // Defensive: if the arithmetic above ever leaves an
        // unrepresentable triple, quarantine rather than panic.
        Err(_) => return quarantine(QuarantineReason::EmptyWindow),
    };
    if reasons.is_empty() {
        (Verdict::Accepted, Some(pref))
    } else {
        (Verdict::Clamped { reasons }, Some(pref))
    }
}

fn quarantine(reason: QuarantineReason) -> (Verdict, Option<Preference>) {
    (Verdict::Quarantined { reason }, None)
}

/// Admits a batch of raw reports: classifies each one and quarantines
/// later duplicates of a household already seen in the batch.
///
/// Total and panic-free for every possible input.
pub fn admit(raw: &[RawReport]) -> AdmissionReport {
    admit_with_history(raw, |_| None)
}

/// [`admit`], plus cross-day replay detection against each household's
/// previously submitted raw preference.
///
/// `history` maps a household to the raw preference it submitted on an
/// earlier day, if any (the center keeps this map across days). An
/// incoming raw that is bit-for-bit identical to the household's prior
/// submission has [`AdmissionEntry::cross_day_replay`] set. The verdict
/// is unaffected — a replay of a valid preference still admits — but
/// the flag lets the center count exact-replay traffic, which separates
/// "stable routine" from "stuck or replaying reporter" when it spikes.
///
/// Total and panic-free for every possible input.
pub fn admit_with_history<H>(raw: &[RawReport], mut history: H) -> AdmissionReport
where
    H: FnMut(HouseholdId) -> Option<RawPreference>,
{
    let mut seen: Vec<HouseholdId> = Vec::with_capacity(raw.len());
    let entries = raw
        .iter()
        .map(|r| {
            let (verdict, admitted) = if seen.contains(&r.household) {
                quarantine(QuarantineReason::DuplicateHousehold)
            } else {
                seen.push(r.household);
                admit_preference(r.preference)
            };
            let cross_day_replay = history(r.household)
                .is_some_and(|prior| same_bits(prior, r.preference));
            AdmissionEntry {
                household: r.household,
                raw: r.preference,
                verdict,
                admitted,
                cross_day_replay,
            }
        })
        .collect();
    AdmissionReport { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(h: u32, b: f64, e: f64, v: f64) -> RawReport {
        RawReport::new(HouseholdId::new(h), RawPreference::new(b, e, v))
    }

    #[test]
    fn valid_report_is_accepted_verbatim() {
        let a = admit(&[raw(0, 18.0, 22.0, 2.0)]);
        assert!(a.is_fully_accepted());
        assert_eq!(
            a.admitted(),
            vec![Report::new(
                HouseholdId::new(0),
                Preference::new(18, 22, 2).unwrap()
            )]
        );
    }

    #[test]
    fn non_finite_fields_are_quarantined() {
        for bad in [
            raw(0, f64::NAN, 22.0, 2.0),
            raw(0, 18.0, f64::INFINITY, 2.0),
            raw(0, 18.0, 22.0, f64::NEG_INFINITY),
            raw(0, f64::NAN, f64::NAN, f64::NAN),
        ] {
            let a = admit(&[bad]);
            assert_eq!(a.quarantined().count(), 1, "{bad:?}");
            assert!(a.admitted().is_empty());
            assert!(matches!(
                a.entries[0].verdict,
                Verdict::Quarantined {
                    reason: QuarantineReason::NonFinite
                }
            ));
        }
    }

    #[test]
    fn inverted_window_is_quarantined_not_swapped() {
        let a = admit(&[raw(0, 22.0, 18.0, 2.0)]);
        assert!(matches!(
            a.entries[0].verdict,
            Verdict::Quarantined {
                reason: QuarantineReason::InvertedWindow
            }
        ));
    }

    #[test]
    fn out_of_horizon_window_is_trimmed() {
        let a = admit(&[raw(0, -3.0, 30.0, 2.0)]);
        let e = &a.entries[0];
        assert_eq!(e.admitted, Some(Preference::new(0, 24, 2).unwrap()));
        match &e.verdict {
            Verdict::Clamped { reasons } => {
                assert_eq!(reasons, &vec![ClampReason::OutOfHorizon]);
            }
            other => panic!("expected a clamp, got {other:?}"),
        }
    }

    #[test]
    fn entirely_out_of_horizon_is_quarantined() {
        for bad in [raw(0, 25.0, 30.0, 2.0), raw(0, -9.0, -1.0, 1.0)] {
            let a = admit(&[bad]);
            assert!(
                matches!(
                    a.entries[0].verdict,
                    Verdict::Quarantined {
                        reason: QuarantineReason::EmptyWindow
                    }
                ),
                "{bad:?} → {:?}",
                a.entries[0].verdict
            );
        }
    }

    #[test]
    fn fractional_hours_snap_inward() {
        // [17.5, 22.3) shrinks to [18, 22): never claim a partial hour.
        let a = admit(&[raw(0, 17.5, 22.3, 2.0)]);
        let e = &a.entries[0];
        assert_eq!(e.admitted, Some(Preference::new(18, 22, 2).unwrap()));
        match &e.verdict {
            Verdict::Clamped { reasons } => {
                assert_eq!(reasons, &vec![ClampReason::FractionalHours]);
            }
            other => panic!("expected a clamp, got {other:?}"),
        }
    }

    #[test]
    fn fractional_duration_rounds_up() {
        let a = admit(&[raw(0, 18.0, 22.0, 1.2)]);
        assert_eq!(a.entries[0].admitted, Some(Preference::new(18, 22, 2).unwrap()));
    }

    #[test]
    fn sliver_window_quarantines_after_snapping() {
        // [18.2, 18.9) contains no full hour.
        let a = admit(&[raw(0, 18.2, 18.9, 1.0)]);
        assert!(matches!(
            a.entries[0].verdict,
            Verdict::Quarantined {
                reason: QuarantineReason::EmptyWindow
            }
        ));
    }

    #[test]
    fn duration_exceeding_window_is_clamped() {
        let a = admit(&[raw(0, 18.0, 20.0, 7.0)]);
        let e = &a.entries[0];
        assert_eq!(e.admitted, Some(Preference::new(18, 20, 2).unwrap()));
        match &e.verdict {
            Verdict::Clamped { reasons } => {
                assert_eq!(reasons, &vec![ClampReason::DurationExceedsWindow]);
            }
            other => panic!("expected a clamp, got {other:?}"),
        }
    }

    #[test]
    fn huge_duration_is_clamped_not_overflowed() {
        let a = admit(&[raw(0, 0.0, 24.0, 1e300)]);
        assert_eq!(a.entries[0].admitted, Some(Preference::new(0, 24, 24).unwrap()));
    }

    #[test]
    fn non_positive_duration_is_quarantined() {
        for v in [0.0, -1.0, -0.2] {
            let a = admit(&[raw(0, 18.0, 22.0, v)]);
            assert!(matches!(
                a.entries[0].verdict,
                Verdict::Quarantined {
                    reason: QuarantineReason::NonPositiveDuration
                }
            ));
        }
    }

    #[test]
    fn duplicate_household_quarantines_later_reports_only() {
        let a = admit(&[
            raw(3, 18.0, 22.0, 2.0),
            raw(3, 10.0, 14.0, 1.0),
            raw(4, 10.0, 14.0, 1.0),
        ]);
        assert_eq!(a.admitted().len(), 2);
        assert!(matches!(a.entries[0].verdict, Verdict::Accepted));
        assert!(matches!(
            a.entries[1].verdict,
            Verdict::Quarantined {
                reason: QuarantineReason::DuplicateHousehold
            }
        ));
        // Admitted output is duplicate-free.
        let ids: Vec<_> = a.admitted().iter().map(|r| r.household).collect();
        assert_eq!(ids, vec![HouseholdId::new(3), HouseholdId::new(4)]);
    }

    #[test]
    fn fallback_substitutes_quarantined_households() {
        let a = admit(&[raw(0, f64::NAN, 22.0, 2.0), raw(1, 18.0, 22.0, 2.0)]);
        let fallback = Preference::new(16, 20, 2).unwrap();
        let reports = a.admitted_with_fallback(|h| {
            (h == HouseholdId::new(0)).then_some(fallback)
        });
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0], Report::new(HouseholdId::new(0), fallback));
    }

    #[test]
    fn fallback_never_applies_to_duplicates() {
        let a = admit(&[raw(0, 18.0, 22.0, 2.0), raw(0, f64::NAN, 1.0, 1.0)]);
        let reports =
            a.admitted_with_fallback(|_| Some(Preference::new(0, 4, 1).unwrap()));
        // The duplicate must not resurrect household 0 a second time.
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].preference, Preference::new(18, 22, 2).unwrap());
    }

    #[test]
    fn fallback_none_keeps_household_excluded() {
        let a = admit(&[raw(0, f64::NAN, 22.0, 2.0)]);
        assert!(a.admitted_with_fallback(|_| None).is_empty());
    }

    #[test]
    fn cross_day_replay_is_flagged_but_still_admitted() {
        let yesterday = RawPreference::new(18.0, 22.0, 2.0);
        let a = admit_with_history(
            &[raw(0, 18.0, 22.0, 2.0), raw(1, 18.0, 22.0, 2.0)],
            |h| (h == HouseholdId::new(0)).then_some(yesterday),
        );
        assert!(a.entries[0].cross_day_replay);
        assert!(!a.entries[1].cross_day_replay, "no history, no replay");
        assert_eq!(a.cross_day_replays(), 1);
        // The verdict is untouched: a replayed valid raw still admits.
        assert_eq!(a.admitted().len(), 2);
    }

    #[test]
    fn replay_detection_is_bit_exact_not_approximate() {
        // A value differing in the last ulp is NOT a replay...
        let prior = RawPreference::new(18.0, 22.0, 2.0);
        let nudged = RawPreference::new(18.0, 22.0, f64::from_bits(2.0_f64.to_bits() + 1));
        let a = admit_with_history(
            &[RawReport::new(HouseholdId::new(0), nudged)],
            |_| Some(prior),
        );
        assert!(!a.entries[0].cross_day_replay);
        // ...while a bit-identical quarantined raw (same NaN payload)
        // still counts: replays of garbage are the interesting signal.
        let junk = RawPreference::new(f64::NAN, 22.0, 2.0);
        let a = admit_with_history(
            &[RawReport::new(HouseholdId::new(0), junk)],
            |_| Some(junk),
        );
        assert!(a.entries[0].cross_day_replay);
        assert_eq!(a.quarantined().count(), 1);
    }

    #[test]
    fn plain_admit_never_flags_replays() {
        let a = admit(&[raw(0, 18.0, 22.0, 2.0)]);
        assert_eq!(a.cross_day_replays(), 0);
    }

    #[test]
    fn round_trip_from_valid_preference_is_accepted() {
        for p in [
            Preference::new(0, 24, 24).unwrap(),
            Preference::new(18, 22, 2).unwrap(),
            Preference::new(23, 24, 1).unwrap(),
        ] {
            let (verdict, admitted) = admit_preference(p.into());
            assert_eq!(verdict, Verdict::Accepted);
            assert_eq!(admitted, Some(p));
        }
    }
}
