//! Serving days through [`ServeRuntime`] one timed tick at a time.
//!
//! The deadline ticks are found from the trace, never from fixed
//! offsets: the allocation tick is the one that originated `Allocation`
//! envelopes and the settlement tick the one that originated `Bill`
//! envelopes. A center recovered after a day boundary starts that day
//! late and re-anchors its deadlines, so fixed offsets would misfile
//! both ticks.

use enki_agents::prelude::{Message, ServeRuntime, TraceEvent, TraceKind};
use enki_telemetry::{Clock, MonotonicClock};

use crate::workload::DAY;

/// What one tick released, read from the envelopes it originated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickKind {
    /// The tick originated `Allocation` envelopes.
    pub allocation: bool,
    /// The tick originated `Bill` envelopes.
    pub bill: bool,
}

/// Classifies a tick by the envelopes it originated.
#[must_use]
pub fn classify(events: &[TraceEvent]) -> TickKind {
    let mut kind = TickKind::default();
    for event in events.iter().filter(|e| e.kind == TraceKind::Originated) {
        match event.envelope.message {
            Message::Allocation { .. } => kind.allocation = true,
            Message::Bill { .. } => kind.bill = true,
            _ => {}
        }
    }
    kind
}

/// One served tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickSample {
    /// Wall time of the tick, milliseconds.
    pub ms: f64,
    /// What it released.
    pub kind: TickKind,
    /// The center came back from a crash during this tick.
    pub recovered: bool,
}

/// Runs one tick, timing it, and classifies it from the trace events
/// it appended. `cursor` is the trace length already seen; the trace
/// grows for the whole episode, so only the new tail is scanned.
pub fn step(rt: &mut ServeRuntime, clock: &MonotonicClock, cursor: &mut usize) -> TickSample {
    let was_down = rt.is_down();
    let started = clock.now();
    rt.run_ticks(1);
    let ms = clock.now().saturating_sub(started).as_secs_f64() * 1e3;
    let trace = rt.trace();
    let kind = classify(&trace[*cursor..]);
    *cursor = trace.len();
    TickSample {
        ms,
        kind,
        recovered: was_down && !rt.is_down(),
    }
}

/// The end-to-end timings of one served day.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DaySample {
    /// Wall time of all the day's ticks, milliseconds.
    pub day_ms: f64,
    /// The allocation tick, if the day allocated.
    pub alloc_ms: Option<f64>,
    /// The settlement tick, if the day billed.
    pub settle_ms: Option<f64>,
}

impl DaySample {
    /// Folds one tick into the day.
    pub fn add(&mut self, tick: &TickSample) {
        self.day_ms += tick.ms;
        if tick.kind.allocation {
            self.alloc_ms = Some(self.alloc_ms.unwrap_or(0.0) + tick.ms);
        }
        if tick.kind.bill {
            self.settle_ms = Some(self.settle_ms.unwrap_or(0.0) + tick.ms);
        }
    }

    /// The day with every timing multiplied by `factor`.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Self {
        Self {
            day_ms: self.day_ms * factor,
            alloc_ms: self.alloc_ms.map(|ms| ms * factor),
            settle_ms: self.settle_ms.map(|ms| ms * factor),
        }
    }
}

/// Serves one protocol day (`DAY` ticks), calling `after` beside each
/// tick. The closure runs outside the tick's timing.
pub fn serve_day(
    rt: &mut ServeRuntime,
    clock: &MonotonicClock,
    cursor: &mut usize,
    mut after: impl FnMut(&ServeRuntime, &TickSample, usize),
) -> DaySample {
    let mut day = DaySample::default();
    for _ in 0..DAY {
        let start = *cursor;
        let tick = step(rt, clock, cursor);
        day.add(&tick);
        after(rt, &tick, start);
    }
    day
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;
    use enki_agents::prelude::{Envelope, NodeId};
    use enki_core::household::HouseholdId;
    use enki_core::time::Interval;

    fn event(at: u64, kind: TraceKind, message: Message) -> TraceEvent {
        TraceEvent {
            at,
            kind,
            envelope: Envelope {
                from: NodeId::Center,
                to: NodeId::Household(HouseholdId::new(0)),
                message,
                trace: None,
            },
        }
    }

    fn window() -> Interval {
        Interval::new(3, 5).expect("valid window")
    }

    #[test]
    fn only_originated_envelopes_classify_a_tick() {
        let alloc = Message::Allocation {
            day: 0,
            window: window(),
        };
        let bill = Message::Bill {
            day: 0,
            amount: 1.0,
        };
        assert_eq!(
            classify(&[event(30, TraceKind::Delivered, alloc)]),
            TickKind::default()
        );
        assert_eq!(
            classify(&[event(30, TraceKind::Originated, alloc)]),
            TickKind {
                allocation: true,
                bill: false
            }
        );
        assert_eq!(
            classify(&[
                event(70, TraceKind::Delivered, alloc),
                event(70, TraceKind::Originated, bill),
            ]),
            TickKind {
                allocation: false,
                bill: true
            }
        );
        let start = Message::DayStart {
            day: 0,
            report_deadline: 30,
            meter_deadline: 70,
        };
        assert_eq!(
            classify(&[event(0, TraceKind::Originated, start)]),
            TickKind::default()
        );
    }

    #[test]
    fn days_sum_ticks_and_keep_the_deadline_ticks() {
        let mut day = DaySample::default();
        let tick = |ms, allocation, bill| TickSample {
            ms,
            kind: TickKind { allocation, bill },
            recovered: false,
        };
        day.add(&tick(1.0, false, false));
        day.add(&tick(4.0, true, false));
        day.add(&tick(2.5, false, true));
        assert_eq!(
            day,
            DaySample {
                day_ms: 7.5,
                alloc_ms: Some(4.0),
                settle_ms: Some(2.5)
            }
        );
        assert_eq!(
            day.scaled(0.5),
            DaySample {
                day_ms: 3.75,
                alloc_ms: Some(2.0),
                settle_ms: Some(1.25)
            }
        );
    }

    /// The crash-flood episode recovers two ticks after each day
    /// boundary, so from day 1 on the deadline ticks sit two ticks later
    /// than the default plan's offsets. The classifier must follow them.
    #[test]
    fn crash_shifted_deadlines_are_found_from_the_trace() {
        let w = by_name("crash-flood-50").expect("workload exists");
        let mut rt = w.build(&w.inputs(7, 0)).expect("episode builds");
        let clock = MonotonicClock::new();
        let mut cursor = 0;
        let mut alloc_ticks = Vec::new();
        let mut bill_ticks = Vec::new();
        let mut recovered_ticks = Vec::new();
        for t in 0..3 * DAY {
            let tick = step(&mut rt, &clock, &mut cursor);
            if tick.kind.allocation {
                alloc_ticks.push(t);
            }
            if tick.kind.bill {
                bill_ticks.push(t);
            }
            if tick.recovered {
                recovered_ticks.push(t);
            }
        }
        assert_eq!(recovered_ticks, vec![102, 202]);
        assert_eq!(alloc_ticks, vec![30, 132, 232]);
        assert_eq!(bill_ticks, vec![70, 172, 272]);
    }
}
