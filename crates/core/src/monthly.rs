//! The monthly selection rule of §IV-B.
//!
//! "We select the first 1 000 consecutive measurements after midnight on the
//! 8th of each month for each SRAM chip." This module holds the protocol and
//! the one admission rule, "which month's window does this record fall in,
//! if any". Both workloads fold records through it: the assessment's
//! [`WindowAccumulator`](crate::streaming::WindowAccumulator) and the
//! key-lifetime [`KeyLifeAccumulator`](crate::keylife::KeyLifeAccumulator),
//! each applying the "first N" read cap to its own window state.

use puftestbed::{BoardId, Record, Timestamp};

/// Parameters of the paper's evaluation protocol.
///
/// # Examples
///
/// ```
/// let p = pufassess::EvaluationProtocol::default();
/// assert_eq!(p.reads_per_window, 1000);
/// assert_eq!(p.eval_day, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvaluationProtocol {
    /// Consecutive measurements per monthly window (paper: 1 000).
    pub reads_per_window: u32,
    /// Day of month whose midnight opens each window (paper: the 8th).
    pub eval_day: u8,
}

impl Default for EvaluationProtocol {
    fn default() -> Self {
        Self {
            reads_per_window: 1000,
            eval_day: 8,
        }
    }
}

/// The evaluation day clamped into month `(year, month)`.
///
/// The paper evaluates on the 8th, which every month has; a protocol asking
/// for day 29–31 would otherwise name a date that does not exist in short
/// months (no window could ever open in February), and
/// [`window_open`] would panic constructing it. Clamping to the month's last
/// day keeps every month evaluable and is a no-op for day ≤ 28.
fn effective_eval_day(protocol: &EvaluationProtocol, year: i32, month: u8) -> u8 {
    protocol
        .eval_day
        .clamp(1, puftestbed::days_in_month(year, month))
}

/// The month `(year, month)` whose evaluation window `record` falls in, or
/// `None` if the protocol admits it into no window.
///
/// A record is admitted at or after midnight of its month's (clamped)
/// evaluation day. A zero-read protocol admits nothing: opening empty
/// windows would feed 0/0 averages to every metric downstream. Whether an
/// admitted record still fits its window — the read cap and the width
/// check — is decided where the window state lives.
pub(crate) fn admitted_month(protocol: &EvaluationProtocol, record: &Record) -> Option<(i32, u8)> {
    if protocol.reads_per_window == 0 {
        return None;
    }
    let date = record.timestamp.datetime().date;
    (date.day >= effective_eval_day(protocol, date.year, date.month))
        .then_some((date.year, date.month))
}

/// The device an out-of-order stream is reported against: the lowest
/// offending id, so the error depends neither on arrival order nor on how
/// the stream was sharded.
pub(crate) fn lowest_device(a: Option<BoardId>, b: Option<BoardId>) -> Option<BoardId> {
    a.into_iter().chain(b).min()
}

/// Midnight opening the evaluation window of month `(year, month)`.
///
/// The evaluation day is clamped into the month, so e.g. an `eval_day` of 30
/// opens February's window on the 28th (or 29th) instead of panicking on a
/// date that does not exist.
pub fn window_open(protocol: &EvaluationProtocol, year: i32, month: u8) -> Timestamp {
    Timestamp::from_date(puftestbed::CalendarDate::new(
        year,
        month,
        effective_eval_day(protocol, year, month),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{WindowAccumulator, WindowSnapshot};
    use pufbits::BitVec;
    use puftestbed::{BoardId, CalendarDate, Record};

    fn record_at(device: u8, seq: u64, date: CalendarDate, offset_s: f64, byte: u8) -> Record {
        Record::new(
            BoardId(device),
            seq,
            Timestamp::from_date(date).offset_by(offset_s),
            BitVec::from_bytes(&[byte]),
        )
    }

    /// Folds `records` through the production window fold and returns the
    /// accumulator (for its counters) and every window it opened, sorted by
    /// `(device, year, month)`.
    fn fold(
        records: &[Record],
        protocol: EvaluationProtocol,
    ) -> (WindowAccumulator, Vec<WindowSnapshot>) {
        let mut accumulator = WindowAccumulator::new(protocol);
        for record in records {
            accumulator.push(record);
        }
        let windows = accumulator.snapshots();
        (accumulator, windows)
    }

    fn month_keys(windows: &[WindowSnapshot]) -> Vec<(i32, u8)> {
        let mut keys: Vec<(i32, u8)> = windows.iter().map(|w| w.year_month).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    #[test]
    fn takes_first_n_after_midnight() {
        let protocol = EvaluationProtocol {
            reads_per_window: 2,
            eval_day: 8,
        };
        let date = CalendarDate::new(2017, 2, 8);
        let records = vec![
            record_at(0, 0, date, 0.0, 0x01),
            record_at(0, 1, date, 5.4, 0x02),
            record_at(0, 2, date, 10.8, 0x04), // beyond the window
        ];
        let (accumulator, windows) = fold(&records, protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].counter.observations(), 2);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x01]));
        assert_eq!(accumulator.records_folded(), 2);
        assert_eq!(accumulator.records_skipped(), 1);
    }

    #[test]
    fn records_before_the_eval_day_are_ignored() {
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 7), 0.0, 0xFF),
            record_at(0, 1, CalendarDate::new(2017, 2, 8), 0.0, 0x0F),
        ];
        let (_, windows) = fold(&records, protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x0F]));
    }

    #[test]
    fn records_later_in_the_month_still_belong_to_it() {
        // The rule is "after midnight on the 8th" — the 20th qualifies.
        let protocol = EvaluationProtocol::default();
        let records = vec![record_at(0, 0, CalendarDate::new(2017, 2, 20), 0.0, 0xAA)];
        let (_, windows) = fold(&records, protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].year_month, (2017, 2));
    }

    #[test]
    fn devices_and_months_are_kept_separate() {
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 8), 0.0, 1),
            record_at(1, 0, CalendarDate::new(2017, 2, 8), 2.7, 2),
            record_at(0, 448_000, CalendarDate::new(2017, 3, 8), 0.0, 3),
        ];
        let (accumulator, windows) = fold(&records, protocol);
        assert_eq!(windows.len(), 3);
        assert_eq!(month_keys(&windows), vec![(2017, 2), (2017, 3)]);
        // Two devices with month-zero windows: the fold also finishes, and
        // hands back the same windows.
        let (_, finished) = accumulator.finish_with_windows().unwrap();
        assert_eq!(month_keys(&finished), vec![(2017, 2), (2017, 3)]);
        assert_eq!(finished.len(), 3);
    }

    #[test]
    fn empty_stream_yields_no_windows() {
        let (accumulator, windows) = fold(&[], EvaluationProtocol::default());
        assert!(windows.is_empty());
        assert_eq!(accumulator.records_folded(), 0);
    }

    #[test]
    fn exact_midnight_of_the_eval_day_is_inclusive() {
        // The boundary itself belongs to the window ("after midnight on the
        // 8th" includes 00:00:00 of the 8th); one second before it does not.
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 7), 86_399.0, 0xF0),
            record_at(0, 1, CalendarDate::new(2017, 2, 8), 0.0, 0x0F),
        ];
        let (accumulator, windows) = fold(&records, protocol);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].counter.observations(), 1);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x0F]));
        assert_eq!(accumulator.records_folded(), 1);
    }

    #[test]
    fn eval_day_beyond_the_month_clamps_to_its_last_day() {
        // Day 30 does not exist in February 2017 — the window must clamp to
        // the 28th rather than never opening (or panicking in window_open).
        let protocol = EvaluationProtocol {
            reads_per_window: 10,
            eval_day: 30,
        };
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 27), 0.0, 0x01),
            record_at(0, 1, CalendarDate::new(2017, 2, 28), 0.0, 0x02),
            record_at(0, 2, CalendarDate::new(2017, 3, 30), 0.0, 0x03),
        ];
        let (_, windows) = fold(&records, protocol);
        assert_eq!(month_keys(&windows), vec![(2017, 2), (2017, 3)]);
        assert_eq!(windows[0].first_read, BitVec::from_bytes(&[0x02]));
        assert_eq!(
            window_open(&protocol, 2017, 2),
            Timestamp::from_date(CalendarDate::new(2017, 2, 28))
        );
        assert_eq!(
            window_open(&protocol, 2016, 2),
            Timestamp::from_date(CalendarDate::new(2016, 2, 29))
        );
    }

    #[test]
    fn zero_reads_per_window_selects_nothing() {
        let protocol = EvaluationProtocol {
            reads_per_window: 0,
            eval_day: 8,
        };
        let records = vec![record_at(0, 0, CalendarDate::new(2017, 2, 8), 0.0, 0x01)];
        let (accumulator, windows) = fold(&records, protocol);
        assert!(windows.is_empty());
        assert_eq!(accumulator.records_folded(), 0);
    }

    #[test]
    fn months_with_no_eligible_records_leave_a_gap_not_a_window() {
        // A device dark through an entire month (e.g. a brownout) simply has
        // no window for it — the month key is absent, never an empty window.
        let protocol = EvaluationProtocol::default();
        let records = vec![
            record_at(0, 0, CalendarDate::new(2017, 2, 8), 0.0, 1),
            // All of March falls before the eval day: ineligible.
            record_at(0, 1, CalendarDate::new(2017, 3, 7), 0.0, 2),
            record_at(0, 2, CalendarDate::new(2017, 4, 8), 0.0, 3),
        ];
        let (_, windows) = fold(&records, protocol);
        assert_eq!(month_keys(&windows), vec![(2017, 2), (2017, 4)]);
        assert!(windows.iter().all(|w| w.counter.observations() == 1));
    }

    #[test]
    fn truncated_records_are_skipped_and_counted_not_fatal() {
        let protocol = EvaluationProtocol::default();
        let date = CalendarDate::new(2017, 2, 8);
        let records = vec![
            record_at(0, 0, date, 0.0, 0x01),
            // A truncated read-out: 4 bits instead of 8. Must not panic.
            Record::new(
                BoardId(0),
                1,
                Timestamp::from_date(date).offset_by(5.4),
                BitVec::zeros(4),
            ),
            record_at(0, 2, date, 10.8, 0x03),
        ];
        let (accumulator, windows) = fold(&records, protocol);
        assert_eq!(accumulator.skipped_width_mismatch(), 1);
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].counter.observations(), 2);
        assert_eq!(accumulator.records_folded(), 2);
    }
}
