//! Reference oracles for the two `pufassess` workloads.
//!
//! The library has one implementation of each workload: the streaming
//! folds `WindowAccumulator` and `KeyLifeAccumulator`. This module keeps a
//! second, deliberately naive implementation of both to test them against.
//! It retains every read-out of every selected window in memory, derives
//! each metric from the retained rows afterwards, and applies the paper's
//! §IV-B selection rule ("the first N measurements after midnight on the
//! evaluation day of each month") on its own.
//!
//! The oracle uses only the crate's public API and never calls either
//! accumulator, so an equivalence test fails when the fold changes what it
//! computes, not only when the two drift apart by accident.

#![allow(dead_code)] // each test binary uses a different part

use pufassess::assessment::{DeviceMonth, MonthlyAggregate};
use pufassess::entropy::{noise_entropy, puf_entropy, stable_cell_ratio};
use pufassess::keylife::{MonthKeyRow, ProfileLife};
use pufassess::metrics::{between_class_hds, fractional_hw, within_class_hd, InitialQuality};
use pufassess::monthly::EvaluationProtocol;
use pufassess::{AssessError, Assessment, KeyLife, KeyLifeConfig, KeyLifeError};
use pufbits::{BitMatrix, BitVec, OnesCounter, PufRng};
use pufkeygen::analysis::spec_failure_bound;
use pufkeygen::{Enrollment, KeyGenerator};
use pufstats::Summary;
use puftestbed::{BoardId, Record};
use std::collections::BTreeMap;

/// One device's selected window for one month, with every read-out kept.
#[derive(Debug, Clone, PartialEq)]
pub struct MonthlyWindow {
    /// The measured device.
    pub device: BoardId,
    /// Month key `(year, month)` of the window.
    pub year_month: (i32, u8),
    /// Per-cell one-counts over the window.
    pub counter: OnesCounter,
    /// The first read-out of the window.
    pub first_read: BitVec,
    /// Every read-out of the window.
    pub readouts: BitMatrix,
}

impl MonthlyWindow {
    /// Number of measurements captured in this window.
    pub fn reads(&self) -> u32 {
        self.counter.observations()
    }
}

/// The windows of a record slice plus skip accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSelection {
    /// Windows sorted by `(device, year, month)`.
    pub windows: Vec<MonthlyWindow>,
    /// Eligible records dropped because their width differed from their
    /// window's first read-out.
    pub skipped_width_mismatch: u64,
}

/// The §IV-B eligibility test, written out independently of the library:
/// the month `(year, month)` of `record` if it falls at or after midnight of
/// that month's evaluation day (clamped into short months), else `None`.
fn eligible_month(protocol: &EvaluationProtocol, record: &Record) -> Option<(i32, u8)> {
    let date = record.timestamp.datetime().date;
    let eval_day = protocol
        .eval_day
        .clamp(1, puftestbed::days_in_month(date.year, date.month));
    (date.day >= eval_day).then_some((date.year, date.month))
}

/// Groups a record slice into per-device, per-month windows: the first
/// `reads_per_window` eligible records of each device-month, in arrival
/// order. A record whose width disagrees with its window is counted and
/// dropped. A zero-read protocol selects nothing.
pub fn select_windows_counted(
    records: &[Record],
    protocol: &EvaluationProtocol,
) -> WindowSelection {
    let mut windows: BTreeMap<(u8, i32, u8), MonthlyWindow> = BTreeMap::new();
    let mut skipped_width_mismatch = 0u64;
    if protocol.reads_per_window == 0 {
        return WindowSelection {
            windows: Vec::new(),
            skipped_width_mismatch,
        };
    }
    for record in records {
        let Some(year_month) = eligible_month(protocol, record) else {
            continue;
        };
        let key = (record.device.0, year_month.0, year_month.1);
        let window = windows.entry(key).or_insert_with(|| MonthlyWindow {
            device: record.device,
            year_month,
            counter: OnesCounter::new(record.data.len()),
            first_read: record.data.clone(),
            readouts: BitMatrix::new(record.data.len()),
        });
        if window.reads() >= protocol.reads_per_window {
            continue;
        }
        if record.data.len() != window.counter.width() {
            skipped_width_mismatch += 1;
            continue;
        }
        window
            .counter
            .add(&record.data)
            .expect("width checked above");
        window
            .readouts
            .push_row(record.data.clone())
            .expect("width checked above");
    }
    WindowSelection {
        windows: windows.into_values().collect(),
        skipped_width_mismatch,
    }
}

/// [`select_windows_counted`] without the skip accounting.
pub fn select_windows(records: &[Record], protocol: &EvaluationProtocol) -> Vec<MonthlyWindow> {
    select_windows_counted(records, protocol).windows
}

/// The month keys present in a set of windows, in order.
pub fn month_keys(windows: &[MonthlyWindow]) -> Vec<(i32, u8)> {
    let mut keys: Vec<(i32, u8)> = windows.iter().map(|w| w.year_month).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The whole assessment from retained windows: per-device monthly metrics
/// against each device's month-zero reference, per-month cross-device
/// aggregates, and the Fig. 5 bundle of the first month. The records must
/// be in campaign order; unlike the library, the oracle does not check it.
pub fn assessment(
    records: &[Record],
    protocol: &EvaluationProtocol,
) -> Result<Assessment, AssessError> {
    if records.is_empty() {
        return Err(AssessError::Empty);
    }
    let windows = select_windows(records, protocol);
    if windows.is_empty() {
        return Err(AssessError::NoWindows);
    }
    let months = month_keys(&windows);
    let month_index: BTreeMap<(i32, u8), u32> = months
        .iter()
        .enumerate()
        .map(|(i, &ym)| (ym, u32::try_from(i).expect("month count fits u32")))
        .collect();

    // Month-zero references per device.
    let first_month = months[0];
    let mut references: BTreeMap<BoardId, BitVec> = BTreeMap::new();
    let mut devices: Vec<BoardId> = Vec::new();
    for w in &windows {
        if !devices.contains(&w.device) {
            devices.push(w.device);
        }
        if w.year_month == first_month {
            references.insert(w.device, w.first_read.clone());
        }
    }
    if devices.len() < 2 {
        return Err(AssessError::TooFewDevices {
            devices: devices.len(),
        });
    }
    for device in &devices {
        if !references.contains_key(device) {
            return Err(AssessError::MissingReference { device: *device });
        }
    }

    // Per-device monthly metrics.
    let mut device_months = Vec::with_capacity(windows.len());
    for w in &windows {
        let reference = &references[&w.device];
        device_months.push(DeviceMonth {
            device: w.device,
            year_month: w.year_month,
            month_index: month_index[&w.year_month],
            reads: w.reads(),
            wchd: within_class_hd(&w.readouts, reference),
            fhw: fractional_hw(&w.readouts),
            noise_entropy: noise_entropy(&w.counter),
            stable_ratio: stable_cell_ratio(&w.counter),
        });
    }

    // Cross-device aggregates per month. A month with fewer than two
    // devices has no pairs: its uniqueness is the zero placeholder.
    let mut aggregates = Vec::with_capacity(months.len());
    for &ym in &months {
        let of_month: Vec<&DeviceMonth> = device_months
            .iter()
            .filter(|d| d.year_month == ym)
            .collect();
        let firsts: BitMatrix = windows
            .iter()
            .filter(|w| w.year_month == ym)
            .map(|w| w.first_read.clone())
            .collect();
        let (bchd, month_puf_entropy) = if firsts.rows() < 2 {
            (Summary::empty(), 0.0)
        } else {
            (
                Summary::of(between_class_hds(&firsts)),
                puf_entropy(&firsts),
            )
        };
        aggregates.push(MonthlyAggregate {
            month_index: month_index[&ym],
            year_month: ym,
            wchd: Summary::of(of_month.iter().map(|d| d.wchd)),
            fhw: Summary::of(of_month.iter().map(|d| d.fhw)),
            noise_entropy: Summary::of(of_month.iter().map(|d| d.noise_entropy)),
            stable_ratio: Summary::of(of_month.iter().map(|d| d.stable_ratio)),
            bchd,
            puf_entropy: month_puf_entropy,
        });
    }

    // Fig. 5 bundle from the first month's windows.
    let first_windows: Vec<BitMatrix> = windows
        .iter()
        .filter(|w| w.year_month == first_month)
        .map(|w| w.readouts.clone())
        .collect();
    let initial_quality = InitialQuality::evaluate(&first_windows);

    Ok(Assessment::from_parts(
        *protocol,
        device_months,
        aggregates,
        initial_quality,
    ))
}

/// The enrollment RNG of `(seed, device, profile)`, re-derived from its
/// documented construction: a salted chain of two SplitMix64 finalizer
/// steps feeding a counter-mode `PufRng`.
fn enroll_rng(seed: u64, device: BoardId, profile: usize) -> PufRng {
    fn splitmix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut z = seed ^ 0x6B79_6C69_6665_2F31;
    z = splitmix(z.wrapping_add(u64::from(device.0)).wrapping_add(1));
    z = splitmix(z.wrapping_add(profile as u64).wrapping_add(1));
    PufRng::from_state((z, 0))
}

/// A device's enrollment: its month, reference read, and one enrollment
/// per profile (`None` where the response cannot cover the codeword).
struct Enrolled {
    month: (i32, u8),
    reference: BitVec,
    enrollments: Vec<Option<Enrollment>>,
}

/// One replayed (device, month) window.
struct ReplayedWindow {
    reads: u32,
    wchd_sum: f64,
    failures: Vec<u64>,
}

/// The key-lifetime workload from retained windows: enroll every device
/// from the first read of its earliest window, then replay every retained
/// read of every later month through reconstruction, and tabulate
/// failures, erasures and the analytic bound per profile and month.
pub fn keylife(records: &[Record], config: &KeyLifeConfig) -> Result<KeyLife, KeyLifeError> {
    if config.profiles.is_empty() {
        return Err(KeyLifeError::NoProfiles);
    }
    if records.is_empty() {
        return Err(KeyLifeError::Empty);
    }
    let generators: Vec<KeyGenerator> = config
        .profiles
        .iter()
        .map(|p| KeyGenerator::from_spec(p.secret_bits, p.spec).expect("valid profile"))
        .collect();
    let protocol = config.protocol;

    // Group eligible reads into (device, month) windows, preserving arrival
    // order, applying the cap and width rules record by record.
    let mut retained: BTreeMap<(u8, i32, u8), Vec<BitVec>> = BTreeMap::new();
    let mut widths: BTreeMap<(u8, i32, u8), usize> = BTreeMap::new();
    let mut first_months: BTreeMap<u8, (i32, u8)> = BTreeMap::new();
    let mut records_folded = 0u64;
    let mut skipped_width_mismatch = 0u64;
    let mut out_of_order: Option<BoardId> = None;
    for record in records {
        if protocol.reads_per_window == 0 {
            continue;
        }
        let Some(ym) = eligible_month(&protocol, record) else {
            continue;
        };
        let key = (record.device.0, ym.0, ym.1);
        match first_months.get(&record.device.0) {
            None => {
                first_months.insert(record.device.0, ym);
            }
            Some(&first) if ym < first => {
                // Report the lowest offending device, whichever came first.
                out_of_order = Some(out_of_order.map_or(record.device, |d| d.min(record.device)));
            }
            Some(_) => {}
        }
        let width = *widths.entry(key).or_insert_with(|| record.data.len());
        let window = retained.entry(key).or_default();
        if window.len() as u64 >= u64::from(protocol.reads_per_window) {
            continue;
        }
        if record.data.len() != width {
            skipped_width_mismatch += 1;
            continue;
        }
        window.push(record.data.clone());
        records_folded += 1;
    }
    if let Some(device) = out_of_order {
        return Err(KeyLifeError::OutOfOrder { device });
    }
    if retained.is_empty() {
        return Err(KeyLifeError::NoWindows);
    }

    // Enroll every device from the first read of its earliest window.
    let mut devices: BTreeMap<u8, Enrolled> = BTreeMap::new();
    let mut enroll_failures = 0u64;
    for (&(id, year, month), reads) in &retained {
        if devices.contains_key(&id) {
            continue;
        }
        let reference = reads.first().expect("windows retain their first read");
        let enrollments = generators
            .iter()
            .enumerate()
            .map(|(p, generator)| {
                let mut rng = enroll_rng(config.enroll_seed, BoardId(id), p);
                let enrollment = generator.enroll(reference, &mut rng).ok();
                enroll_failures += u64::from(enrollment.is_none());
                enrollment
            })
            .collect();
        devices.insert(
            id,
            Enrolled {
                month: (year, month),
                reference: reference.clone(),
                enrollments,
            },
        );
    }

    // Replay every retained read: WCHD accumulation for all months,
    // reconstruction for post-enrollment months.
    let mut reconstructions = 0u64;
    let mut reconstruct_failures = 0u64;
    let mut wrong_keys = 0u64;
    let mut windows: BTreeMap<(u8, i32, u8), ReplayedWindow> = BTreeMap::new();
    for (&(id, year, month), reads) in &retained {
        let device = &devices[&id];
        let mut window = ReplayedWindow {
            reads: u32::try_from(reads.len()).expect("cap fits u32"),
            wchd_sum: 0.0,
            failures: vec![0; config.profiles.len()],
        };
        for read in reads {
            window.wchd_sum += read.fractional_hamming_distance(&device.reference);
            if (year, month) <= device.month {
                continue;
            }
            for (p, enrollment) in device.enrollments.iter().enumerate() {
                let Some(enrollment) = enrollment else {
                    continue;
                };
                reconstructions += 1;
                let failed = match generators[p].reconstruct(read, &enrollment.helper) {
                    Ok(key) if key == enrollment.key => false,
                    Ok(_) => {
                        wrong_keys += 1;
                        true
                    }
                    Err(_) => true,
                };
                if failed {
                    window.failures[p] += 1;
                    reconstruct_failures += 1;
                }
            }
        }
        windows.insert((id, year, month), window);
    }

    // Tabulate: an enrolled device owes `reads_per_window` attempts in
    // every later month; missing attempts are erasures.
    let mut months: Vec<(i32, u8)> = retained.keys().map(|&(_, y, m)| (y, m)).collect();
    months.sort_unstable();
    months.dedup();
    let expected = u64::from(protocol.reads_per_window);
    let profiles = config
        .profiles
        .iter()
        .enumerate()
        .map(|(p, profile)| {
            let enrolled = devices
                .values()
                .filter(|d| d.enrollments[p].is_some())
                .count();
            let rows = months
                .iter()
                .enumerate()
                .map(|(mi, &ym)| {
                    let mut row_devices = 0usize;
                    let mut attempts = 0u64;
                    let mut failures = 0u64;
                    let mut erasures = 0u64;
                    let mut max_wchd: Option<f64> = None;
                    for (id, device) in &devices {
                        if device.enrollments[p].is_none() || ym <= device.month {
                            continue;
                        }
                        row_devices += 1;
                        match windows.get(&(*id, ym.0, ym.1)) {
                            Some(w) => {
                                let reads = u64::from(w.reads);
                                attempts += reads;
                                failures += w.failures[p];
                                erasures += expected.saturating_sub(reads);
                                if reads > 0 {
                                    let mean = w.wchd_sum / w.reads as f64;
                                    max_wchd = Some(max_wchd.map_or(mean, |m: f64| m.max(mean)));
                                }
                            }
                            None => erasures += expected,
                        }
                    }
                    let denominator = attempts + erasures;
                    let rate = (denominator > 0)
                        .then(|| (failures + erasures) as f64 / denominator as f64);
                    MonthKeyRow {
                        month_index: u32::try_from(mi).expect("month count fits u32"),
                        year_month: ym,
                        devices: row_devices,
                        attempts,
                        failures,
                        erasures,
                        rate,
                        max_wchd,
                        bound: max_wchd.and_then(|wchd| {
                            spec_failure_bound(profile.spec, wchd, profile.secret_bits)
                        }),
                    }
                })
                .collect();
            ProfileLife {
                profile: profile.clone(),
                enrolled,
                enroll_failures: devices.len() - enrolled,
                rows,
            }
        })
        .collect();

    Ok(KeyLife {
        protocol,
        enroll_seed: config.enroll_seed,
        months,
        devices: devices.len(),
        profiles,
        records_seen: records.len() as u64,
        records_folded,
        skipped_width_mismatch,
        reconstructions,
        reconstruct_failures,
        wrong_keys,
        enroll_failures,
    })
}

/// A campaign-order stream that exercises every branch of the selection
/// rule, built from `records`: every fourth record is preceded by a copy
/// from the day before (outside its month's window), and every ninth is
/// followed by a copy cut to half its width (a width mismatch). Run it with
/// a protocol cap below the campaign's reads so that windows also fill up.
pub fn edge_stream(records: &[Record]) -> Vec<Record> {
    let mut stream = Vec::with_capacity(records.len() * 3 / 2);
    for (i, record) in records.iter().enumerate() {
        if i % 4 == 0 {
            let early = record.timestamp.offset_by(-86_400.0);
            stream.push(Record::new(
                record.device,
                record.seq,
                early,
                record.data.clone(),
            ));
        }
        stream.push(record.clone());
        if i % 9 == 0 {
            let cut = record.data.prefix(record.data.len() / 2);
            stream.push(Record::new(
                record.device,
                record.seq,
                record.timestamp,
                cut,
            ));
        }
    }
    stream
}
