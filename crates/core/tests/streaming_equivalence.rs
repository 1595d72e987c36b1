//! The production assessment fold must match the retain-everything oracle
//! (`oracle/mod.rs`) exactly: same `Assessment` (bit-for-bit floats), same
//! Table I text, same CSVs, same windows — on clean and faulty multi-month
//! campaigns, on a stream with off-day and truncated records, piped
//! straight from a campaign, and through the full JSON-lines disk format
//! with the parallel parser.

mod oracle;

use pufassess::monthly::EvaluationProtocol;
use pufassess::streaming::WindowAccumulator;
use pufassess::{report, Assessment};
use puftestbed::faults::I2cBurst;
use puftestbed::store::{ParallelRecordReader, RecordSink};
use puftestbed::{Campaign, CampaignConfig, Dataset, FaultPlan};
use std::io::Cursor;

fn faulty_campaign() -> Dataset {
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        // Transport faults on: dropped and retried read-outs must not
        // desynchronise the streaming accumulation.
        faults: FaultPlan {
            i2c_bursts: vec![I2cBurst {
                board: None,
                from_window: 0,
                until_window: 3,
                nack_rate: 0.05,
                corruption_rate: 0.02,
            }],
            ..FaultPlan::default()
        },
        ..CampaignConfig::default()
    };
    Campaign::new(config, 71).run_in_memory()
}

fn protocol() -> EvaluationProtocol {
    EvaluationProtocol {
        reads_per_window: 30,
        ..EvaluationProtocol::default()
    }
}

fn small_config(months: u32, boards: usize) -> CampaignConfig {
    CampaignConfig {
        boards,
        sram_bits: 1024,
        read_bits: 1024,
        months,
        reads_per_window: 25,
        ..CampaignConfig::default()
    }
}

fn small_protocol() -> EvaluationProtocol {
    EvaluationProtocol {
        reads_per_window: 25,
        ..EvaluationProtocol::default()
    }
}

#[test]
fn streaming_equals_the_oracle_exactly() {
    let dataset = Campaign::new(small_config(3, 4), 91).run_in_memory();
    let expected = oracle::assessment(dataset.records(), &small_protocol()).unwrap();
    let streamed = Assessment::from_records(dataset.records(), &small_protocol()).unwrap();
    // Bit-exact: every float was accumulated in the same order.
    assert_eq!(expected, streamed);
    assert_eq!(expected.table1().render(), streamed.table1().render());
}

#[test]
fn campaign_pipes_directly_into_the_accumulator() {
    let mut accumulator = WindowAccumulator::new(small_protocol());
    Campaign::new(small_config(2, 3), 92)
        .run(&mut accumulator)
        .unwrap();
    assert_eq!(accumulator.windows_open(), 3 * 3);
    let direct = accumulator.finish().unwrap();
    let dataset = Campaign::new(small_config(2, 3), 92).run_in_memory();
    let replay = oracle::assessment(dataset.records(), &small_protocol()).unwrap();
    assert_eq!(direct, replay);
}

#[test]
fn streaming_matches_the_oracle_on_a_faulty_campaign() {
    let dataset = faulty_campaign();
    let expected = oracle::assessment(dataset.records(), &protocol()).unwrap();
    let streamed = Assessment::from_dataset(&dataset, &protocol()).unwrap();
    assert_eq!(expected, streamed);
    assert_eq!(expected.table1().render(), streamed.table1().render());
    assert_eq!(
        report::device_series_csv(&expected),
        report::device_series_csv(&streamed)
    );
    assert_eq!(
        report::aggregate_csv(&expected),
        report::aggregate_csv(&streamed)
    );
}

#[test]
fn streaming_matches_through_the_json_store_and_parallel_parser() {
    let dataset = faulty_campaign();
    let expected = oracle::assessment(dataset.records(), &protocol()).unwrap();

    let mut sink = puftestbed::store::JsonLinesSink::new(Vec::new());
    for r in dataset.records() {
        sink.record(r).unwrap();
    }
    let bytes = sink.into_inner().unwrap();

    for threads in [1, 4] {
        let reader = ParallelRecordReader::spawn(Cursor::new(bytes.clone()), threads, 64);
        let mut accumulator = WindowAccumulator::new(protocol());
        for item in reader {
            accumulator.push(&item.expect("no malformed lines in a fresh store"));
        }
        assert_eq!(accumulator.skipped_width_mismatch(), 0);
        let streamed = accumulator.finish().unwrap();
        assert_eq!(expected, streamed, "threads={threads}");
    }
}

/// Off-day records, width mismatches and a cap below the campaign's reads:
/// every branch of the selection rule, and the assessment still matches.
#[test]
fn streaming_matches_the_oracle_on_an_edge_stream() {
    let stream = oracle::edge_stream(faulty_campaign().records());
    let protocol = EvaluationProtocol {
        reads_per_window: 20,
        ..EvaluationProtocol::default()
    };
    let expected = oracle::assessment(&stream, &protocol).unwrap();
    let streamed = Assessment::from_records(&stream, &protocol).unwrap();
    assert_eq!(expected, streamed);
    assert_eq!(expected.table1().render(), streamed.table1().render());
}

/// The windows themselves — which records each device-month admitted, in
/// what order, and which were skipped — agree with the oracle's selection,
/// with the campaign's own cap and with one below it.
#[test]
fn folded_windows_match_the_oracle_selection() {
    let stream = oracle::edge_stream(faulty_campaign().records());
    for reads_per_window in [30, 7] {
        let protocol = EvaluationProtocol {
            reads_per_window,
            ..EvaluationProtocol::default()
        };
        let selection = oracle::select_windows_counted(&stream, &protocol);
        assert!(selection.skipped_width_mismatch > 0);
        let mut accumulator = WindowAccumulator::new(protocol);
        for r in &stream {
            accumulator.push(r);
        }
        assert_eq!(
            accumulator.skipped_width_mismatch(),
            selection.skipped_width_mismatch
        );
        let folded: u32 = selection.windows.iter().map(|w| w.reads()).sum();
        assert_eq!(accumulator.records_folded(), u64::from(folded));
        let (_, snapshots) = accumulator.finish_with_windows().unwrap();
        assert_eq!(snapshots.len(), selection.windows.len());
        for (s, w) in snapshots.iter().zip(&selection.windows) {
            assert_eq!((s.device, s.year_month), (w.device, w.year_month));
            assert_eq!(s.counter, w.counter, "{:?} {:?}", w.device, w.year_month);
            assert_eq!(s.first_read, w.first_read);
        }
    }
}
