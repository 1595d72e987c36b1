//! The production key-lifetime fold must be indistinguishable from the
//! retain-everything oracle (`oracle/mod.rs`): same `KeyLife` (bit-for-bit
//! floats), same rendered table, same CSV — on clean campaigns, on faulted
//! campaigns whose gaps become erasures, and through the device-sharded
//! [`ShardedKeyLife`] with its deterministic merge. The key-lifetime twin of
//! `streaming_equivalence.rs`.

mod oracle;

use pufassess::monthly::EvaluationProtocol;
use pufassess::{
    KeyLife, KeyLifeAccumulator, KeyLifeConfig, KeyLifeError, KeyProfile, ShardedKeyLife,
};
use puftestbed::faults::{Brownout, I2cBurst};
use puftestbed::BoardId;
use puftestbed::{Campaign, CampaignConfig, Dataset, FaultPlan, Record};

fn keylife_config() -> KeyLifeConfig {
    KeyLifeConfig {
        protocol: EvaluationProtocol {
            reads_per_window: 30,
            ..EvaluationProtocol::default()
        },
        profiles: vec![
            KeyProfile::parse("golay-r5", 12).unwrap(),
            KeyProfile::parse("polar-128-16", 16).unwrap(),
        ],
        enroll_seed: 7,
    }
}

/// Light transport faults on every board over all four windows.
fn whole_campaign_burst() -> I2cBurst {
    I2cBurst {
        board: None,
        from_window: 0,
        until_window: 3,
        nack_rate: 0.05,
        corruption_rate: 0.02,
    }
}

fn clean_campaign() -> Dataset {
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        ..CampaignConfig::default()
    };
    Campaign::new(config, 71).run_in_memory()
}

/// Transport faults and scheduled outages on: board 1 loses window 2 whole
/// (a brownout gap), board 2 rides out an I2C burst that drops and
/// corrupts read-outs. The record file carries only the surviving reads —
/// the workload must infer the rest as erasures, identically in the fold
/// and the oracle.
fn faulted_campaign() -> Dataset {
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(1),
                from_window: 2,
                until_window: 2,
            }],
            i2c_bursts: vec![
                whole_campaign_burst(),
                I2cBurst {
                    board: Some(2),
                    from_window: 1,
                    until_window: 3,
                    nack_rate: 0.4,
                    corruption_rate: 0.2,
                },
            ],
            ..FaultPlan::default()
        },
        ..CampaignConfig::default()
    };
    Campaign::new(config, 71).run_in_memory()
}

fn streamed(dataset: &Dataset, config: &KeyLifeConfig) -> KeyLife {
    let mut accumulator = KeyLifeAccumulator::new(config.clone());
    for record in dataset.records() {
        accumulator.push(record);
    }
    accumulator.finish().unwrap()
}

/// Folds `records` through the production sharded fold on `shards` workers.
fn sharded(
    records: &[Record],
    config: &KeyLifeConfig,
    shards: usize,
) -> Result<KeyLife, KeyLifeError> {
    let mut fold = ShardedKeyLife::new(config, shards, None);
    for record in records {
        fold.push(record.clone());
    }
    fold.finish().finish()
}

#[test]
fn streaming_matches_the_oracle_on_a_clean_campaign() {
    let dataset = clean_campaign();
    let config = keylife_config();
    let expected = oracle::keylife(dataset.records(), &config).unwrap();
    let streamed = streamed(&dataset, &config);
    assert_eq!(expected, streamed);
    assert_eq!(expected.render_table(), streamed.render_table());
    assert_eq!(expected.csv(), streamed.csv());
    assert_eq!(expected.total_failures(), 0, "clean campaign loses no key");
}

#[test]
fn streaming_matches_the_oracle_on_a_faulted_campaign() {
    let dataset = faulted_campaign();
    let config = keylife_config();
    let expected = oracle::keylife(dataset.records(), &config).unwrap();
    let streamed = streamed(&dataset, &config);
    assert_eq!(expected, streamed);
    assert_eq!(expected.render_table(), streamed.render_table());
    assert_eq!(expected.csv(), streamed.csv());

    // The faults must actually have bitten: the brownout month reports the
    // whole missing window as erasures, and the burst leaves at least one
    // underfilled window. Otherwise this test locks nothing.
    let golay = &expected.profiles[0];
    let erasures: u64 = golay.rows.iter().map(|r| r.erasures).sum();
    assert!(
        erasures >= u64::from(config.protocol.reads_per_window),
        "expected at least one browned-out window of erasures, got {erasures}"
    );
    let brownout_month = golay
        .rows
        .iter()
        .find(|r| r.erasures >= u64::from(config.protocol.reads_per_window))
        .expect("a month absorbs the brownout");
    assert!(
        brownout_month.rate.unwrap() > 0.0,
        "erasures must surface in the rate"
    );
}

#[test]
fn streaming_matches_the_oracle_on_an_edge_stream() {
    // Off-day records, width mismatches and a cap below the campaign's
    // reads: every branch of the selection rule.
    let stream = oracle::edge_stream(faulted_campaign().records());
    let config = KeyLifeConfig {
        protocol: EvaluationProtocol {
            reads_per_window: 20,
            ..EvaluationProtocol::default()
        },
        ..keylife_config()
    };
    let expected = oracle::keylife(&stream, &config).unwrap();
    let streamed = KeyLife::from_records(&stream, &config).unwrap();
    assert!(expected.skipped_width_mismatch > 0);
    assert_eq!(expected, streamed);
    assert_eq!(expected.render_table(), streamed.render_table());
    assert_eq!(expected.csv(), streamed.csv());
}

#[test]
fn slice_wrapper_matches_the_oracle() {
    // A second campaign geometry, through `KeyLife::from_records`: table and
    // CSV must match too.
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 20,
        ..CampaignConfig::default()
    };
    let dataset = Campaign::new(config, 51).run_in_memory();
    let keylife = KeyLifeConfig {
        protocol: EvaluationProtocol {
            reads_per_window: 20,
            ..EvaluationProtocol::default()
        },
        ..keylife_config()
    };
    let streamed = KeyLife::from_records(dataset.records(), &keylife).unwrap();
    let expected = oracle::keylife(dataset.records(), &keylife).unwrap();
    assert_eq!(streamed, expected);
    assert_eq!(streamed.render_table(), expected.render_table());
    assert_eq!(streamed.csv(), expected.csv());
}

#[test]
fn missing_device_months_match_the_oracle() {
    // Device 1 vanishes after its first month: every later month is fully
    // erased for it, in the fold and in the oracle alike.
    let dataset = clean_campaign();
    let first_month = dataset
        .records()
        .iter()
        .map(|r| {
            let d = r.timestamp.datetime().date;
            (d.year, d.month)
        })
        .min()
        .unwrap();
    let records: Vec<Record> = dataset
        .records()
        .iter()
        .filter(|r| {
            let d = r.timestamp.datetime().date;
            r.device.0 != 1 || (d.year, d.month) == first_month
        })
        .cloned()
        .collect();
    let config = keylife_config();
    let streamed = KeyLife::from_records(&records, &config).unwrap();
    assert_eq!(streamed, oracle::keylife(&records, &config).unwrap());
    for row in &streamed.profiles[0].rows[1..] {
        assert_eq!(row.erasures, 30, "device 1 fully erased");
    }
}

#[test]
fn sharded_fold_matches_the_oracle_for_every_shard_count() {
    for dataset in [clean_campaign(), faulted_campaign()] {
        let config = keylife_config();
        let expected = oracle::keylife(dataset.records(), &config).unwrap();
        for shards in [1, 2, 3, 5] {
            let merged = sharded(dataset.records(), &config, shards).unwrap();
            assert_eq!(expected, merged, "shards={shards}");
            assert_eq!(
                expected.render_table(),
                merged.render_table(),
                "shards={shards}"
            );
            assert_eq!(expected.csv(), merged.csv(), "shards={shards}");
        }
    }
}

#[test]
fn out_of_order_reports_the_lowest_device_in_every_path() {
    // Devices 3 and 0 both see their second month before their first, and
    // device 3's violation arrives first. The oracle, the single fold and
    // the sharded fold at every shard count must all name device 0.
    let dataset = clean_campaign();
    let month = |r: &Record| {
        let d = r.timestamp.datetime().date;
        (d.year, d.month)
    };
    let first = dataset.records().iter().map(month).min().unwrap();
    let late = |r: &Record| month(r) == first && (r.device.0 == 3 || r.device.0 == 0);
    let mut stream: Vec<Record> = dataset
        .records()
        .iter()
        .filter(|r| !late(r))
        .cloned()
        .collect();
    for device in [3, 0] {
        stream.extend(
            dataset
                .records()
                .iter()
                .filter(|r| late(r) && r.device.0 == device)
                .cloned(),
        );
    }
    let config = keylife_config();
    let expected = KeyLifeError::OutOfOrder { device: BoardId(0) };
    assert_eq!(oracle::keylife(&stream, &config).unwrap_err(), expected);
    assert_eq!(
        KeyLife::from_records(&stream, &config).unwrap_err(),
        expected
    );
    for shards in [1, 2, 3, 5] {
        assert_eq!(
            sharded(&stream, &config, shards).unwrap_err(),
            expected,
            "shards={shards}"
        );
    }
}

#[test]
fn resumed_and_uninterrupted_faulted_campaigns_agree() {
    // A campaign halted at a window boundary and resumed from its
    // checkpoint state must feed the accumulator the identical stream: the
    // halted head plus the resumed tail equals the uninterrupted run.
    let config = CampaignConfig {
        boards: 4,
        sram_bits: 1024,
        read_bits: 1024,
        months: 3,
        reads_per_window: 30,
        faults: FaultPlan {
            brownouts: vec![Brownout {
                board: Some(1),
                from_window: 2,
                until_window: 2,
            }],
            i2c_bursts: vec![whole_campaign_burst()],
            ..FaultPlan::default()
        },
        ..CampaignConfig::default()
    };
    let keylife = keylife_config();

    let mut uninterrupted = KeyLifeAccumulator::new(keylife.clone());
    Campaign::new(config.clone(), 71)
        .run(&mut uninterrupted)
        .unwrap();
    let uninterrupted = uninterrupted.finish().unwrap();

    let mut resumed = KeyLifeAccumulator::new(keylife);
    let mut head = Campaign::new(config.clone(), 71).halt_after_windows(2);
    head.run(&mut resumed).unwrap();
    assert!(!head.completed());
    let state = head.export_state();
    Campaign::resume(config, 71, &state)
        .unwrap()
        .run(&mut resumed)
        .unwrap();
    let resumed = resumed.finish().unwrap();

    assert_eq!(uninterrupted, resumed);
    assert_eq!(uninterrupted.render_table(), resumed.render_table());
}
