//! Replays a record file (JSON lines or `pufrec/1` binary) through the
//! key-lifetime workload: every device enrolls a key per ECC profile from
//! its first eligible read (debias → helper data → extractor) and every
//! later device-month reconstructs it, producing a per-month key-failure
//! table — observed rate next to the analytic bound at that month's
//! worst-case WCHD.
//!
//! ```text
//! keylife --in records [--format json|binary] [--reads 1000] [--eval-day 8]
//!         [--profiles golay-r5@128,polar-512-128@128] [--secret-bits 128]
//!         [--seed 2017] [--threads N] [--batch-lines N] [--csv FILE]
//!         [--bench-out FILE] [--metrics-out FILE] [--verbose]
//! ```
//!
//! Records fold through [`pufassess::ShardedKeyLife`] (`--threads` workers,
//! sharded by device, merged deterministically), so the output is
//! byte-identical for every `--threads` value and across the two storage
//! formats. Unlike `assess`, a malformed record aborts the run: key-failure
//! statistics over a silently truncated stream would claim reliability that
//! was never measured.
//!
//! `--csv` writes the machine-readable table, `--bench-out` the
//! `bench-keylife/1` JSON throughput/failure summary (`BENCH_keylife.json`
//! by convention). `--metrics-out` dumps the `pufobs` counters; `--verbose`
//! prints a once-per-second heartbeat to stderr. None of them change the
//! report by a byte.

use pufassess::monthly::EvaluationProtocol;
use pufassess::{KeyLifeConfig, KeyProfile, ShardedKeyLife};
use pufbench::cli::{self, Args};
use pufbench::{keylife_bench_json, metrics};
use pufobs::Instruments;
use puftestbed::store::{RecordFormat, DEFAULT_BATCH_LINES};
use std::process::exit;
use std::time::Instant;

const USAGE: &str = "usage: keylife --in FILE [--format json|binary] [--reads N] \
                     [--eval-day D] [--profiles SPEC[@BITS],...] [--secret-bits N] \
                     [--seed N] [--threads N] [--batch-lines N] [--csv FILE] \
                     [--bench-out FILE] [--metrics-out FILE] [--verbose]";

fn main() {
    let mut input: Option<String> = None;
    let mut format: Option<RecordFormat> = None;
    let mut protocol = EvaluationProtocol::default();
    let mut profile_list: Option<String> = None;
    let mut secret_bits = 128usize;
    let mut enroll_seed = 2017u64;
    let mut threads = pufbench::default_threads();
    let mut batch_lines = DEFAULT_BATCH_LINES;
    let mut csv_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut verbose = false;

    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--in" => input = Some(args.value()),
            "--format" => format = Some(args.parse()),
            "--reads" => protocol.reads_per_window = args.parse(),
            "--eval-day" => protocol.eval_day = args.parse(),
            "--profiles" => profile_list = Some(args.value()),
            "--secret-bits" => secret_bits = args.positive(),
            "--seed" => enroll_seed = args.parse(),
            "--threads" => threads = args.positive(),
            "--batch-lines" => batch_lines = args.positive(),
            "--csv" => csv_out = Some(args.value()),
            "--bench-out" => bench_out = Some(args.value()),
            "--metrics-out" => metrics_out = Some(args.value()),
            "--verbose" => verbose = true,
            _ => args.unknown(),
        }
    }
    let Some(input) = input else {
        cli::usage_error("--in FILE is required (try --help)");
    };
    let profiles = parse_profiles(profile_list.as_deref().unwrap_or("golay-r5"), secret_bits)
        .unwrap_or_else(|e| cli::usage_error(e));
    let config = KeyLifeConfig {
        protocol,
        profiles,
        enroll_seed,
    };

    let obs = (metrics_out.is_some() || verbose).then(Instruments::new);
    let reader = cli::open_records(&input, format, threads, batch_lines, obs.as_ref());
    let heartbeat = obs
        .as_ref()
        .filter(|_| verbose)
        .map(|ins| metrics::spawn_heartbeat(ins, metrics::keylife_spec()));

    let started = Instant::now();
    let mut fold = ShardedKeyLife::new(&config, threads, obs.as_ref());
    for item in reader {
        // Key-reliability numbers over a corrupt or truncated stream are
        // worse than no numbers: refuse the input.
        fold.push(
            item.unwrap_or_else(|e| cli::fail(format!("refusing corrupt input {input}: {e}"))),
        );
    }
    let merged = fold.finish();
    drop(heartbeat);
    let elapsed = started.elapsed().as_secs_f64();

    eprintln!(
        "replayed {} records ({} folded, {} reconstructions)",
        merged.records_seen(),
        merged.records_folded(),
        merged.reconstructions()
    );
    if !cli::write_metrics(metrics_out.as_deref(), obs.as_ref()) {
        exit(1);
    }

    let life = merged
        .finish()
        .unwrap_or_else(|e| cli::fail(format!("key-lifetime evaluation failed: {e}")));

    print!("{}", life.render_table());

    if let Some(path) = csv_out {
        std::fs::write(&path, life.csv())
            .unwrap_or_else(|e| cli::fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(path) = bench_out {
        std::fs::write(&path, keylife_bench_json(&life, elapsed))
            .unwrap_or_else(|e| cli::fail(format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// Parses the `--profiles` list: comma-separated spec tokens, each with an
/// optional `@BITS` secret-length override (else `default_bits`).
fn parse_profiles(list: &str, default_bits: usize) -> Result<Vec<KeyProfile>, String> {
    let profiles: Vec<KeyProfile> = list
        .split(',')
        .filter(|token| !token.is_empty())
        .map(|token| {
            let (spec, bits) = match token.split_once('@') {
                Some((spec, bits)) => (
                    spec,
                    bits.parse::<usize>()
                        .map_err(|_| format!("invalid secret length in profile `{token}`"))?,
                ),
                None => (token, default_bits),
            };
            KeyProfile::parse(spec, bits).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    if profiles.is_empty() {
        return Err("--profiles needs at least one profile".to_string());
    }
    Ok(profiles)
}
