//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--scale smoke|small|paper] [--seed N] [--threads N] \
//!       [--records-out FILE] [--format json|binary] [--out-dir DIR] \
//!       [--metrics-out FILE] [--verbose] \
//!       [--checkpoint-out FILE] [--checkpoint-every N] \
//!       [--resume-from FILE] [--halt-after-windows N] \
//!       [--io-faults FILE] \
//!       [--fig3] [--fig4] [--fig5] [--fig6] [--table1] [--accel]
//!       [--keylife] [--all]
//! ```
//!
//! Artifacts are printed to stdout; `--fig4` additionally writes
//! `fig4_startup_pattern.pgm` under `--out-dir` (default `examples/out`,
//! created on demand). The campaign artifacts (`--fig5`, `--fig6`,
//! `--table1`, `--keylife`) share one campaign pass: its records fold into
//! the assessment and the key-lifetime workload as they are emitted, the
//! latter sharded by device over `--threads` workers.
//! `--records-out` tees the same records to a file in the chosen `--format`
//! (default json) — re-assessing that file, or running `keylife` over it,
//! reproduces the printed tables. `--metrics-out` dumps the `pufobs`
//! pipeline snapshot (campaign and accumulator counters) as JSON after the
//! run; `--verbose` prints a once-per-second progress heartbeat to stderr.
//! None of these change the printed artifacts by a byte.
//!
//! `--checkpoint-out`/`--checkpoint-every` write `pufchk/2` checkpoints at
//! window boundaries. `--resume-from` continues a halted or killed run and
//! reproduces the uninterrupted run's records and tables exactly,
//! key-lifetime table included. It needs `--records-out`: the records the
//! interrupted run already wrote are salvaged from that file and replayed
//! into both workloads.
//! `--halt-after-windows` stops the campaign early but resumable.
//!
//! `--io-faults FILE` loads a deterministic storage fault plan (see
//! `puftestbed::store::iofault`) injected into the `--records-out`,
//! checkpoint, and resume-salvage I/O; without the flag every artifact is
//! byte-identical to a build without the fault layer.

use pufassess::report::{self, Series};
use pufassess::streaming::WindowAccumulator;
use pufassess::{visualize, Assessment, ShardedKeyLife};
use pufbench::cli::{self, Args};
use pufbench::{campaign_total_cycles, default_threads, metrics, reopen_for_resume, Scale};
use pufobs::Instruments;
use puftestbed::store::{RecordFormat, RecordSink, TeeSink};
use puftestbed::{PowerWaveform, Record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sramaging::accelerated;
use sramcell::{Environment, SramArray, TechnologyProfile};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::process::exit;

const USAGE: &str = "usage: repro [--scale smoke|small|paper] [--seed N] [--threads N] \
                     [--records-out FILE] [--format json|binary] [--out-dir DIR] \
                     [--metrics-out FILE] [--verbose] \
                     [--checkpoint-out FILE] [--checkpoint-every N] \
                     [--resume-from FILE] [--halt-after-windows N] [--io-faults FILE] \
                     [--fig3] [--fig4] [--fig5] [--fig6] [--table1] [--accel] \
                     [--keylife] [--all]";

/// Every artifact, each selected by its own `--NAME` flag; none selected
/// means all of them.
const ARTIFACTS: [&str; 7] = ["fig3", "fig4", "fig5", "fig6", "table1", "accel", "keylife"];

fn main() {
    let mut scale = Scale::Small;
    let mut seed = 2017;
    let mut threads = default_threads();
    let mut records_out: Option<String> = None;
    let mut format = RecordFormat::Json;
    let mut out_dir = String::from("examples/out");
    let mut metrics_out: Option<String> = None;
    let mut verbose = false;
    let mut checkpoint_out: Option<String> = None;
    let mut checkpoint_every: u32 = 0;
    let mut resume_from: Option<String> = None;
    let mut halt_after: Option<u32> = None;
    let mut io_faults_from: Option<String> = None;
    let mut artifacts: BTreeSet<&'static str> = BTreeSet::new();

    let mut args = Args::from_env(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--scale" => scale = args.parse_with(Scale::parse),
            "--seed" => seed = args.parse(),
            "--threads" => threads = args.positive(),
            "--records-out" => records_out = Some(args.value()),
            "--format" => format = args.parse(),
            "--metrics-out" => metrics_out = Some(args.value()),
            "--out-dir" => out_dir = args.value(),
            "--checkpoint-out" => checkpoint_out = Some(args.value()),
            "--checkpoint-every" => checkpoint_every = args.parse(),
            "--resume-from" => resume_from = Some(args.value()),
            "--halt-after-windows" => halt_after = Some(args.parse()),
            "--io-faults" => io_faults_from = Some(args.value()),
            "--verbose" => verbose = true,
            "--all" => artifacts.extend(ARTIFACTS),
            other => {
                let name = other.strip_prefix("--").unwrap_or_default();
                match ARTIFACTS.into_iter().find(|&a| a == name) {
                    Some(artifact) => artifacts.insert(artifact),
                    None => args.unknown(),
                };
            }
        }
    }
    if artifacts.is_empty() {
        artifacts.extend(ARTIFACTS);
    }
    if checkpoint_every > 0 && checkpoint_out.is_none() {
        cli::usage_error("--checkpoint-every needs --checkpoint-out FILE");
    }
    if checkpoint_out.is_some() && checkpoint_every == 0 {
        checkpoint_every = 1;
    }
    if resume_from.is_some() && records_out.is_none() {
        cli::usage_error(
            "--resume-from needs --records-out FILE (the already-measured head of the \
             record stream is salvaged from it to rebuild the assessment and key-lifetime state)",
        );
    }

    // Figures 3 and 4 and the accelerated comparison need no campaign.
    if artifacts.contains("fig3") {
        fig3();
    }
    if artifacts.contains("fig4") {
        fig4(seed, &out_dir);
    }
    if artifacts.contains("accel") {
        accel();
    }

    // Instruments are created whenever anything will consume them; the
    // pipeline output is identical either way.
    let obs = (metrics_out.is_some() || verbose).then(Instruments::new);
    let io_policy = cli::io_policy(io_faults_from.as_deref(), 0, obs.as_ref());

    // One campaign pass feeds every workload the selected artifacts need.
    let assess = ["fig5", "fig6", "table1"]
        .iter()
        .any(|a| artifacts.contains(a));
    let keylife = artifacts.contains("keylife");
    if assess || keylife {
        eprintln!("running campaign at {scale:?} scale (seed {seed}, {threads} threads)…");
        let config = scale.campaign_config();
        let heartbeat = obs.as_ref().filter(|_| verbose).map(|ins| {
            metrics::spawn_heartbeat(ins, metrics::campaign_spec(campaign_total_cycles(&config)))
        });
        let declared_bits = u32::try_from(config.read_bits).unwrap_or(0);
        let (campaign, on_disk) = cli::start_campaign(config, seed, resume_from.as_deref());
        let mut campaign = campaign.threads(threads);
        if let Some(ins) = &obs {
            campaign = campaign.instruments(ins);
        }
        if let Some(ckpt) = &checkpoint_out {
            campaign = campaign.checkpoints(checkpoint_every, ckpt);
        }
        if let Some(policy) = &io_policy {
            campaign = campaign.io_policy(policy.clone());
        }
        if let Some(n) = halt_after {
            campaign = campaign.halt_after_windows(n);
        }
        // Streamed: records fold into the workloads as the campaign emits
        // them, so even paper scale never holds the dataset in memory.
        let mut workloads = Workloads {
            assess: assess.then(|| {
                let mut accumulator = WindowAccumulator::new(scale.protocol());
                if let Some(ins) = &obs {
                    accumulator.attach_instruments(ins);
                }
                accumulator
            }),
            keylife: keylife
                .then(|| ShardedKeyLife::new(&scale.keylife_config(seed), threads, obs.as_ref())),
        };
        match records_out.as_deref() {
            Some(path) => {
                // On resume, the salvage pass replays the head of the
                // stream into the workloads, so they see the complete
                // campaign despite the interruption.
                let mut sink = reopen_for_resume(
                    path,
                    format,
                    declared_bits,
                    on_disk,
                    Some(&mut workloads),
                    io_policy.clone(),
                )
                .unwrap_or_else(|e| cli::fail(format!("cannot open {path}: {e}")));
                campaign
                    .run(&mut TeeSink::new(&mut workloads, &mut sink))
                    .unwrap_or_else(|e| {
                        cli::fail(format!("recording records to {path} failed: {e}"))
                    });
                let written = sink.written();
                sink.finish()
                    .unwrap_or_else(|e| cli::fail(format!("flush of {path} failed: {e}")));
                eprintln!("wrote {written} records to {path} ({format} format)");
            }
            None => {
                campaign
                    .run(&mut workloads)
                    .unwrap_or_else(|e| cli::fail(format!("campaign failed: {e}")));
            }
        }
        drop(heartbeat);
        if !campaign.completed() {
            let summary = campaign.summary_so_far();
            eprintln!(
                "halted after {} windows ({} records so far); continue with \
                 --resume-from {} to finish and print the tables",
                summary.windows,
                summary.records,
                checkpoint_out.as_deref().unwrap_or("<checkpoint>")
            );
            // The snapshot must not race the workers still folding.
            if let Some(fold) = workloads.keylife {
                fold.finish();
            }
            if !cli::write_metrics(metrics_out.as_deref(), obs.as_ref()) {
                exit(1);
            }
            return;
        }
        if let Some(accumulator) = workloads.assess {
            let assessment = accumulator
                .finish()
                .expect("built-in scales produce assessable datasets");
            print_assessment(&artifacts, &assessment);
        }
        if let Some(fold) = workloads.keylife {
            let life = fold
                .finish()
                .finish()
                .expect("built-in scales produce evaluable datasets");
            println!("\n=== key-lifetime workload (enroll month 0, replay the rest) ===\n");
            print!("{}", life.render_table());
        }
    }

    if !cli::write_metrics(metrics_out.as_deref(), obs.as_ref()) {
        exit(1);
    }
}

/// The workloads one campaign pass feeds: the assessment behind Fig. 5,
/// Fig. 6 and Table I, and the key-lifetime workload, each present only
/// when a selected artifact needs it.
struct Workloads {
    assess: Option<WindowAccumulator>,
    keylife: Option<ShardedKeyLife>,
}

impl RecordSink for Workloads {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        if let Some(accumulator) = &mut self.assess {
            accumulator.push(record);
        }
        if let Some(fold) = &mut self.keylife {
            fold.push(record.clone());
        }
        Ok(())
    }
}

fn print_assessment(artifacts: &BTreeSet<&str>, assessment: &Assessment) {
    if artifacts.contains("fig5") {
        println!("\n=== Fig. 5: fractional HD / HW distributions at the start ===\n");
        println!("{}", report::fig5_text(assessment.initial_quality(), 48));
    }
    if artifacts.contains("fig6") {
        println!("\n=== Fig. 6: development of qualities over the aging test ===\n");
        for series in [
            Series::Wchd,
            Series::Fhw,
            Series::NoiseEntropy,
            Series::PufEntropy,
        ] {
            println!("{}", report::fig6_text(assessment, series, 40));
        }
    }
    if artifacts.contains("table1") {
        println!("\n=== Table I ===\n");
        println!("{}", assessment.table1().render());
    }
}

fn fig3() {
    println!("=== Fig. 3: power waveforms (5.4 s period, 3.8 s on) ===\n");
    let l0 = PowerWaveform::paper_layer(0);
    let l1 = PowerWaveform::paper_layer(1);
    let dt = 0.15;
    for (name, w) in [("S3/S4  (layer 0)", l0), ("S19/S20 (layer 1)", l1)] {
        let trace: String = w
            .trace(0.0, 16.2, dt)
            .iter()
            .map(|&(_, on)| if on { '▔' } else { '▁' })
            .collect();
        println!("{name}: {trace}");
    }
    println!(
        "\nperiod {:.1} s, on {:.1} s, off {:.1} s, duty {:.3}",
        l0.period_s(),
        l0.on_s(),
        l0.off_s(),
        l0.duty()
    );
}

fn fig4(seed: u64, out_dir: &str) {
    println!("\n=== Fig. 4: start-up pattern of board S0 (1 KB) ===\n");
    let mut rng = StdRng::seed_from_u64(seed);
    let profile = TechnologyProfile::atmega32u4();
    let sram = SramArray::generate(&profile, 8 * 1024, &mut rng);
    let pattern = sram.power_up(&Environment::nominal(&profile), &mut rng);
    // Print a 64-bit-wide excerpt (the first 2 KiBit) to keep stdout sane.
    let excerpt = pattern.prefix(2048);
    println!("{}", visualize::ascii_raster(&excerpt, 64));
    println!(
        "fractional Hamming weight of the full pattern: {:.4}",
        pattern.fractional_hamming_weight()
    );
    let image = visualize::pgm_image(&pattern, 128);
    let target = Path::new(out_dir).join("fig4_startup_pattern.pgm");
    let write = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&target, &image));
    match write {
        Ok(()) => println!("wrote {} ({} bytes)", target.display(), image.len()),
        Err(e) => eprintln!("could not write {}: {e}", target.display()),
    }
}

fn accel() {
    println!("\n=== Nominal vs accelerated aging (paper §IV-D / §V) ===\n");
    let (nominal, accelerated_study) = accelerated::comparison(24);
    for study in [&nominal, &accelerated_study] {
        println!(
            "{:<24} WCHD {:.2}% → {:.2}%  ({:+.2}%/month compound)",
            study.label,
            study.start_wchd() * 100.0,
            study.end_wchd() * 100.0,
            study.monthly_wchd_rate * 100.0,
        );
    }
    println!(
        "\naccelerated/nominal monthly-rate ratio: {:.2}× (paper: 1.28/0.74 ≈ 1.73×)",
        accelerated_study.monthly_wchd_rate / nominal.monthly_wchd_rate
    );
}
