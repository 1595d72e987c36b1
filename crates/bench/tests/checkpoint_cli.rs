//! CLI-level checkpoint/resume tests: an interrupted `campaign` run,
//! resumed from its `pufchk/2` checkpoint, must write a record file
//! byte-identical to the uninterrupted run — across output formats and
//! thread counts — and refuse mismatched or damaged checkpoints. `repro`
//! resumes the same way, with every campaign artifact (the assessment
//! tables and the key-lifetime table) as if never interrupted.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pufchk_cli_{}_{name}", std::process::id()))
}

fn campaign_args(out: &Path, format: &str, seed: &str, threads: &str) -> Vec<String> {
    [
        "--out",
        out.to_str().unwrap(),
        "--format",
        format,
        "--boards",
        "4",
        "--months",
        "3",
        "--reads",
        "12",
        "--read-bits",
        "192",
        "--seed",
        seed,
        "--nack-rate",
        "0.05",
        "--threads",
        threads,
    ]
    .into_iter()
    .map(String::from)
    .collect()
}

fn run_campaign(extra: &[&str], base: Vec<String>) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(base)
        .args(extra)
        .output()
        .expect("campaign binary runs")
}

#[test]
fn interrupted_then_resumed_run_is_byte_identical() {
    for format in ["json", "binary"] {
        let reference = temp_path(&format!("ref.{format}"));
        let out = run_campaign(&[], campaign_args(&reference, format, "77", "2"));
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let reference_bytes = std::fs::read(&reference).expect("reference written");

        for (threads_before, threads_after) in [("1", "4"), ("4", "1")] {
            let resumed = temp_path(&format!("res_{threads_before}{threads_after}.{format}"));
            let ckpt = temp_path(&format!("ckpt_{threads_before}{threads_after}.{format}"));
            // Run 2 of the 4 windows, checkpointing every window, then halt.
            let out = run_campaign(
                &[
                    "--checkpoint-out",
                    ckpt.to_str().unwrap(),
                    "--checkpoint-every",
                    "1",
                    "--halt-after-windows",
                    "2",
                ],
                campaign_args(&resumed, format, "77", threads_before),
            );
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                String::from_utf8_lossy(&out.stderr).contains("halted after 2 windows"),
                "halt message missing"
            );
            // Resume with a different thread count and finish.
            let out = run_campaign(
                &["--resume-from", ckpt.to_str().unwrap()],
                campaign_args(&resumed, format, "77", threads_after),
            );
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let resumed_bytes = std::fs::read(&resumed).expect("resumed output written");
            assert_eq!(
                resumed_bytes, reference_bytes,
                "resume diverged ({format}, {threads_before}→{threads_after} threads)"
            );
            std::fs::remove_file(&resumed).ok();
            std::fs::remove_file(&ckpt).ok();
        }
        std::fs::remove_file(&reference).ok();
    }
}

#[test]
fn resume_salvages_a_torn_tmp_like_a_killed_process_leaves() {
    let reference = temp_path("kill_ref.jsonl");
    let out = run_campaign(&[], campaign_args(&reference, "json", "31", "2"));
    assert!(out.status.success());
    let reference_bytes = std::fs::read(&reference).expect("reference written");

    let resumed = temp_path("kill_res.jsonl");
    let ckpt = temp_path("kill_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "2",
        ],
        campaign_args(&resumed, "json", "31", "2"),
    );
    assert!(out.status.success());
    // A kill -9 mid-run leaves the records in `<out>.tmp` (the atomic
    // write never renamed) — recreate that state from the halted run's
    // published file.
    let tmp = PathBuf::from(format!("{}.tmp", resumed.display()));
    std::fs::rename(&resumed, &tmp).expect("simulate torn output");
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&resumed, "json", "31", "3"),
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read(&resumed).unwrap(), reference_bytes);
    assert!(!tmp.exists(), "salvaged tmp must be consumed");
    std::fs::remove_file(&reference).ok();
    std::fs::remove_file(&resumed).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_with_wrong_seed_is_refused() {
    let out_file = temp_path("wrong_seed.jsonl");
    let ckpt = temp_path("wrong_seed_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(out.status.success());
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&out_file, "json", "43", "2"), // seed changed
    );
    assert!(!out.status.success(), "wrong seed must be refused");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("config mismatch"),
        "typed refusal expected, got: {stderr}"
    );
    std::fs::remove_file(&out_file).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_with_changed_config_is_refused() {
    let out_file = temp_path("wrong_cfg.jsonl");
    let ckpt = temp_path("wrong_cfg_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(out.status.success());
    let mut changed = campaign_args(&out_file, "json", "42", "2");
    let months_at = changed.iter().position(|a| a == "--months").unwrap();
    changed[months_at + 1] = "5".into(); // one more month than the original
    let out = run_campaign(&["--resume-from", ckpt.to_str().unwrap()], changed);
    assert!(!out.status.success(), "changed config must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("config mismatch"));
    std::fs::remove_file(&out_file).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn corrupt_checkpoint_is_refused() {
    let out_file = temp_path("corrupt.jsonl");
    let ckpt = temp_path("corrupt_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(out.status.success());
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(!out.status.success(), "corrupt checkpoint must be refused");
    assert!(String::from_utf8_lossy(&out.stderr).contains("corrupt checkpoint"));
    std::fs::remove_file(&out_file).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn pufchk_1_checkpoint_is_refused_and_leaves_the_output_alone() {
    let out_file = temp_path("v1.jsonl");
    let ckpt = temp_path("v1_ckpt");
    let out = run_campaign(
        &[
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
            "--halt-after-windows",
            "1",
        ],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert!(out.status.success());
    let partial = std::fs::read(&out_file).expect("halted run published its records");
    // Relabel the checkpoint as version 1; the CRC covers the body only,
    // so the frame stays valid and only the version check can refuse it.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    bytes[6..8].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = run_campaign(
        &["--resume-from", ckpt.to_str().unwrap()],
        campaign_args(&out_file, "json", "42", "2"),
    );
    assert_eq!(out.status.code(), Some(1), "a pufchk/1 file must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported checkpoint version 1"),
        "typed refusal expected, got: {stderr}"
    );
    assert_eq!(std::fs::read(&out_file).unwrap(), partial);
    assert!(!PathBuf::from(format!("{}.tmp", out_file.display())).exists());
    std::fs::remove_file(&out_file).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn checkpoint_every_without_out_is_an_error() {
    let out_file = temp_path("lonely_every.jsonl");
    let out = run_campaign(
        &["--checkpoint-every", "2"],
        campaign_args(&out_file, "json", "42", "1"),
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint-out"));
}

/// `repro` at smoke scale, seed 9, with `extra` flags.
fn repro(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "smoke", "--seed", "9", "--threads", "2"])
        .args(extra)
        .output()
        .expect("repro runs")
}

#[test]
fn repro_keylife_writes_records_out_that_replay_to_the_same_table() {
    let records = temp_path("repro_keylife.jsonl");
    let out = repro(&["--keylife", "--records-out", records.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(records.exists(), "--keylife must honour --records-out");

    // The key-lifetime table repro printed is the one the keylife binary
    // computes from the records repro wrote.
    let replay = Command::new(env!("CARGO_BIN_EXE_keylife"))
        .args(["--in", records.to_str().unwrap(), "--reads", "50"])
        .args(["--profiles", "golay-r5@12,polar-128-16@16", "--seed", "9"])
        .output()
        .expect("keylife runs");
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(!replay.stdout.is_empty());
    assert!(
        out.stdout.ends_with(&replay.stdout),
        "repro's key-lifetime table differs from a replay of its records"
    );
    std::fs::remove_file(&records).ok();
}

/// A halted `repro` run prints nothing; resumed (at another thread count)
/// it prints exactly what an uninterrupted run prints, for the assessment
/// tables and the key-lifetime table alike.
#[test]
fn repro_halt_and_resume_reproduces_the_reference_tables() {
    let artifact_sets: [&[&str]; 3] = [&["--table1"], &["--table1", "--keylife"], &["--keylife"]];
    for artifacts in artifact_sets {
        let reference = repro(artifacts);
        assert!(reference.status.success());

        let records = temp_path("repro.jsonl");
        let ckpt = temp_path("repro_ckpt");
        let files = [
            "--records-out",
            records.to_str().unwrap(),
            "--checkpoint-out",
            ckpt.to_str().unwrap(),
        ];
        let halted = repro(&[artifacts, &files, &["--halt-after-windows", "3"]].concat());
        assert!(
            halted.status.success(),
            "{}",
            String::from_utf8_lossy(&halted.stderr)
        );
        assert!(
            halted.stdout.is_empty(),
            "{artifacts:?}: a halted run prints no tables, got {}",
            String::from_utf8_lossy(&halted.stdout)
        );
        assert!(
            ckpt.exists(),
            "{artifacts:?}: halted run left no checkpoint"
        );

        let resumed = repro(
            &[
                artifacts,
                &["--records-out", records.to_str().unwrap()],
                &["--resume-from", ckpt.to_str().unwrap()],
                &["--threads", "4"],
            ]
            .concat(),
        );
        assert!(
            resumed.status.success(),
            "{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&resumed.stdout),
            String::from_utf8_lossy(&reference.stdout),
            "{artifacts:?}: resumed run diverged from the uninterrupted one"
        );
        std::fs::remove_file(&records).ok();
        std::fs::remove_file(&ckpt).ok();
    }
}
