//! Golden-file regression tests: the fixed-seed smoke-scale pipeline must
//! reproduce the committed Table I, aggregate CSV, and Fig. 6 summary
//! *string-exactly*, and a two-year binary campaign must reproduce the
//! committed 64-bit digest of its record file. Any drift in the cell model,
//! aging, campaign engine, merge order, record encoding, statistics, or
//! report formatting shows up as a diff here.
//!
//! When an intentional change moves the numbers, regenerate the files and
//! review the diff like any other code change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p pufbench --test golden
//! ```

use pufassess::report::{self, Series};
use pufbench::{run_assessment_streaming, Scale};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed golden file, or rewrites the
/// file when `GOLDEN_UPDATE=1` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with GOLDEN_UPDATE=1 cargo test -p pufbench --test golden",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the golden copy; if the change is intentional, \
         regenerate with GOLDEN_UPDATE=1 and review the diff",
    );
}

#[test]
fn fixed_seed_smoke_pipeline_matches_the_golden_files() {
    // Two threads on purpose: the goldens also lock in that the sharded
    // campaign and the deterministic merge stay thread-count invariant.
    let assessment = run_assessment_streaming(Scale::Smoke, 2017, 2);

    check_golden("table1.txt", &assessment.table1().render());
    check_golden("aggregates.csv", &report::aggregate_csv(&assessment));
    check_golden(
        "fig6_wchd.txt",
        &report::fig6_text(&assessment, Series::Wchd, 40),
    );
}

/// FNV-1a 64 over a whole byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn two_year_binary_campaign_matches_the_golden_record_digest() {
    // Every read spans the full 24 months of aging, so a single flipped
    // record bit anywhere in the aging, power-up or encode path changes the
    // digest, even where the rounded assessment text above would not.
    let out =
        std::env::temp_dir().join(format!("pufgolden_{}_two_year.pufrec", std::process::id()));
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--out", out.to_str().unwrap()])
        .args(["--format", "binary", "--boards", "4", "--months", "24"])
        .args(["--reads", "4", "--read-bits", "8192", "--seed", "2017"])
        .args(["--threads", "2"])
        .output()
        .expect("campaign binary runs");
    assert!(
        run.status.success(),
        "campaign failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let bytes = std::fs::read(&out).expect("record file written");
    std::fs::remove_file(&out).ok();
    check_golden(
        "two_year_records.fnv64",
        &format!("{:016x}\n", fnv1a64(&bytes)),
    );
}
