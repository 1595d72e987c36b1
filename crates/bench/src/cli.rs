//! The command-line layer every `pufbench` binary goes through.
//!
//! It owns the conventions the binaries share:
//!
//! * exit 0 on success, and on `--help`/`-h` (the usage text goes to
//!   stderr);
//! * exit 1 when the work itself fails: an unreadable input, a refused
//!   resume, an I/O error;
//! * exit 2 on a usage error: an unknown flag, a flag without its value, a
//!   malformed value, or a zero where a count must be positive.
//!
//! Besides the [`Args`] flag cursor it holds the start-up and shutdown
//! steps more than one binary needs: the campaign start (fresh or resumed
//! from a checkpoint), the `--io-faults` policy, opening a record file, and
//! writing the `--metrics-out` snapshot.

use pufobs::Instruments;
use puftestbed::store::{
    checkpoint, AnyRecordReader, BinaryRecordReader, IoFaultPlan, IoPolicy, ParallelRecordReader,
    RecordFormat,
};
use puftestbed::{Campaign, CampaignConfig};
use std::fmt::Display;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::exit;
use std::str::FromStr;

/// A cursor over a binary's arguments: [`next_flag`](Self::next_flag)
/// yields each flag, and the value accessors consume the argument after
/// it, exiting 2 with a usage message when it is missing or malformed.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    rest: std::vec::IntoIter<String>,
    flag: String,
}

impl Args {
    /// The process's own arguments (without the program name).
    pub fn from_env(usage: &'static str) -> Self {
        Self::new(usage, std::env::args().skip(1).collect())
    }

    /// A cursor over `args`; `usage` is what `--help` prints.
    pub fn new(usage: &'static str, args: Vec<String>) -> Self {
        Self {
            usage,
            rest: args.into_iter(),
            flag: String::new(),
        }
    }

    /// The next flag, or `None` once every argument is consumed. `--help`
    /// and `-h` print the usage text to stderr and exit 0.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.rest.next()?;
        if self.flag == "--help" || self.flag == "-h" {
            eprintln!("{}", self.usage);
            exit(0);
        }
        Some(self.flag.clone())
    }

    /// The current flag's value, verbatim.
    pub fn value(&mut self) -> String {
        self.rest
            .next()
            .unwrap_or_else(|| usage_error(format!("{} needs a value", self.flag)))
    }

    /// The current flag's value, parsed.
    pub fn parse<T: FromStr>(&mut self) -> T {
        self.parse_with(|v| v.parse().ok())
    }

    /// The current flag's value, converted by `parse` (`None` rejects it).
    pub fn parse_with<T>(&mut self, parse: impl FnOnce(&str) -> Option<T>) -> T {
        let value = self.value();
        parse(&value)
            .unwrap_or_else(|| usage_error(format!("invalid value `{value}` for {}", self.flag)))
    }

    /// The current flag's value as a count that must not be zero.
    pub fn positive<T: FromStr + Default + PartialEq>(&mut self) -> T {
        let n = self.parse();
        if n == T::default() {
            usage_error(format!("{} must be positive", self.flag));
        }
        n
    }

    /// Rejects the current flag as one this binary does not take.
    pub fn unknown(&self) -> ! {
        usage_error(format!("unknown argument `{}` (try --help)", self.flag))
    }
}

/// Prints `message` to stderr and exits 2 (a usage error).
pub fn usage_error(message: impl Display) -> ! {
    eprintln!("{message}");
    exit(2)
}

/// Prints `message` to stderr and exits 1 (the work itself failed).
pub fn fail(message: impl Display) -> ! {
    eprintln!("{message}");
    exit(1)
}

/// Builds the campaign to run: resumed from the `pufchk/2` checkpoint at
/// `resume_from` when one is given, else fresh. Also returns how many
/// records the interrupted run already wrote (0 for a fresh start) — the
/// count [`reopen_for_resume`](crate::reopen_for_resume) must salvage.
///
/// A checkpoint that cannot be read, or that does not match `config` and
/// `seed`, exits 1 before any output file is touched, so a refused resume
/// leaves the partial output alone.
pub fn start_campaign(
    config: CampaignConfig,
    seed: u64,
    resume_from: Option<&str>,
) -> (Campaign, u64) {
    let Some(path) = resume_from else {
        return (Campaign::new(config, seed), 0);
    };
    let (campaign, state) = checkpoint::read_file(Path::new(path))
        .and_then(|state| Ok((Campaign::resume(config, seed, &state)?, state)))
        .unwrap_or_else(|e| fail(format!("cannot resume from {path}: {e}")));
    eprintln!(
        "resuming at window {} with {} records already on disk",
        state.next_window, state.summary.records
    );
    (campaign, state.summary.records)
}

/// Loads the `--io-faults` storage fault plan at `path` into the policy the
/// output, checkpoint and salvage I/O route through, salted by
/// `incarnation` and counted in `obs`. `None` without a plan. An
/// unreadable or invalid plan exits 1.
pub fn io_policy(
    path: Option<&str>,
    incarnation: u64,
    obs: Option<&Instruments>,
) -> Option<IoPolicy> {
    let path = path?;
    let plan = IoFaultPlan::load(Path::new(path))
        .unwrap_or_else(|e| fail(format!("cannot load I/O fault plan {path}: {e}")));
    let policy = IoPolicy::new(plan, incarnation);
    Some(match obs {
        Some(ins) => policy.instruments(ins),
        None => policy,
    })
}

/// Opens `path` for buffered reading; exits 1 if it cannot be opened.
pub fn open_input(path: &str) -> BufReader<File> {
    File::open(path)
        .map(BufReader::new)
        .unwrap_or_else(|e| fail(format!("cannot open {path}: {e}")))
}

/// Streams the record file at `input` through the parallel reader in
/// `format`, or in the format its first bytes announce when `None`. Exits 1
/// if the file cannot be opened or sniffed.
pub fn open_records(
    input: &str,
    format: Option<RecordFormat>,
    threads: usize,
    batch: usize,
    obs: Option<&Instruments>,
) -> AnyRecordReader {
    let file = open_input(input);
    match format {
        None => AnyRecordReader::open(file, threads, batch, obs)
            .unwrap_or_else(|e| fail(format!("cannot read {input}: {e}"))),
        Some(RecordFormat::Json) => {
            AnyRecordReader::Json(ParallelRecordReader::spawn_with(file, threads, batch, obs))
        }
        Some(RecordFormat::Binary) => {
            AnyRecordReader::Binary(BinaryRecordReader::spawn_with(file, threads, batch, obs))
        }
    }
}

/// Writes the `--metrics-out` snapshot of `obs` to `path` when both are
/// given — one `pufobs/1` JSON document with a trailing newline — and
/// reports the outcome on stderr. Returns `false` only if the write failed.
pub fn write_metrics(path: Option<&str>, obs: Option<&Instruments>) -> bool {
    let (Some(path), Some(ins)) = (path, obs) else {
        return true;
    };
    let mut json = ins.snapshot().to_json();
    json.push('\n');
    match std::fs::write(path, json) {
        Ok(()) => {
            eprintln!("wrote metrics snapshot to {path}");
            true
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            false
        }
    }
}
