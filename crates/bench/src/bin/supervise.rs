//! Runs a campaign under the crash-restarting supervisor.
//!
//! ```text
//! supervise [--max-restarts N] [--backoff-ms N] [--max-backoff-ms N]
//!           [--stall-timeout-s N] [--poll-ms N] [--metrics-out FILE]
//!           -- CAMPAIGN-COMMAND…
//! ```
//!
//! Everything after `--` is the child command, normally the `campaign`
//! binary with its own flags. It must include `--checkpoint-out FILE`
//! (the restart point); it must *not* include `--resume-from` or
//! `--io-incarnation` — the supervisor appends those itself for every
//! incarnation, resuming from the newest checkpoint generation that still
//! verifies (damaged ones are quarantined as `<gen>.quarantined-<n>` and
//! an older generation is used instead; give the child
//! `--checkpoint-keep K` to retain fallback generations).
//!
//! A child that exits non-zero — an injected I/O fault, a real disk
//! error, an external `kill -9` — is restarted after a capped exponential
//! backoff, up to `--max-restarts` times. A child whose output and
//! checkpoint files all stay untouched for `--stall-timeout-s` is killed
//! and restarted the same way. Because the campaign's resume path replays
//! exactly the records the checkpoint claims and discards any torn tail,
//! the supervised run's final output is byte-identical to an
//! uninterrupted run.
//!
//! `--metrics-out` writes the `supervisor.*` counters as a `pufobs/1`
//! snapshot; `supervisor.restarts == supervisor.child_exits -
//! supervisor.clean_exits` holds for every supervised run that completes.
//! Exits 0 when the child completed, 1 when the restart budget ran out.

use pufbench::cli::{self, Args};
use pufbench::supervisor::{self, ChildSpec, Outcome, SupervisorConfig};
use pufobs::Instruments;
use std::time::Duration;

const USAGE: &str = "usage: supervise [--max-restarts N] [--backoff-ms N] \
                     [--max-backoff-ms N] [--stall-timeout-s N] [--poll-ms N] \
                     [--metrics-out FILE] -- CAMPAIGN-COMMAND…";

fn main() {
    let mut config = SupervisorConfig::default();
    let mut metrics_out: Option<String> = None;

    let mut own: Vec<String> = std::env::args().skip(1).collect();
    let child = match own.iter().position(|a| a == "--") {
        Some(at) => own.split_off(at).split_off(1),
        None => Vec::new(),
    };

    let mut args = Args::new(USAGE, own);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--max-restarts" => config.max_restarts = args.parse(),
            "--backoff-ms" => config.backoff = Duration::from_millis(args.parse()),
            "--max-backoff-ms" => config.max_backoff = Duration::from_millis(args.parse()),
            "--stall-timeout-s" => config.stall_timeout = Duration::from_secs(args.parse()),
            "--poll-ms" => config.poll = Duration::from_millis(args.parse()),
            "--metrics-out" => metrics_out = Some(args.value()),
            _ => args.unknown(),
        }
    }
    let spec = ChildSpec::parse(&child)
        .unwrap_or_else(|e| cli::usage_error(format!("bad child command: {e} (try --help)")));

    let obs = metrics_out.as_ref().map(|_| Instruments::new());
    let outcome = supervisor::run(&spec, &config, obs.as_ref())
        .unwrap_or_else(|e| cli::fail(format!("cannot run {}: {e}", spec.program)));
    // Best effort: the exit code reports the supervised run, not the
    // snapshot.
    cli::write_metrics(metrics_out.as_deref(), obs.as_ref());
    match outcome {
        Outcome::Completed { restarts } => {
            eprintln!("supervise: child completed after {restarts} restart(s)");
        }
        Outcome::BudgetExhausted { restarts } => cli::fail(format!(
            "supervise: giving up — restart budget of {restarts} exhausted without a \
             clean exit"
        )),
    }
}
