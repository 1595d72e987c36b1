//! Per-layer timings for the perfbench workloads.
//!
//! Every layer is timed from outside, by wrapping calls into the public
//! functions of the crate that owns it; nothing inside the program under
//! test is changed. Each subcommand prints one JSON object of raw counts and
//! nanosecond totals on stdout; `perfbench/run.py` turns them into the
//! per-layer metrics.
//!
//! ```text
//! layertrace campaign     --out F --format json|binary --boards B --months M --reads R
//!                         --seed S --threads T [--checkpoint-out C]
//! layertrace probe-board  --boards B --months M --reads R --seed S --checkpoints N
//! layertrace assess       --in F --reads R --threads T --report F
//! layertrace keylife      --in F --reads R --threads T --profiles P --report F
//! layertrace probe-store  --in F
//! layertrace probe-keygen --in F --profiles P
//! layertrace exec         --stdout F --stderr F -- PROGRAM [ARG]...
//! ```
//!
//! `exec` runs one program and prints its wall time, CPU time and peak RSS.
//! The harness starts every timed program through it: a child's peak RSS
//! includes the memory of the process that spawned it (the spawn shares the
//! parent's address space until `exec`), so the spawner must be this small
//! process rather than the harness's interpreter. With exactly one child,
//! `getrusage(RUSAGE_CHILDREN)` is that child's own usage.
//!
//! `campaign`, `assess` and `keylife` run the real pipelines (the same calls
//! the release binaries make) with timing wrappers around the sink, the
//! reader and the accumulators. The private per-board shard of the campaign
//! cannot be wrapped, so `probe-board` drives the public `SlaveBoard`,
//! `PowerUpKernel` and `I2cBus` through one board's full schedule, and times
//! `checkpoint::encode` on a state of the campaign's size. `probe-store` and
//! `probe-keygen` time the record codec and the key generators per call.

use pufassess::fit;
use pufassess::monthly::EvaluationProtocol;
use pufassess::report::{self, Series};
use pufassess::{KeyLifeAccumulator, KeyLifeConfig, KeyProfile, WindowAccumulator};
use pufbench::FormatSink;
use pufbits::PufRng;
use pufkeygen::{Enrollment, KeyGenerator};
use puftestbed::i2c::{Address, I2cBus};
use puftestbed::store::binary::{crc32, FileHeader, HEADER_LEN};
use puftestbed::store::{checkpoint, AnyRecordReader, RecordFormat, DEFAULT_BATCH_LINES};
use puftestbed::{
    board_stream_seed, BoardId, Campaign, CampaignConfig, Record, RecordSink, SlaveBoard,
};
use rand::SeedableRng;
use sramcell::PowerUpKernel;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader};
use std::process::exit;
use std::sync::mpsc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        fail("usage: layertrace <campaign|probe-board|assess|keylife|probe-store|probe-keygen|exec> [--flag value]...");
    };
    if command == "exec" {
        let split = rest
            .iter()
            .position(|a| a == "--")
            .unwrap_or_else(|| fail("exec needs `--`"));
        let flags = Flags::parse(&rest[..split]);
        println!("{}", exec(&flags, &rest[split + 1..]).json());
        return;
    }
    let flags = Flags::parse(rest);
    let out = match command.as_str() {
        "campaign" => campaign(&flags),
        "probe-board" => probe_board(&flags),
        "assess" => assess(&flags),
        "keylife" => keylife(&flags),
        "probe-store" => probe_store(&flags),
        "probe-keygen" => probe_keygen(&flags),
        other => fail(&format!("unknown subcommand `{other}`")),
    };
    println!("{}", out.json());
}

fn fail(message: &str) -> ! {
    eprintln!("layertrace: {message}");
    exit(2);
}

/// `--flag value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut map = BTreeMap::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    map.insert(flag[2..].to_string(), value.clone());
                }
                _ => fail(&format!("expected `--flag value`, got {pair:?}")),
            }
        }
        Self(map)
    }

    fn str(&self, name: &str) -> &str {
        self.0
            .get(name)
            .unwrap_or_else(|| fail(&format!("--{name} is required")))
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> T {
        let value = self.str(name);
        value
            .parse()
            .unwrap_or_else(|_| fail(&format!("invalid value `{value}` for --{name}")))
    }

    fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            boards: self.num("boards"),
            months: self.num("months"),
            reads_per_window: self.num("reads"),
            ..CampaignConfig::default()
        }
    }

    fn protocol(&self) -> EvaluationProtocol {
        EvaluationProtocol {
            reads_per_window: self.num("reads"),
            ..EvaluationProtocol::default()
        }
    }

    fn profiles(&self) -> Vec<KeyProfile> {
        self.str("profiles")
            .split(',')
            .map(|token| {
                let (spec, bits) = token.split_once('@').unwrap_or((token, "128"));
                let bits = bits
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("invalid secret length in `{token}`")));
                KeyProfile::parse(spec, bits).unwrap_or_else(|e| fail(&e.to_string()))
            })
            .collect()
    }
}

/// One flat JSON object of named numbers, in insertion order.
#[derive(Default)]
struct Report(Vec<(String, String)>);

impl Report {
    fn put(&mut self, name: impl Into<String>, value: impl Display) {
        self.0.push((name.into(), value.to_string()));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times a [`RecordSink`]'s `record` and `flush` calls.
struct TimedSink<S> {
    inner: S,
    ns: u64,
    records: u64,
}

impl<S: RecordSink> RecordSink for TimedSink<S> {
    fn record(&mut self, record: &Record) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.record(record);
        self.ns += nanos_since(start);
        self.records += 1;
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.flush();
        self.ns += nanos_since(start);
        result
    }
}

/// The real campaign, as the `campaign` binary runs it, with the output
/// sink wrapped in a timer and the `pufobs` instruments attached.
fn campaign(flags: &Flags) -> Report {
    let start = Instant::now();
    let config = flags.campaign_config();
    let out = flags.str("out");
    let format: RecordFormat = flags.num("format");
    let declared_bits = u32::try_from(config.read_bits).expect("read width fits u32");
    let ins = pufobs::Instruments::new();
    let mut campaign = Campaign::new(config, flags.num("seed"))
        .threads(flags.num("threads"))
        .instruments(&ins);
    if let Some(ckpt) = flags.opt("checkpoint-out") {
        campaign = campaign.checkpoints(1, ckpt);
    }
    let inner = FormatSink::create(out, format, declared_bits)
        .unwrap_or_else(|e| fail(&format!("cannot open {out}: {e}")));
    let mut sink = TimedSink {
        inner,
        ns: 0,
        records: 0,
    };
    let summary = campaign
        .run(&mut sink)
        .unwrap_or_else(|e| fail(&format!("campaign failed: {e}")));
    let finish = Instant::now();
    sink.inner
        .finish()
        .unwrap_or_else(|e| fail(&format!("flush failed: {e}")));
    let sink_ns = sink.ns + nanos_since(finish);
    let wall_ns = nanos_since(start);

    let snapshot = ins.snapshot();
    let writes = snapshot
        .histogram("checkpoint.write_ns")
        .cloned()
        .unwrap_or_default();
    let bytes_written = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    let mut report = Report::default();
    report.put("wall_ns", wall_ns);
    report.put("records", summary.records);
    report.put("dropped", summary.dropped);
    report.put("retries", summary.retries);
    report.put("windows", summary.windows);
    report.put("sink_ns", sink_ns);
    report.put("sink_records", sink.records);
    report.put("bytes_written", bytes_written);
    report.put("checkpoint_writes", writes.count);
    report.put("checkpoint_write_ns", writes.sum);
    report
}

/// One board through the campaign's full schedule — aging between windows,
/// then every read powered up and shipped over the bus — timing each public
/// call, then `checkpoint::encode` on the whole campaign's state.
fn probe_board(flags: &Flags) -> Report {
    let config = flags.campaign_config();
    let seed: u64 = flags.num("seed");
    let checkpoints: u32 = flags.num("checkpoints");

    let id = BoardId(0);
    let mut rng = PufRng::seed_from_u64(board_stream_seed(seed, id));
    let mut board = SlaveBoard::new(
        id,
        &config.profile,
        config.sram_bits,
        config.read_bits,
        &mut rng,
    );
    let mut kernel = PowerUpKernel::new();
    let mut bus = I2cBus::ideal();
    let address = Address::new(0x10).expect("first slave address is valid");
    let (mut age_ns, mut power_up_ns, mut transfer_ns) = (0u64, 0u64, 0u64);
    let (mut board_months, mut reads) = (0u64, 0u64);
    let mut bytes = Vec::new();
    let mut date = config.start;
    for month in 0..=config.months {
        if month > 0 {
            let next = date.next_month();
            let years = (next.days_since_epoch() - date.days_since_epoch()) as f64 / 365.25;
            let start = Instant::now();
            board.age(years, config.aging_substeps_per_month);
            age_ns += nanos_since(start);
            board_months += 1;
            date = next;
        }
        for _ in 0..config.reads_per_window {
            let start = Instant::now();
            let readout = board.power_cycle_with(&mut kernel, &mut rng);
            power_up_ns += nanos_since(start);
            bytes.clear();
            readout.to_bytes_into(&mut bytes);
            let start = Instant::now();
            let received = bus.transfer(address, &bytes, &mut rng);
            transfer_ns += nanos_since(start);
            black_box(received.map(|r| r.len()).unwrap_or(0));
            reads += 1;
        }
    }

    let state = Campaign::new(config, seed).export_state();
    let mut encode_ns = 0u64;
    let mut state_bytes = 0usize;
    for _ in 0..checkpoints {
        let start = Instant::now();
        state_bytes = black_box(checkpoint::encode(&state)).len();
        encode_ns += nanos_since(start);
    }

    let mut report = Report::default();
    report.put("power_up_ns", power_up_ns);
    report.put("reads", reads);
    report.put("age_ns", age_ns);
    report.put("board_months", board_months);
    report.put("transfer_ns", transfer_ns);
    report.put("transfers", bus.transactions());
    report.put("transfer_failures", bus.failures());
    report.put("encode_ns", encode_ns);
    report.put("encodes", checkpoints);
    report.put("state_bytes", state_bytes);
    report
}

fn open_reader(path: &str, threads: usize) -> AnyRecordReader {
    let file = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    AnyRecordReader::open(BufReader::new(file), threads, DEFAULT_BATCH_LINES, None)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

/// Times the consumer's waits on the reader: each `next` call.
struct TimedReader {
    inner: AnyRecordReader,
    wait_ns: u64,
    records: u64,
    corrupt: u64,
}

impl TimedReader {
    fn new(path: &str, threads: usize) -> Self {
        Self {
            inner: open_reader(path, threads),
            wait_ns: 0,
            records: 0,
            corrupt: 0,
        }
    }
}

impl Iterator for TimedReader {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        loop {
            let start = Instant::now();
            let item = self.inner.next();
            self.wait_ns += nanos_since(start);
            match item? {
                Ok(record) => {
                    self.records += 1;
                    return Some(record);
                }
                Err(e) if e.is_io() => fail(&format!("read failed: {e}")),
                Err(_) => self.corrupt += 1,
            }
        }
    }
}

/// The `assess` pipeline: parallel reader into the window accumulator, then
/// the binary's report (Table I, coverage, Fig. 6 summaries, per-device model
/// fit), rebuilt here so its bytes can be compared with the binary's stdout.
fn assess(flags: &Flags) -> Report {
    let start = Instant::now();
    let mut reader = TimedReader::new(flags.str("in"), flags.num("threads"));
    let mut accumulator = WindowAccumulator::new(flags.protocol());
    let mut push_ns = 0u64;
    for record in reader.by_ref() {
        let t = Instant::now();
        accumulator.push(&record);
        push_ns += nanos_since(t);
    }
    let t = Instant::now();
    let (assessment, windows) = accumulator
        .finish_with_windows()
        .unwrap_or_else(|e| fail(&format!("assessment failed: {e}")));
    let finish_ns = nanos_since(t);

    let t = Instant::now();
    let mut text = format!("=== Table I ===\n\n{}\n", assessment.table1().render());
    let coverage = assessment.coverage();
    if coverage.is_complete() {
        text += &format!(
            "coverage: complete — {} devices × {} months\n\n",
            coverage.expected_devices(),
            coverage.months().len()
        );
    } else {
        text += &format!(
            "coverage: {} of {} months sparse ({} devices expected)\n",
            coverage.sparse_months().len(),
            coverage.months().len(),
            coverage.expected_devices()
        );
        for month in coverage.sparse_months() {
            let (year, month_no) = month.year_month;
            text += &format!(
                "  {year}-{month_no:02}: {} present, {} missing, {} underfilled\n",
                month.devices_present,
                month.missing_devices.len(),
                month.underfilled_devices.len()
            );
        }
        text += "\n";
    }
    text += "=== development summaries ===\n\n";
    for series in [Series::Wchd, Series::NoiseEntropy, Series::StableRatio] {
        text += &format!("{}\n", report::fig6_text(&assessment, series, 32));
    }
    let report_ns = nanos_since(t);

    let t = Instant::now();
    text += "=== fitted hidden-variable model per device (month 0) ===\n\n";
    text += &format!(
        "{:<8} {:>10} {:>10} {:>12}\n",
        "device", "mu", "sigma", "pred. WCHD"
    );
    let first_month = windows.iter().map(|w| w.year_month).min();
    for window in windows.iter().filter(|w| Some(w.year_month) == first_month) {
        let device = window.device.to_string();
        text += &match fit::fit_population(&window.counter) {
            Ok(pop) => format!(
                "{device:<8} {:>10.3} {:>10.3} {:>11.2}%\n",
                pop.mu,
                pop.sigma,
                pop.expected_wchd() * 100.0
            ),
            Err(e) => format!("{device:<8} unfittable: {e}\n"),
        };
    }
    let fit_ns = nanos_since(t);
    let wall_ns = nanos_since(start);
    write_report(flags, &text);

    let mut report = Report::default();
    report.put("wall_ns", wall_ns);
    report.put("records", reader.records);
    report.put("corrupt", reader.corrupt);
    report.put("wait_ns", reader.wait_ns);
    report.put("push_ns", push_ns);
    report.put("finish_ns", finish_ns);
    report.put("report_ns", report_ns);
    report.put("fit_ns", fit_ns);
    report
}

fn write_report(flags: &Flags, text: &str) {
    let path = flags.str("report");
    std::fs::write(path, text).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
}

/// The `keylife` pipeline: reader on this thread, records sharded by device
/// to one accumulator per worker, each `push` timed inside its worker.
fn keylife(flags: &Flags) -> Report {
    let start = Instant::now();
    let threads: usize = flags.num("threads");
    let config = KeyLifeConfig {
        protocol: flags.protocol(),
        profiles: flags.profiles(),
        enroll_seed: 2017,
    };
    let mut reader = TimedReader::new(flags.str("in"), threads);
    let (merged, push_ns) = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::sync_channel::<Record>(1024);
            let mut accumulator = KeyLifeAccumulator::new(config.clone());
            senders.push(tx);
            workers.push(scope.spawn(move || {
                let mut push_ns = 0u64;
                for record in rx {
                    let t = Instant::now();
                    accumulator.push(&record);
                    push_ns += nanos_since(t);
                }
                (accumulator, push_ns)
            }));
        }
        for record in reader.by_ref() {
            let shard = usize::from(record.device.0) % threads;
            senders[shard].send(record).expect("worker outlives stream");
        }
        drop(senders);
        let mut merged: Option<KeyLifeAccumulator> = None;
        let mut push_ns = 0u64;
        for worker in workers {
            let (shard, ns) = worker.join().expect("worker panics propagate");
            push_ns += ns;
            match &mut merged {
                None => merged = Some(shard),
                Some(m) => m.merge(shard),
            }
        }
        (merged.expect("at least one shard"), push_ns)
    });
    let life = merged
        .finish()
        .unwrap_or_else(|e| fail(&format!("key-lifetime evaluation failed: {e}")));
    let wall_ns = nanos_since(start);
    write_report(flags, &life.render_table());

    let mut report = Report::default();
    report.put("wall_ns", wall_ns);
    report.put("records", reader.records);
    report.put("corrupt", reader.corrupt);
    report.put("wait_ns", reader.wait_ns);
    report.put("push_ns", push_ns);
    report.put("reconstructions", life.reconstructions);
    report.put("wrong_keys", life.wrong_keys);
    for profile in &life.profiles {
        let name = &profile.profile.name;
        let attempts: u64 = profile.rows.iter().map(|r| r.attempts).sum();
        let failures: u64 = profile.rows.iter().map(|r| r.failures).sum();
        report.put(format!("enrolled.{name}"), profile.enrolled);
        report.put(format!("attempts.{name}"), attempts);
        report.put(format!("failures.{name}"), failures);
    }
    report
}

/// `struct timeval` of the Linux C ABI.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the Linux C ABI: two timevals, then 14 longs, the
/// first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

/// Runs `argv` with its output redirected and reports its exit code, wall
/// time, CPU time (user + system) and peak RSS.
fn exec(flags: &Flags, argv: &[String]) -> Report {
    let Some((program, args)) = argv.split_first() else {
        fail("exec needs a program");
    };
    let create = |name: &str| {
        let path = flags.str(name);
        File::create(path).unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")))
    };
    let (stdout, stderr) = (create("stdout"), create("stderr"));
    let start = Instant::now();
    let status = std::process::Command::new(program)
        .args(args)
        .stdout(stdout)
        .stderr(stderr)
        .status()
        .unwrap_or_else(|e| fail(&format!("cannot run {program}: {e}")));
    let wall_ns = nanos_since(start);
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the C ABI's
    // layout, and `getrusage` writes nothing beyond it.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        fail(&format!("getrusage failed: {}", io::Error::last_os_error()));
    }
    let seconds = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let mut report = Report::default();
    report.put("rc", status.code().unwrap_or(-1));
    report.put("wall_ns", wall_ns);
    report.put("cpu_s", seconds(&usage.utime) + seconds(&usage.stime));
    report.put("maxrss_kib", usage.maxrss_kib);
    report
}

/// The frames of a `pufrec/1` file, header checked.
fn pufrec_frames(path: &str) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    FileHeader::parse(&bytes).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    bytes
}

/// Per-call cost of the record codec: `crc32` over each frame's payload and
/// `Record::decode_binary` (which verifies that CRC again) over each frame.
fn probe_store(flags: &Flags) -> Report {
    let bytes = pufrec_frames(flags.str("in"));
    let (mut crc_ns, mut crc_bytes, mut decode_ns, mut records) = (0u64, 0u64, 0u64, 0u64);
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let start = Instant::now();
        let (record, used) = Record::decode_binary(&bytes[pos..])
            .unwrap_or_else(|e| fail(&format!("corrupt frame at byte {pos}: {e}")));
        decode_ns += nanos_since(start);
        black_box(record);
        let payload = &bytes[pos + 4..pos + used - 4];
        let start = Instant::now();
        black_box(crc32(black_box(payload)));
        crc_ns += nanos_since(start);
        crc_bytes += payload.len() as u64;
        records += 1;
        pos += used;
    }
    let mut report = Report::default();
    report.put("decode_ns", decode_ns);
    report.put("records", records);
    report.put("crc_ns", crc_ns);
    report.put("crc_bytes", crc_bytes);
    report
}

type EnrolledDevice = ((i32, u8), Vec<Option<Enrollment>>);

/// Per-call cost of each profile's key generator: every device enrolls from
/// its first read, and every read of a later month reconstructs.
fn probe_keygen(flags: &Flags) -> Report {
    let profiles = flags.profiles();
    let generators: Vec<KeyGenerator> = profiles
        .iter()
        .map(|p| KeyGenerator::from_spec(p.secret_bits, p.spec).expect("profile validated"))
        .collect();
    let bytes = pufrec_frames(flags.str("in"));
    let n = profiles.len();
    let (mut enroll_ns, mut enrolls) = (vec![0u64; n], vec![0u64; n]);
    let (mut reconstruct_ns, mut reconstructs) = (vec![0u64; n], vec![0u64; n]);
    // Per device: its enrollment month and one enrollment per profile.
    let mut devices: BTreeMap<u8, EnrolledDevice> = BTreeMap::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let (record, used) = Record::decode_binary(&bytes[pos..])
            .unwrap_or_else(|e| fail(&format!("corrupt frame at byte {pos}: {e}")));
        pos += used;
        let date = record.timestamp.datetime().date;
        let month = (date.year, date.month);
        match devices.get(&record.device.0) {
            None => {
                let enrollments = generators
                    .iter()
                    .enumerate()
                    .map(|(p, generator)| {
                        let mut rng = PufRng::seed_from_u64(u64::from(record.device.0));
                        let start = Instant::now();
                        let enrollment = generator.enroll(&record.data, &mut rng).ok();
                        enroll_ns[p] += nanos_since(start);
                        enrolls[p] += 1;
                        enrollment
                    })
                    .collect();
                devices.insert(record.device.0, (month, enrollments));
            }
            Some((enrolled, enrollments)) if month > *enrolled => {
                for (p, enrollment) in enrollments.iter().enumerate() {
                    let Some(enrollment) = enrollment else {
                        continue;
                    };
                    let start = Instant::now();
                    let key = generators[p].reconstruct(&record.data, &enrollment.helper);
                    reconstruct_ns[p] += nanos_since(start);
                    black_box(key.is_ok());
                    reconstructs[p] += 1;
                }
            }
            Some(_) => {}
        }
    }
    let mut report = Report::default();
    for (p, profile) in profiles.iter().enumerate() {
        let name = &profile.name;
        report.put(format!("enroll_ns.{name}"), enroll_ns[p]);
        report.put(format!("enrolls.{name}"), enrolls[p]);
        report.put(format!("reconstruct_ns.{name}"), reconstruct_ns[p]);
        report.put(format!("reconstructs.{name}"), reconstructs[p]);
    }
    report
}
