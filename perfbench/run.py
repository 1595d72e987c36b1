#!/usr/bin/env python3
"""perfbench: the reproduction's benchmark.

Runs one workload through the real release binaries (`campaign`, `assess`,
`keylife`) and prints its metrics; the last line of stdout is one JSON
object. Run from the repository root:

    python3 perfbench/run.py --workload campaign_dense --seed 2017 \
        --seconds 15 --trace 0

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(see perfbench/README.md for both, and for why each workload exists).

The load is a batch, closed loop: one harness process runs one invocation at
a time, each with `--threads 2`, until `--seconds` have passed (and at least
three times). Inputs come only from the workload shape and `--seed`. Every
invocation's output is checked; failures feed `failed` / `attempted`.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

THREADS = 2
PROFILES = "golay-r5@128,polar-512-128@128"
PROFILE_NAMES = ["golay-r5", "polar-512-128"]
SETUP_REPEATS = 3
MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 150

# Paper geometry throughout: 20 KiB SRAM per board, 8192-bit reads (the
# binaries' defaults). 16 boards keep the Table I start column inside its
# envelope for any seed (the board-to-board spread of HW is ~1.8 %).
WORKLOADS = {
    # The paper's 1000 reads per window over two windows: cell power-up
    # dominates; the serial merge+sink tail runs beside 2 shard workers.
    "campaign_dense": dict(kind="campaign", boards=16, months=1, reads=1000,
                           format="binary", checkpoint=False),
    # All 24 months at 50 reads per window, JSON, a checkpoint per window:
    # aging and checkpoint encode+write dominate, power-up does little.
    "campaign_longterm": dict(kind="campaign", boards=16, months=24, reads=50,
                              format="json", checkpoint=True),
    # Reader (frame, CRC-32, decode) and window fold over a pufrec/1 file
    # generated at set-up; no cell or aging work.
    "assess_replay": dict(kind="assess", boards=16, months=1, reads=500),
    # The same reader, but key reconstruction (both ECC families) dominates.
    "keylife_replay": dict(kind="keylife", boards=16, months=1, reads=500),
}
# A shape small enough for perfbench/selftest.py; the Table I envelope is
# calibrated for the full shapes, so it is not checked here.
TINY = dict(boards=4, months=2, reads=8)

# Table I start column, as tests/full_pipeline.rs locks it: value, tolerance
# (percentage points).
ENVELOPE = {"WCHD": (2.49, 0.4), "HW": (62.7, 2.0), "BCHD": (46.8, 2.0),
            "Ratio of Stable Cells": (85.9, 5.0)}
WCHD_REL_CHANGE = (8.0, 35.0)  # percent, 24-month campaigns only

E2E = [("wall_s", "s"), ("records_per_s", "1/s"), ("cpu_s", "s"),
       ("peak_rss_mib", "MiB"), ("setup_s", "s")]
PER_LAYER = [
    ("sramcell.power_up.ns_per_read", "ns"),
    ("sramcell.power_up.calls", "count"),
    ("sramcell.power_up.cpu_share", "ratio"),
    ("sramaging.advance.ns_per_board_month", "ns"),
    ("sramaging.advance.cpu_share", "ratio"),
    ("puftestbed.i2c.transfer_ns", "ns"),
    ("puftestbed.i2c.cpu_share", "ratio"),
    ("puftestbed.i2c.failures_per_attempt", "ratio"),
    ("puftestbed.store.sink.ns_per_record", "ns"),
    ("puftestbed.store.sink.wall_share", "ratio"),
    ("puftestbed.store.bytes_written", "B"),
    ("puftestbed.store.checkpoint.encode_ns", "ns"),
    ("puftestbed.store.checkpoint.write_ns", "ns"),
    ("puftestbed.store.checkpoint.wall_share", "ratio"),
    ("puftestbed.store.reader.wait_ns_per_record", "ns"),
    ("puftestbed.store.crc32.ns_per_byte", "ns"),
    ("puftestbed.store.decode.ns_per_record", "ns"),
    ("puftestbed.store.reader.corrupt_records", "count"),
    ("pufassess.streaming.push.ns_per_record", "ns"),
    ("pufassess.streaming.finish_ms", "ms"),
    ("pufassess.fit.ms", "ms"),
    ("pufassess.keylife.push.ns_per_record", "ns"),
] + [
    (f"pufkeygen.{metric}.{p}", unit)
    for metric, unit in (("reconstruct_ns", "ns"), ("enroll_ns", "ns"),
                         ("reconstruct_fail_ratio", "ratio"))
    for p in PROFILE_NAMES
] + [
    ("puftestbed.campaign.parallel_efficiency", "ratio"),
    ("puftestbed.campaign.shard_window_ns.p50", "ns"),
    ("puftestbed.campaign.shard_window_ns.max", "ns"),
    ("pufobs.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


class Failures:
    """Failed operations over attempted ones; an operation is one record."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, records, failed=0, problem=None):
        """Books one invocation over `records` records. A problem (non-zero
        exit, failed output check) fails every record of the invocation."""
        self.attempted += records
        if problem:
            self.problems.append(problem)
            print(f"check failed: {problem}", file=sys.stderr)
            failed = records
        self.failed += min(failed, records)


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


class Bench:
    def __init__(self, name, seed, shape_name):
        self.seed = seed
        self.shape = dict(WORKLOADS[name])
        if shape_name == "tiny":
            self.shape.update(TINY)
        self.check_envelope = shape_name == "full"
        self.root = os.getcwd()
        self.target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.work = os.path.join(self.root, ".bench_work", f"{name}-{os.getpid()}")
        s = self.shape
        self.expected = s["boards"] * (s["months"] + 1) * s["reads"]
        self.failures = Failures()
        self.digests = set()

    # -- build and paths ---------------------------------------------------

    def cargo_build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for argv in (
            ["cargo", "build", "--release", "--offline", "-p", "pufbench",
             "--bin", "campaign", "--bin", "assess", "--bin", "keylife"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             "perfbench/tracer/Cargo.toml"],
        ):
            done = subprocess.run(argv, cwd=self.root, env=env,
                                  stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build failed: {' '.join(argv)}")

    def binary(self, name):
        return os.path.join(self.root, self.target, "release", name)

    def run_child(self, argv, stdout_path):
        """Runs one child to completion through the `layertrace exec`
        launcher and returns its wall time, CPU time and peak RSS (the
        child's own, see perfbench/tracer), exit code and captured output."""
        err_path = stdout_path + ".err"
        proc = subprocess.Popen([self.binary("layertrace"), "exec", "--stdout", stdout_path,
                                 "--stderr", err_path, "--"] + argv,
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"timed out after {CHILD_TIMEOUT_S} s: {' '.join(argv)}")
        if proc.returncode != 0:
            fail(f"launcher failed ({proc.returncode}) for {' '.join(argv)}")
        usage = json.loads(out)
        with open(err_path, "r", errors="replace") as f:
            stderr = f.read()
        with open(stdout_path, "rb") as f:
            stdout = f.read()
        return dict(wall=usage["wall_ns"] / 1e9, cpu=usage["cpu_s"],
                    rss_mib=usage["maxrss_kib"] / 1024.0, rc=usage["rc"],
                    stdout=stdout, stderr=stderr)

    def path(self, name):
        return os.path.join(self.work, name)

    # -- commands ----------------------------------------------------------

    def campaign_argv(self, out, fmt, metrics=None, months=None, reads=None):
        s = self.shape
        argv = [self.binary("campaign"), "--out", out, "--format", fmt,
                "--boards", str(s["boards"]),
                "--months", str(s["months"] if months is None else months),
                "--reads", str(s["reads"] if reads is None else reads),
                "--seed", str(self.seed), "--threads", str(THREADS)]
        if s.get("checkpoint"):
            argv += ["--checkpoint-out", out + ".ckpt", "--checkpoint-every", "1"]
        if metrics:
            argv += ["--metrics-out", metrics]
        return argv

    def workload_argv(self, metrics=None):
        """The invocation under test."""
        s = self.shape
        if s["kind"] == "campaign":
            return self.campaign_argv(self.path("out.rec"), s["format"], metrics=metrics)
        common = ["--in", self.path("input.bin"), "--reads", str(s["reads"]),
                  "--threads", str(THREADS)]
        if metrics:
            common += ["--metrics-out", metrics]
        if s["kind"] == "assess":
            return [self.binary("assess")] + common
        return [self.binary("keylife")] + common + ["--profiles", PROFILES]

    def warmup_argv(self):
        """The discarded warm-up: the workload itself for replays; for
        campaigns, the same flags over a fixed two windows of 100 reads (a
        whole campaign is too long to repeat at every set-up)."""
        s = self.shape
        if s["kind"] != "campaign":
            return self.workload_argv()
        return self.campaign_argv(self.path("out.rec"), s["format"],
                                  months=min(1, s["months"]), reads=min(100, s["reads"]))

    def clear_outputs(self):
        for name in ("out.rec", "out.rec.ckpt", "out.rec.tmp", "trace.rec", "trace.rec.ckpt"):
            if os.path.exists(self.path(name)):
                os.remove(self.path(name))

    # -- set-up ------------------------------------------------------------

    def setup_once(self):
        """Build check, input generation (replays) and one discarded
        warm-up invocation; returns its duration."""
        start = time.perf_counter()
        self.cargo_build()
        if self.shape["kind"] != "campaign":
            gen = self.run_child(self.campaign_argv(self.path("input.bin"), "binary"),
                                 self.path("gen.out"))
            if gen["rc"] != 0:
                fail(f"input generation failed: {gen['stderr'][-500:]}")
        self.clear_outputs()
        warm = self.run_child(self.warmup_argv(), self.path("warm.out"))
        if warm["rc"] != 0:
            fail(f"warm-up failed: {warm['stderr'][-500:]}")
        return time.perf_counter() - start

    # -- output checks -----------------------------------------------------

    def digest(self, run):
        if self.shape["kind"] == "campaign":
            return file_digest(self.path("out.rec"))
        return "sha256:" + hashlib.sha256(run["stdout"]).hexdigest()

    def table1_problem(self, text):
        """Checks the Table I start column (and, over 24 months, the WCHD
        relative change) in `assess` output."""
        if not self.check_envelope:
            return None
        rows = {}
        for m in re.finditer(r"^(WCHD|HW|Ratio of Stable Cells|BCHD)\s+AVG\.\s+"
                             r"([\d.]+)%\s+([\d.]+)%\s+(\S+)", text, re.M):
            rows[m.group(1)] = (float(m.group(2)), m.group(4))
        for row, (centre, tol) in ENVELOPE.items():
            if row not in rows:
                return f"Table I row {row} missing"
            start = rows[row][0]
            if abs(start - centre) > tol:
                return f"Table I {row} start {start}% outside {centre}±{tol}%"
        if self.shape["months"] == 24:
            rel = rows["WCHD"][1]
            lo, hi = WCHD_REL_CHANGE
            value = float(rel.rstrip("%")) if rel.endswith("%") else None
            if value is None or not lo <= value <= hi:
                return f"WCHD relative change {rel} outside [{lo}%, {hi}%]"
        return None

    def check_assess_output(self, run, expected):
        """Returns (records with a bad outcome, problem) for an assess run."""
        if run["rc"] != 0:
            return 0, f"assess exited {run['rc']}"
        m = re.search(r"loaded (\d+) records \((\d+) malformed, (\d+) width-mismatched",
                      run["stderr"])
        if not m:
            return 0, "assess printed no record count"
        loaded, malformed, mismatched = map(int, m.groups())
        if loaded != expected:
            return 0, f"assess loaded {loaded} records, expected {expected}"
        bad = malformed + mismatched
        return bad, self.table1_problem(run["stdout"].decode())

    def check_run(self, run):
        """Checks one timed invocation; returns (bad records, problem)."""
        kind = self.shape["kind"]
        if run["rc"] != 0:
            return 0, f"{kind} exited {run['rc']}: {run['stderr'][-300:]}"
        if kind == "campaign":
            m = re.search(r"done: (\d+) records over (\d+) windows \((\d+) transport "
                          r"retries, (\d+) dropped\)", run["stderr"])
            if not m:
                return 0, "campaign printed no summary"
            records, windows, _, dropped = map(int, m.groups())
            if records != self.expected or windows != self.shape["months"] + 1:
                return dropped, f"campaign wrote {records} records in {windows} windows"
            return dropped, None
        if kind == "assess":
            return self.check_assess_output(run, self.expected)
        text = run["stdout"].decode()
        m = re.search(r"records: (\d+) seen, (\d+) folded, (\d+) reconstructions, "
                      r"(\d+) failures, (\d+) wrong keys", text)
        if not m:
            return 0, "keylife printed no totals"
        seen, folded, reconstructions, _, wrong = map(int, m.groups())
        s = self.shape
        want = s["boards"] * s["months"] * s["reads"] * len(PROFILE_NAMES)
        if seen != self.expected or folded != self.expected or reconstructions != want:
            return wrong, (f"keylife saw {seen}/{folded} records and {reconstructions} "
                           f"reconstructions, expected {self.expected} and {want}")
        enrolled = re.findall(r"enrolled (\d+)/(\d+)", text)
        if len(enrolled) != len(PROFILE_NAMES) or any(
                int(a) != s["boards"] or int(b) != s["boards"] for a, b in enrolled):
            return wrong, f"keylife enrolment {enrolled}, expected all {s['boards']} devices"
        return wrong, None

    def timed_run(self, metrics=None):
        """One checked invocation of the workload."""
        self.clear_outputs()
        run = self.run_child(self.workload_argv(metrics=metrics), self.path("run.out"))
        bad, problem = self.check_run(run)
        if problem is None and run["rc"] == 0:
            digest = self.digest(run)
            self.digests.add(digest)
            run["digest"] = digest
            if len(self.digests) > 1:
                problem = "output digest differs between runs of one seed"
        self.failures.op(self.expected, bad, problem)
        return run

    def final_check(self):
        """Checks the record stream itself with `assess`: exact record count,
        nothing malformed, Table I start column in its envelope."""
        kind = self.shape["kind"]
        if kind == "assess":
            return  # every timed run was an assess run, checked already
        # A campaign's last timed invocation left its record file behind.
        source = self.path("out.rec" if kind == "campaign" else "input.bin")
        argv = [self.binary("assess"), "--in", source, "--reads",
                str(self.shape["reads"]), "--threads", str(THREADS)]
        run = self.run_child(argv, self.path("check.out"))
        bad, problem = self.check_assess_output(run, self.expected)
        self.failures.op(self.expected, bad, problem)

    # -- tracing -----------------------------------------------------------

    def trace_argv(self):
        s = self.shape
        tracer = self.binary("layertrace")
        if s["kind"] == "campaign":
            argv = [tracer, "campaign", "--out", self.path("trace.rec"),
                    "--format", s["format"], "--boards", str(s["boards"]),
                    "--months", str(s["months"]), "--reads", str(s["reads"]),
                    "--seed", str(self.seed), "--threads", str(THREADS)]
            if s.get("checkpoint"):
                argv += ["--checkpoint-out", self.path("trace.rec.ckpt")]
            return argv
        argv = [tracer, s["kind"], "--in", self.path("input.bin"), "--reads",
                str(s["reads"]), "--threads", str(THREADS), "--report",
                self.path("trace.report")]
        if s["kind"] == "keylife":
            argv += ["--profiles", PROFILES]
        return argv

    def tracer(self, argv, name):
        run = self.run_child(argv, self.path(name))
        if run["rc"] != 0:
            fail(f"tracer failed: {' '.join(argv)}: {run['stderr'][-500:]}")
        return run, json.loads(run["stdout"].decode().strip().splitlines()[-1])

    def traced_digest_problem(self, untraced):
        """Tracing must be byte-invisible: the traced pipeline's output
        equals the untraced binary's."""
        kind = self.shape["kind"]
        if kind == "campaign":
            same = file_digest(self.path("trace.rec")) == untraced["digest"]
        else:
            with open(self.path("trace.report"), "rb") as f:
                report = f.read()
            same = untraced["stdout"] == report
        return None if same else "traced output differs from the untraced binary's"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def calibration_ms():
    """A fixed in-process loop, so figures from different machines can be
    read against each other. Information only, not a gated metric."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 1
        for i in range(1_000_000):
            acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def measure(bench, seconds, trace):
    """The timed loop: untraced invocations (plus, when tracing, one
    `--metrics-out` and one traced invocation per round)."""
    rounds = []
    start = time.perf_counter()
    min_rounds = 1 if trace else MIN_ITERATIONS
    while time.perf_counter() - start < seconds or len(rounds) < min_rounds:
        entry = {"plain": bench.timed_run()}
        if trace:
            metrics_path = bench.path("metrics.json")
            entry["obs"] = bench.timed_run(metrics=metrics_path)
            with open(metrics_path) as f:
                entry["snapshot"] = json.load(f)
            entry["trace"] = bench.tracer(bench.trace_argv(), "trace.out")
            problem = "digest" in entry["plain"] and bench.traced_digest_problem(entry["plain"])
            if problem:
                bench.failures.op(bench.expected, 0, problem)
        rounds.append(entry)
        if bench.failures.problems:
            break
    return rounds


def end_to_end(bench, rounds, setups):
    runs = [r["plain"] for r in rounds]
    walls = [r["wall"] for r in runs]
    values = {
        "wall_s": walls,
        "records_per_s": [bench.expected / w for w in walls],
        "cpu_s": [r["cpu"] for r in runs],
        "peak_rss_mib": [r["rss_mib"] for r in runs],
        "setup_s": setups,
    }
    medians = {}
    for name, unit in E2E:
        v = values[name]
        lo, hi = quartiles(v)
        medians[name] = statistics.median(v)
        print(f"{name:<16} {medians[name]:.6g} {unit}  (median of {len(v)}; quartiles "
              f"{lo:.6g}..{hi:.6g}; min {min(v):.6g}, max {max(v):.6g})")
    return medians


def hist_p50(hist):
    """Median of a pufobs log2 histogram (bucket i spans [2^(i-1), 2^i)),
    interpolated by rank inside the bucket holding the middle sample and
    clamped to the exact min and max."""
    middle = (hist["count"] + 1) / 2
    seen = 0
    for index, count in hist["buckets"]:
        if seen + count >= middle:
            lo, hi = max(2 ** (index - 1), hist["min"]), min(2 ** index, hist["max"])
            return lo + (hi - lo) * (middle - seen) / count
        seen += count
    return 0.0


def per_layer(bench, rounds):
    """Per-layer metrics. Layers a workload does not run report 0."""
    s = bench.shape
    kind = s["kind"]
    med = statistics.median
    plain_wall = med([r["plain"]["wall"] for r in rounds])
    obs_wall = med([r["obs"]["wall"] for r in rounds])
    trace_runs = [r["trace"][0] for r in rounds]
    traced = rounds[-1]["trace"][1]
    trace_wall = med([r["wall"] for r in trace_runs])
    trace_cpu_ns = med([r["cpu"] for r in trace_runs]) * 1e9
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["pufobs.overhead_ratio"] = obs_wall / plain_wall
    m["trace.overhead_ratio"] = trace_wall / plain_wall

    if kind == "campaign":
        # The probe drives one board through the whole schedule and encodes
        # as many checkpoints as the campaign writes; board costs scale by
        # the board count.
        boards = s["boards"]
        _, probe = bench.tracer(
            [bench.binary("layertrace"), "probe-board", "--boards", str(boards),
             "--months", str(s["months"]), "--reads", str(s["reads"]),
             "--seed", str(bench.seed), "--checkpoints", str(traced["checkpoint_writes"])],
            "probe.out")
        power_up_ns = probe["power_up_ns"] * boards
        m["sramcell.power_up.ns_per_read"] = probe["power_up_ns"] / probe["reads"]
        m["sramcell.power_up.calls"] = probe["reads"] * boards
        m["sramcell.power_up.cpu_share"] = power_up_ns / trace_cpu_ns
        age_ns = probe["age_ns"] * boards
        if probe["board_months"]:
            m["sramaging.advance.ns_per_board_month"] = probe["age_ns"] / probe["board_months"]
        m["sramaging.advance.cpu_share"] = age_ns / trace_cpu_ns
        attempts = traced["records"] + traced["retries"] + traced["dropped"]
        per_transfer = probe["transfer_ns"] / probe["transfers"]
        m["puftestbed.i2c.transfer_ns"] = per_transfer
        m["puftestbed.i2c.cpu_share"] = per_transfer * attempts / trace_cpu_ns
        m["puftestbed.i2c.failures_per_attempt"] = (
            (traced["retries"] + traced["dropped"]) / attempts)
        m["puftestbed.store.sink.ns_per_record"] = traced["sink_ns"] / traced["sink_records"]
        m["puftestbed.store.sink.wall_share"] = traced["sink_ns"] / traced["wall_ns"]
        m["puftestbed.store.bytes_written"] = traced["bytes_written"]
        if traced["checkpoint_writes"]:
            m["puftestbed.store.checkpoint.encode_ns"] = probe["encode_ns"] / probe["encodes"]
            m["puftestbed.store.checkpoint.write_ns"] = (
                traced["checkpoint_write_ns"] / traced["checkpoint_writes"])
            m["puftestbed.store.checkpoint.wall_share"] = (
                traced["checkpoint_write_ns"] / traced["wall_ns"])
        m["puftestbed.campaign.parallel_efficiency"] = med(
            [r["plain"]["cpu"] / (r["plain"]["wall"] * THREADS) for r in rounds])
        hist = rounds[-1]["snapshot"]["histograms"]["campaign.shard_window_ns"]
        m["puftestbed.campaign.shard_window_ns.p50"] = hist_p50(hist)
        m["puftestbed.campaign.shard_window_ns.max"] = float(hist["max"])
        attributed_ns = (power_up_ns + age_ns + per_transfer * attempts + traced["sink_ns"]
                         + probe["encode_ns"])
    else:
        records = traced["records"]
        _, store = bench.tracer([bench.binary("layertrace"), "probe-store", "--in",
                                 bench.path("input.bin")], "probe.out")
        per_decode = store["decode_ns"] / store["records"]
        m["puftestbed.store.reader.wait_ns_per_record"] = traced["wait_ns"] / records
        m["puftestbed.store.crc32.ns_per_byte"] = store["crc_ns"] / store["crc_bytes"]
        m["puftestbed.store.decode.ns_per_record"] = per_decode
        m["puftestbed.store.reader.corrupt_records"] = traced["corrupt"]
        attributed_ns = per_decode * records + traced["push_ns"]
        if kind == "assess":
            m["pufassess.streaming.push.ns_per_record"] = traced["push_ns"] / records
            m["pufassess.streaming.finish_ms"] = traced["finish_ns"] / 1e6
            m["pufassess.fit.ms"] = traced["fit_ns"] / 1e6
            attributed_ns += traced["finish_ns"] + traced["report_ns"] + traced["fit_ns"]
        else:
            m["pufassess.keylife.push.ns_per_record"] = traced["push_ns"] / records
            _, keygen = bench.tracer([bench.binary("layertrace"), "probe-keygen", "--in",
                                      bench.path("input.bin"), "--profiles", PROFILES],
                                     "probe2.out")
            for p in PROFILE_NAMES:
                m[f"pufkeygen.reconstruct_ns.{p}"] = (
                    keygen[f"reconstruct_ns.{p}"] / keygen[f"reconstructs.{p}"])
                m[f"pufkeygen.enroll_ns.{p}"] = keygen[f"enroll_ns.{p}"] / keygen[f"enrolls.{p}"]
                m[f"pufkeygen.reconstruct_fail_ratio.{p}"] = (
                    traced[f"failures.{p}"] / traced[f"attempts.{p}"])
    m["trace.unattributed_share"] = 1.0 - attributed_ns / trace_cpu_ns
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's shape (no Table I envelope)")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    bench = Bench(args.workload, args.seed, args.shape)
    # Untimed: the first build of a checkout may take minutes.
    bench.cargo_build()
    os.makedirs(bench.work, exist_ok=True)
    try:
        setups = [bench.setup_once() for _ in range(SETUP_REPEATS)]
        rounds = measure(bench, args.seconds, args.trace)
        layers = per_layer(bench, rounds) if args.trace else None
        bench.final_check()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass

    print(f"workload {args.workload} seed {args.seed} shape {args.shape} "
          f"trace {args.trace}: {len(rounds)} rounds, {THREADS} threads, "
          f"{bench.expected} records per invocation")
    values, spec = end_to_end(bench, rounds, setups), E2E
    if layers:
        for name, unit in PER_LAYER:
            print(f"{name:<48} {layers[name]:.6g} {unit}")
        values, spec = layers, PER_LAYER
    f = bench.failures
    print(f"failed_ops_ratio {f.failed / f.attempted:.6g} ratio "
          f"({f.failed} of {f.attempted} records)")
    print(f"calibration_ms   {calibration_ms():.4f} ms (information only)")
    for digest in sorted(bench.digests):
        print(f"digest           {digest}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    correct = not f.problems and f.failed == 0 and all(
        math.isfinite(v) for v in values.values())
    print(json.dumps({"correct": correct, "attempted": f.attempted, "failed": f.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
