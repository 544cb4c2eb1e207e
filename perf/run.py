#!/usr/bin/env python3
"""Outside-in benchmark of the wP2P simulator (standard library only).

Builds perf/ (Release, and with -pg for the per-layer table) against the real
src/ libraries, runs the wp2p_perf driver one process at a time, checks every
run's outcome digest, and prints each metric by name with its unit.

  python3 perf/run.py                  every workload, pinned seed, a table
  python3 perf/run.py --profile        per-layer table (counts + gprof)
  python3 perf/run.py --smoke          determinism self-test (perf/ci.sh)
  python3 perf/run.py --repin          rewrite perf/pins.json (behaviour change)
  python3 perf/run.py compare PARENT_DIR CHANGE_DIR
  python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                       one workload; last stdout line is JSON

A run with seed N executes the workload on sub-seeds N*65536 + i, i = 0, 1, ...
one process each, in two passes over them, and reports median times (each
1-sim-s slice at its faster pass, scaled by a host-speed probe run before each
process) and mean peak memory. --reps fixes how many
sub-seeds; --seconds S picks the count that takes about S seconds on the
reference host, the same count on any host. Every invocation writes one JSON file (--out,
by default under build-perf/results/); `compare` reads two directories of them.
See perf/README.md.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
PLAIN_DIR = ROOT / "build-perf"
PG_DIR = ROOT / "build-perf-pg"
PINS = PERF / "pins.json"

WORKLOADS = ["wired-swarm", "mobile-wp2p", "flyweight-crowd", "checked-roam"]
PIN_SEED = 1
PINNED_REPS = 8       # sub-seeds of PIN_SEED pinned in pins.json
PROFILE_REPS = 3      # sub-seeds of a per-layer run; each costs four processes
MIN_REPS = 5          # a timed run takes at least this many sub-seeds
PASSES = 2            # a timed run runs each of its sub-seeds this many times
REP_TIMEOUT_S = 60    # one driver process; reps take about a second
# Host seconds one driver process and its host probe cost on the reference
# host, a 4-core Intel Xeon VM, in its slowest spell seen. `--seconds S` runs
# a fixed round(S / (PASSES * cost)) sub-seeds, so a faster change times
# exactly the inputs its parent timed.
REP_COST_S = {"wired-swarm": 1.7, "mobile-wp2p": 1.3, "flyweight-crowd": 0.65,
              "checked-roam": 2.65}
# Host seconds of one `calibrate` round on the reference host in a quiet
# spell. Times are reported in seconds of that host: measured seconds times
# PROBE_REF_S over the run's mean probe time.
PROBE_REF_S = 0.050
REPLAY_EVENTS = 200000
SMOKE_HORIZON_S = "30"

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
COUNTS = [
    "sim.events", "sim.queue_peak", "net.packets", "net.drops", "net.mac_retx",
    "net.address_changes", "bt.payload_bytes", "bt.pieces", "bt.blocks_requeued",
    "core.acks_decoupled", "core.dupacks_dropped", "core.lihd_updates",
    "exp.fly_blocks_served", "trace.events", "trace.violations", "trace.jsonl_lines",
]
MODULES = ["sim", "util", "net", "tcp", "bt", "core", "trace", "exp"]
SHARES = MODULES + ["other"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A build or set-up failure: no result can be printed."""


# --- Build ------------------------------------------------------------------


def build(profiled=False):
    """Configure once, then (re)build; returns the wp2p_perf binary."""
    build_dir = PG_DIR if profiled else PLAIN_DIR
    commands = []
    if not (build_dir / "CMakeCache.txt").exists():
        commands.append(["cmake", "-S", str(PERF), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release",
                         "-DWP2P_PERF_GPROF=" + ("ON" if profiled else "OFF")])
    jobs = str(len(os.sched_getaffinity(0)))
    commands.append(["cmake", "--build", str(build_dir), "--parallel", jobs])
    for command in commands:
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=400)
        except (OSError, subprocess.TimeoutExpired) as err:
            raise BenchError(f"{' '.join(command[:2])}: {err}") from err
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(command)} failed:\n{(proc.stdout + proc.stderr)[-3000:]}")
    return build_dir / "wp2p_perf"


# --- One driver process -------------------------------------------------------


def sub_seed(seed, i):
    return (seed * 65536 + i) % 2**64


def probe_host(binary):
    """Host seconds of one round of perf/calibrate.cpp's fixed work, now."""
    try:
        proc = subprocess.run([str(binary.parent / "calibrate")], capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S, check=True)
        return float(proc.stdout.split()[0])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as err:
        raise BenchError(f"calibrate: {err}") from err


def run_driver(binary, workload, seed, *extra, cwd=None):
    """Runs wp2p_perf once; returns (result dict, None) or (None, problem)."""
    work = binary.parent / "work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = Path(tmp) / "rep.json"
        command = [str(binary), workload, "--seed", str(seed), "--json", str(out), *extra]
        try:
            proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                                  timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {REP_TIMEOUT_S} s"
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        try:
            return json.loads(out.read_text()), None
        except (OSError, ValueError) as err:
            return None, f"unreadable result: {err}"


def check(result, pin=None, same_as=None, sim_counts_of=None):
    """The reasons a run is wrong, as one string, or None when it is right."""
    counts = result["counts"]
    problems = []
    if counts["sim.events"] == 0 or counts["bt.payload_bytes"] == 0:
        problems.append("the swarm moved no data")
    if result["pushes"] < counts["sim.events"]:
        problems.append(f"{result['pushes']} pushes < {counts['sim.events']} events")
    if result["traced"]:
        if counts["trace.violations"] != 0:
            problems.append(f"{counts['trace.violations']} invariant violations")
        if counts["trace.jsonl_lines"] != counts["trace.events"]:
            problems.append("JSONL lines differ from trace events")
    if pin is not None and result["digest"] != pin["digest"]:
        diff = [f"{k} {pin['counts'].get(k)}->{counts[k]}" for k in COUNTS
                if counts[k] != pin["counts"].get(k)]
        problems.append(f"digest {result['digest']} != pinned {pin['digest']} "
                        f"({', '.join(diff) or 'per-client outcome'})")
    if same_as is not None and result["digest"] != same_as["digest"]:
        problems.append(f"digest {result['digest']} != {same_as['digest']} of the same input")
    if sim_counts_of is not None:
        diff = [k for k in COUNTS if not k.startswith("trace.")
                and counts[k] != sim_counts_of["counts"][k]]
        if diff:
            problems.append("toggling the tracer changed " + ", ".join(diff))
    return "; ".join(problems) or None


class Tally:
    """Attempted and failed driver processes of one workload."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def record(self, label, problem):
        self.attempted += 1
        if problem:
            self.problems.append(f"{label}: {problem}")
            log(f"  FAILED {label}: {problem}")
        return problem is None

    def summary(self, metrics):
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": len(self.problems), "metrics": metrics, "problems": self.problems}


def load_pins():
    try:
        return json.loads(PINS.read_text())
    except (OSError, ValueError):
        return {"workloads": {}}


def pin_for(pins, workload, seed):
    for entry in pins["workloads"].get(workload, []):
        if entry["sub_seed"] == seed:
            return entry
    return None


# --- End-to-end measurement ---------------------------------------------------


def reps_for(workload, seconds):
    """The fixed number of sub-seeds that `seconds` buys on the reference host."""
    return max(MIN_REPS, round(seconds / (PASSES * REP_COST_S[workload])))


def faster_slices(runs):
    """Host seconds of one input's run, each 1-sim-s slice at its fastest pass."""
    return sum(min(times) for times in zip(*(r["slice_s"] for r in runs)))


def measure(binary, workload, seed, reps):
    """Runs the first `reps` sub-seeds of `seed` in PASSES passes; summarises
    each end-to-end metric."""
    pins = load_pins()
    tally = Tally()
    reference = pin_for(pins, workload, sub_seed(PIN_SEED, 0))
    result, err = run_driver(binary, workload, sub_seed(PIN_SEED, 0))
    tally.record("pinned reference", err or (check(result, pin=reference) if reference
                                             else "no pin in perf/pins.json"))
    # The host slows in bursts of a second or two, by up to a half. Each pass
    # runs every sub-seed once, so the passes over one input lie half a run
    # apart and rarely share a burst; keeping each slice's fastest pass drops
    # the bursts. Every later pass must reproduce the first's digest. Slower
    # drift, by up to a half over minutes, moves the probe run before each
    # process as much as the driver, and dividing by the probe cancels it.
    runs = {}
    probes = []
    for p in range(PASSES):
        for i in range(reps):
            s = sub_seed(seed, i)
            if p > 0 and s not in runs:
                continue  # its first pass already failed
            probes.append(probe_host(binary))
            result, err = run_driver(binary, workload, s)
            first = runs[s][0] if p > 0 else None
            if tally.record(f"sub-seed {s} pass {p + 1}",
                            err or check(result, pin=pin_for(pins, workload, s), same_as=first)):
                runs.setdefault(s, []).append(result)
            else:
                runs.pop(s, None)
    good = [r for r in runs.values() if len(r) == PASSES]
    metrics = {}
    host = {}
    if good:
        # Times are medians over inputs: the calendar queue makes some seeds
        # 1.5x slower than others. Memory sees no host noise, only inputs:
        # checked-roam's checker state spans 17-23 MB across seeds, and a mean
        # averages that best.
        host = {"probe_s": statistics.mean(probes),
                "wall_s": statistics.median(faster_slices(r) for r in good),
                "setup_s": statistics.median(min(x["setup_s"] for x in r) for r in good)}
        scale = PROBE_REF_S / host["probe_s"]
        values = {"wall_s": host["wall_s"] * scale, "setup_s": host["setup_s"] * scale,
                  "peak_rss_mb": statistics.mean(x["peak_rss_mb"] for r in good for x in r)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    summary = tally.summary(metrics)
    summary["reps"] = len(good)
    summary["uncalibrated"] = host
    return summary


# --- Per-layer measurement ----------------------------------------------------

FLAT_LINE = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+(?:(\d+)\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
MODULE_REF = re.compile(r"wp2p::(\w+)::")
# SmallFn<N>::vtable<Closure, Inline>()::{lambda(void*[, void*])#K}: the closure
# type, the trampoline's parameters and its lambda number.
TRAMPOLINE = re.compile(r"SmallFn<\d+ul>::vtable<(.*), (?:true|false)>\(\)::"
                        r"\{lambda\((void\*(?:, void\*)?)\)#(\d+)\}")


def attribute(symbol):
    """The layer a gprof symbol's self time belongs to, and its trampoline role."""
    trampoline = TRAMPOLINE.search(symbol)
    if trampoline:
        closure, params, number = trampoline.groups()
        if params == "void*, void*":
            return "sim", "relocate"  # the queue moves closures around
        if number != "1":
            return "sim", "destroy"
        symbol = closure  # invoke: the closure's enclosing function decides
    if "::run_slices(" in symbol:
        return "sim", None  # run_until, step and pop_min inline into the slice loop
    for module in MODULE_REF.findall(symbol):
        if module in MODULES:
            return module, None
    return "other", None


def reduce_profile(binary, gmon_files):
    """Self-time shares per layer and exact call counts from gprof -b -p."""
    summed = gmon_files[0].parent / "gmon.sum"
    subprocess.run(["gprof", "-s", str(binary), *map(str, gmon_files)], cwd=summed.parent,
                   check=True, capture_output=True, timeout=120)
    flat = subprocess.run(["gprof", "-b", "-p", str(binary), str(summed)], check=True,
                          capture_output=True, text=True, timeout=120).stdout
    self_s = dict.fromkeys(SHARES, 0.0)
    calls = {"relocate": 0, "pump": 0}
    for line in flat.splitlines():
        match = FLAT_LINE.match(line)
        if not match:
            continue
        seconds, count, symbol = float(match.group(1)), int(match.group(2) or 0), match.group(3)
        module, role = attribute(symbol)
        self_s[module] += seconds
        if role == "relocate":
            calls["relocate"] += count
        elif symbol.startswith("wp2p::bt::Client::pump_uploads("):
            calls["pump"] += count
    total = sum(self_s.values())
    shares = {m: (self_s[m] / total if total else 0.0) for m in SHARES}
    return shares, calls


def profile(plain_binary, pg_binary, workload, seed):
    """Exact counts, gprof table and tracing cost over PROFILE_REPS sub-seeds."""
    pins = load_pins()
    tally = Tally()
    sums = dict.fromkeys(COUNTS, 0)
    pushes = 0
    wall = {"plain": 0.0, "pg": 0.0, "on": 0.0, "off": 0.0}
    prof_dir = PG_DIR / "work" / f"gmon-{os.getpid()}"
    shutil.rmtree(prof_dir, ignore_errors=True)
    prof_dir.mkdir(parents=True)
    gmon_files = []
    try:
        for i in range(PROFILE_REPS):
            s = sub_seed(seed, i)
            plain, err = run_driver(plain_binary, workload, s)
            if not tally.record(f"sub-seed {s}",
                                err or check(plain, pin=pin_for(pins, workload, s))):
                continue
            for name in COUNTS:
                sums[name] += plain["counts"][name]
            pushes += plain["pushes"]
            wall["plain"] += plain["wall_s"]

            pg, err = run_driver(pg_binary, workload, s, cwd=prof_dir)
            if tally.record(f"-pg sub-seed {s}", err or check(pg, same_as=plain)):
                wall["pg"] += pg["wall_s"]
                gmon = prof_dir / f"gmon.{i}"
                (prof_dir / "gmon.out").rename(gmon)
                gmon_files.append(gmon)

            # The same input with the tracer the other way round.
            toggle = "off" if plain["traced"] else "on"
            flip, err = run_driver(plain_binary, workload, s, "--tracer", toggle)
            if tally.record(f"tracer-{toggle} sub-seed {s}",
                            err or check(flip, sim_counts_of=plain)):
                wall[toggle] += flip["wall_s"]
                wall["on" if toggle == "off" else "off"] += plain["wall_s"]
        if not gmon_files:
            raise BenchError(f"{workload}: no -pg run succeeded")
        shares, calls = reduce_profile(pg_binary, gmon_files)
    finally:
        shutil.rmtree(prof_dir, ignore_errors=True)

    s = sub_seed(seed, 0)
    replay_run, err = run_driver(plain_binary, workload, s, "--tracer", "on",
                                 "--replay", str(REPLAY_EVENTS))
    replay = {"events": 0, "jsonl_ns_per_event": 0.0, "checker_ns_per_event": 0.0}
    if tally.record(f"replay sub-seed {s}", err or check(replay_run)):
        replay = replay_run["replay"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {name: {"value": sums[name], "unit": "bytes" if name == "bt.payload_bytes"
                      else "count"} for name in COUNTS}
    for module in SHARES:
        metrics[f"{module}.self_share"] = {"value": shares[module], "unit": "share"}
    metrics["sim.push_calls"] = {"value": pushes, "unit": "count"}
    metrics["sim.closure_moves"] = {"value": calls["relocate"], "unit": "count"}
    metrics["bt.pump_calls"] = {"value": calls["pump"], "unit": "count"}
    metrics["sim.cancel_share"] = {"value": 1.0 - ratio(sums["sim.events"], pushes),
                                   "unit": "share"}
    metrics["profile.overhead"] = {"value": ratio(wall["pg"], wall["plain"]), "unit": "x"}
    metrics["trace.overhead_share"] = {"value": 1.0 - ratio(wall["off"], wall["on"]),
                                       "unit": "share"}
    for sink in ("jsonl", "checker"):
        metrics[f"trace.{sink}_ns_per_event"] = {"value": replay[f"{sink}_ns_per_event"],
                                                 "unit": "ns/event"}
    summary = tally.summary(metrics)
    summary["reps"] = PROFILE_REPS
    summary["replayed_events"] = replay["events"]
    return summary


# --- Self-test and pins -------------------------------------------------------


def smoke():
    """Same seed -> same digest and counts; -pg agrees; checked-roam is clean."""
    plain_binary, pg_binary = build(), build(profiled=True)
    failures = []
    horizon = ["--horizon", SMOKE_HORIZON_S]
    prof_dir = PG_DIR / "work" / f"smoke-{os.getpid()}"
    prof_dir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in WORKLOADS:
            runs = {}
            for label, binary, seed in (("first", plain_binary, 1), ("second", plain_binary, 1),
                                        ("seed 2", plain_binary, 2), ("-pg", pg_binary, 1)):
                result, err = run_driver(binary, workload, seed, *horizon, cwd=prof_dir)
                if err:
                    failures.append(f"{workload} {label}: {err}")
                runs[label] = result
            if None in runs.values():
                continue
            first = runs["first"]
            seed2 = runs["seed 2"]
            problems = [
                ("second run", check(runs["second"], same_as=first)),
                ("second run counts", None if runs["second"]["counts"] == first["counts"]
                 else "counts differ"),
                ("-pg run", check(runs["-pg"], same_as=first)),
                ("seed 2", check(seed2) or (
                    "same digest as seed 1" if seed2["digest"] == first["digest"] else None)),
                ("first run", check(first)),
            ]
            for label, problem in problems:
                if problem:
                    failures.append(f"{workload} {label}: {problem}")
            log(f"smoke {workload}: digest {first['digest']}, "
                f"{first['counts']['sim.events']} events"
                + (f", {first['counts']['trace.events']} trace events, "
                   f"{first['counts']['trace.violations']} violations" if first["traced"] else ""))
    finally:
        shutil.rmtree(prof_dir, ignore_errors=True)
    for failure in failures:
        log("SMOKE FAILED " + failure)
    log("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def repin():
    """Re-pin the digests of PIN_SEED's first PINNED_REPS sub-seeds."""
    binary = build()
    pins = {"seed": PIN_SEED, "reps": PINNED_REPS,
            "commands": {"run": "python3 perf/run.py", "profile": "python3 perf/run.py --profile",
                         "smoke": "python3 perf/run.py --smoke", "ci": "bash perf/ci.sh"},
            "workloads": {}}
    for workload in WORKLOADS:
        entries = []
        for i in range(PINNED_REPS):
            s = sub_seed(PIN_SEED, i)
            first, err = run_driver(binary, workload, s)
            second, err2 = (None, None) if err else run_driver(binary, workload, s)
            problem = err or err2 or check(first) or check(second, same_as=first)
            if problem:
                log(f"repin {workload} sub-seed {s}: {problem}")
                return 1
            entries.append({"sub_seed": s, "digest": first["digest"], "counts": first["counts"]})
        pins["workloads"][workload] = entries
        log(f"repin {workload}: {PINNED_REPS} sub-seeds pinned")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


# --- compare ------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_dir, change_dir):
    """Parent vs change, by the rules in perf/README.md; one row per workload."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    def load(directory):
        files = sorted(Path(directory).glob("*.json"))
        return [json.loads(f.read_text()) for f in files]

    parent, change = load(parent_dir), load(change_dir)
    verdict_rc = 0
    print(f"{'workload':16} {'pairs':>5} {'fail p/c':>11}  " +
          "  ".join(f"{name:46}" for name in rules))
    workloads = [w for w in WORKLOADS if any(w in f["results"] for f in parent)
                 and any(w in f["results"] for f in change)]
    for workload in workloads:
        p_runs = [f["results"][workload] for f in parent if workload in f["results"]]
        c_runs = [f["results"][workload] for f in change if workload in f["results"]]
        pairs = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:pairs], c_runs[:pairs]
        p_fail = sum(r["failed"] for r in p_runs) / max(1, sum(r["attempted"] for r in p_runs))
        c_fail = sum(r["failed"] for r in c_runs) / max(1, sum(r["attempted"] for r in c_runs))
        cells = []
        for name, (bound, better) in rules.items():
            pv = [r["metrics"][name]["value"] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in c_runs if name in r["metrics"]]
            n = min(len(pv), len(cv))
            if n < 10:
                cells.append(f"unresolved: {n} pairs < 10".ljust(46))
                verdict_rc = 1
                continue
            pv, cv = pv[:n], cv[:n]
            sign = 1.0 if better == "lower" else -1.0
            pq1, pmed, pq3 = quartiles(pv)
            _, cmed, _ = quartiles(cv)
            worse_by = sign * (cmed - pmed) / pmed
            wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) < 0)
            every_better = max(sign * v for v in cv) < min(sign * v for v in pv)
            if (pq3 - pq1) / pmed > bound and not every_better:
                verdict = "unresolved"
                verdict_rc = 1
            elif worse_by > bound:
                verdict = "REGRESSION"
                verdict_rc = 1
            elif (wins >= 0.9 * n and abs(cmed - pmed) > pq3 - pq1 and worse_by < 0
                  and c_fail <= p_fail):
                verdict = "gain"
            else:
                verdict = "same"
            cells.append(f"{pmed:.4g} [{pq1:.3g},{pq3:.3g}] -> {cmed:.4g} {verdict}".ljust(46))
        row = f"{workload:16} {pairs:>5} {p_fail:>5.3f}/{c_fail:<5.3f}  " + "  ".join(cells)
        print(row.rstrip())
        if c_fail > p_fail:
            verdict_rc = 1
    if not workloads:
        print("no workload appears in both directories")
        verdict_rc = 1
    return verdict_rc


# --- Main ---------------------------------------------------------------------


def write_results(path, document):
    path = Path(path) if path else PLAIN_DIR / "results" / (
        f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")
    log(f"results: {path}")


def print_table(results):
    for workload, summary in results.items():
        print(f"{workload}: runs {summary['attempted']}, runs_failed {summary['failed']}, "
              f"sub-seeds {summary['reps']}")
        for name, metric in summary["metrics"].items():
            value = metric["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {name:28} {shown:>16} {metric['unit']}")
        for problem in summary["problems"]:
            print(f"  FAILED {problem}")


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare PARENT_DIR CHANGE_DIR")
            return 2
        return compare(argv[1], argv[2])

    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float,
                        help="run the sub-seeds that take this long on the reference host")
    length.add_argument("--reps", type=int, help="sub-seeds per workload (default 8)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics instead of end-to-end")
    parser.add_argument("--profile", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repin", action="store_true")
    parser.add_argument("--out", help="results JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.reps is not None and args.reps < 1) or (
            args.seconds is not None and args.seconds <= 0):
        parser.error("--seed, --reps and --seconds must be positive")

    try:
        if args.smoke:
            return smoke()
        if args.repin:
            return repin()
        trace = 1 if args.profile else args.trace
        single = args.workload is not None
        # Both trees are built up front, so later runs in a checkout never wait
        # on a compile.
        plain_binary = build()
        pg_binary = build(profiled=True) if trace or single else None
        results = {}
        for workload in [args.workload] if single else WORKLOADS:
            if trace:
                log(f"{workload}: seed {args.seed}, per-layer")
                results[workload] = profile(plain_binary, pg_binary, workload, args.seed)
                continue
            reps = reps_for(workload, args.seconds) if args.seconds else args.reps or PINNED_REPS
            log(f"{workload}: seed {args.seed}, {reps} sub-seeds")
            results[workload] = measure(plain_binary, workload, args.seed, reps)
    except BenchError as err:
        log(f"run.py: {err}")
        return 2

    write_results(args.out, {"benchmark": "wp2p-perf", "seed": args.seed, "trace": trace,
                             "results": results})
    if single:
        summary = results[args.workload]
        if not summary["metrics"]:
            log("run.py: every run failed; no result")
            return 1
        print(json.dumps({key: summary[key] for key in ("correct", "attempted", "failed",
                                                        "metrics")}))
        return 0 if summary["correct"] else 1
    print_table(results)
    return 0 if all(s["correct"] for s in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
