#!/usr/bin/env python3
"""Build and run the dpcube benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        --pollers P --pool T --clients C --pipeline-threads T
        [--holdout-seed N]
    python3 perfbench/run.py --self-test

Run from the root of a dpcube checkout. The first run configures and
builds libdpcube plus the harness (perfbench/CMakeLists.txt) in Release
under $CARGO_TARGET_DIR (default .bench_build); later runs only check the
build. The harness prints a human summary, a run record, and as its last
line the result JSON this script passes through. A run whose outputs
were not all correct prints its result, names the failures on stderr and
exits 1.

The four thread sizes have no defaults: BENCHMARK.json's command names
them, and --self-test takes them from there.

--self-test runs all four workloads at small size, untraced and traced,
and asserts that every metric named in BENCHMARK.json prints with its
unit, that error_rate is 0, and, on each serve workload, that the round
trip split is sound (see SUM_TOLERANCE and SPLIT_TOLERANCE).
"""

import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("release", "serve_hot", "serve_derive", "serve_ledger")
SIZES = ("pollers", "pool", "clients", "pipeline_threads")
# Self-test: answer + session_self + queue wait + net.self is the mean
# round trip of the replayed frames by construction; it must match the
# mean round trip of every frame of the fixed-rate slices within this
# share, or the replayed sample does not represent them.
SUM_TOLERANCE = 0.15
# Self-test: net.self_us, the residual, must cover the network-layer time
# the server itself measured for a frame (its decode, admit and flush
# spans), less this share of the round trip. A replay that overstates
# session or answer time pushes the residual below the server's own
# network time and fails this check.
SPLIT_TOLERANCE = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no dpcube sources under {ROOT}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_harness",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    check_build_config(out)
    return out / "perfbench_harness"


def flag_set(command):
    args = shlex.split(command)
    ndebug = "-DNDEBUG" in args
    opt = [a for a in args if a.startswith("-O")]
    return ndebug, opt[-1] if opt else "-O0"


def check_build_config(out):
    """Refuses a harness whose translation units disagree with libdpcube's
    on NDEBUG or optimisation level (sync::Mutex changes layout with
    NDEBUG, so such a binary links and then corrupts memory)."""
    cache = (out / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        raise RuntimeError("build dir is not a Release configuration")
    entries = json.loads((out / "compile_commands.json").read_text())
    lib, harness = set(), set()
    for entry in entries:
        flags = flag_set(entry["command"])
        if "/perfbench/harness/" in entry["file"]:
            harness.add(flags)
        elif "/src/" in entry["file"]:
            lib.add(flags)
    if not lib or not harness:
        raise RuntimeError("compile_commands.json lacks library or harness")
    if len(lib | harness) != 1 or not next(iter(lib))[0]:
        raise RuntimeError(
            f"build-config mismatch: libdpcube {sorted(lib)} vs harness "
            f"{sorted(harness)} (need one optimized NDEBUG configuration)")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_harness(binary, args, workload, seed, seconds, trace, small=False):
    """Runs one workload; returns (stdout lines, result dict)."""
    work = build_dir().parent / "run" / f"{workload}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(work), "--pollers", str(args.pollers),
               "--pool", str(args.pool), "--clients", str(args.clients),
               "--pipeline-threads", str(args.pipeline_threads),
               "--commit", source_id()]
    if small:
        command.append("--small")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"harness exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("harness result has the wrong keys")
    return lines[:-1], result


def spec_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(result, trace):
    want = spec_metrics(trace)
    got = result["metrics"]
    problems = []
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} unit {got[name].get('unit')} "
                            f"!= {unit}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} not in BENCHMARK.json")
    return problems


def check_split(m):
    problems = []
    parts = (m["service.answer_us"] + m["service.session_self_us"]
             + m["net.span.queue_us"] + m["net.self_us"])
    rtt = m["net.rtt_all_us"]
    if abs(parts - rtt) > SUM_TOLERANCE * rtt:
        problems.append(
            f"answer+session_self+queue+net.self = {parts:.1f}us vs the "
            f"phase's mean RTT {rtt:.1f}us (tolerance {SUM_TOLERANCE:.0%})")
    server_net = (m["net.span.decode_us"] + m["net.span.admit_us"]
                  + m["net.span.flush_us"])
    if m["net.self_us"] < server_net - SPLIT_TOLERANCE * rtt:
        problems.append(
            f"net.self {m['net.self_us']:.1f}us is below the server's own "
            f"decode+admit+flush {server_net:.1f}us (tolerance "
            f"{SPLIT_TOLERANCE:.0%} of RTT {rtt:.1f}us)")
    return problems


def self_test(binary, args):
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_harness(binary, args, workload, 1, 1, trace,
                                        small=True)
            problems = check_metrics(result, trace)
            if result["failed"] != 0 or not result["correct"]:
                problems.append(
                    f"error_rate {result['failed']}/{result['attempted']}")
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if trace and workload != "release":
                problems.extend(check_split(m))
            status = "PASS" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}")
            for p in problems:
                print(f"  {p}")
            if problems:
                failures.extend(lines[-12:])
                failures.append(f"{workload} trace={trace}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pollers", type=int)
    parser.add_argument("--pool", type=int)
    parser.add_argument("--clients", type=int)
    parser.add_argument("--pipeline-threads", type=int)
    parser.add_argument("--holdout-seed", type=int, default=None,
                        help="seed reserved for validating claims; recorded "
                             "only")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        # The sizes' one source is BENCHMARK.json's command.
        try:
            command = json.loads((ROOT / "BENCHMARK.json").read_text())
        except (OSError, ValueError) as e:
            log(f"perfbench: {e}")
            return 1
        spec_args = parser.parse_args(command["command"][2:])
        for size in SIZES:
            setattr(args, size, getattr(spec_args, size))
    missing = [s for s in SIZES if getattr(args, s) is None]
    if missing:
        parser.error("missing " + ", ".join(
            "--" + s.replace("_", "-") for s in missing))
    if args.clients > (os.cpu_count() or 1):
        parser.error("--clients may not exceed nproc")
    try:
        binary = build()
        if args.self_test:
            return self_test(binary, args)
        if args.workload is None:
            parser.error("--workload is required")
        lines, result = run_harness(binary, args, args.workload, args.seed,
                                    args.seconds, args.trace)
        problems = check_metrics(result, args.trace)
        if problems:
            raise RuntimeError("; ".join(problems))
    except (RuntimeError, OSError, ValueError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    for line in lines:
        print(line)
    if args.holdout_seed is not None:
        print(f"holdout_seed {args.holdout_seed}")
    print(json.dumps(result))
    if not result["correct"] or result["failed"] > 0:
        log(f"perfbench: {result['failed']} of {result['attempted']} ops "
            f"failed")
        for line in lines:
            if line.lstrip().startswith("FAILED:"):
                log(line.strip())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
