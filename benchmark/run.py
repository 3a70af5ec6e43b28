#!/usr/bin/env python3
"""End-to-end repair ledger: builds dbrepair_ledger and runs its workloads.

Two ways to run it, both from anywhere inside the checkout:

  python3 benchmark/run.py --seed 1
      Every workload, each in its own process: first an untraced pass (the
      end-to-end metrics), then a traced pass (the per-layer split). Prints
      every metric as `workload metric value unit`, runs the correctness
      checks, writes one results JSON (see --out) and exits non-zero if any
      check failed.

  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
      One pass of one workload. The last line of stdout is one JSON object
      {"correct", "attempted", "failed", "metrics"} holding the end-to-end
      metrics (trace 0) or the per-layer metrics (trace 1) BENCHMARK.json
      lists; a layer the workload bypasses reads 0.

The build goes to --build-dir, else $CARGO_TARGET_DIR, else .bench_build/,
configured as Release; a build directory configured otherwise is refused.
Standard library only.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["oneshot-clientbuy", "cli-csv-hotspot", "session-stream",
             "server-mixed"]
ONESHOT = {"oneshot-clientbuy", "cli-csv-hotspot"}
# The staged replay must account for the op it replays within this share.
UNATTRIBUTED_LIMIT = 0.15
# A one-workload run must end within 180 s; the ledger process gets less.
PROCESS_TIMEOUT_S = 170
# Back the ledger's heap with transparent huge pages: fewer TLB-miss page
# walks leave the timings less exposed to memory contention from other
# tenants of a shared host (see README.md, "Host note").
LEDGER_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- building

def build_dir_from(args):
    raw = args.build_dir or os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(raw)
    return path if path.is_absolute() else ROOT / path


def cached_build_type(build_dir):
    """CMAKE_BUILD_TYPE of an existing build tree, None when unconfigured."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    match = re.search(r"^CMAKE_BUILD_TYPE:[^=]*=(.*)$", cache.read_text(),
                      re.MULTILINE)
    return match.group(1).strip() if match else ""


def build(build_dir):
    """Configures (Release) and builds dbrepair_ledger; returns its path."""
    build_type = cached_build_type(build_dir)
    if build_type is None:
        build_step(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"])
    elif build_type != "Release":
        raise SystemExit(
            f"refusing {build_dir}: CMakeCache.txt says CMAKE_BUILD_TYPE="
            f"'{build_type}', not Release; its timings are not baselines")
    build_step(["cmake", "--build", str(build_dir), "--target",
                "dbrepair_ledger", "-j", str(os.cpu_count() or 1)])
    return build_dir / "dbrepair_ledger"


def build_step(command):
    """Runs one build command with its output on stderr."""
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        raise SystemExit(f"build step failed: {' '.join(command)}")


# ----------------------------------------------------------------- running

def run_ledger(binary, build_dir, workload, args, trace):
    """Runs one pass in its own process; returns its JSON record."""
    work = build_dir / "work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = build_dir / "spans" / f"{workload}-seed{args.seed}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--workdir", str(work)]
    if trace:
        command += ["--spans-out", str(spans)]
    if args.smoke:
        command.append("--smoke")
    try:
        # On timeout run() kills the child and waits for it before raising.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=LEDGER_ENV, timeout=PROCESS_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"{workload}: dbrepair_ledger exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failed_checks(record):
    return [f"check {c['name']} failed: {c['detail']}"
            for c in record["checks"] if not c["ok"]]


def pick_metrics(record, spec, trace):
    """The metrics BENCHMARK.json lists for this pass, plus the names that
    are missing. A per-layer metric the workload does not report belongs to
    a layer it bypasses and reads 0."""
    metrics = record["metrics"]
    picked, missing = {}, []
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name in metrics:
            picked[name] = metrics[name]
        elif trace:
            picked[name] = {"value": 0.0, "unit": entry["unit"]}
        else:
            missing.append(name)
    return picked, missing


def print_metrics(workload, metrics):
    for name, m in sorted(metrics.items()):
        print(f"{workload} {name} {m['value']!r} {m['unit']}")


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    # The ceiling keeps git from reading any repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def single_pass(args, binary, build_dir, spec):
    """One workload, one pass, ending in the one-line JSON result."""
    record = run_ledger(binary, build_dir, args.workload, args, args.trace)
    metrics, missing = pick_metrics(record, spec, args.trace)
    problems = failed_checks(record) + [f"metric {n} missing" for n in missing]
    for problem in problems:
        log(f"{args.workload}: {problem}")
    print_metrics(args.workload, metrics)
    correct = not problems and record["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": record["attempted"],
                      "failed": record["failed"] + len(missing),
                      "metrics": metrics}))
    return 0 if correct else 1


def all_passes(args, binary, build_dir, spec):
    """Every workload, untraced then traced; writes the results file."""
    results = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "glibc_tunables": LEDGER_ENV["GLIBC_TUNABLES"],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workloads": {},
    }
    attempted = failed = 0
    problems = []
    for workload in WORKLOADS:
        plain = run_ledger(binary, build_dir, workload, args, 0)
        traced = run_ledger(binary, build_dir, workload, args, 1)
        end_to_end, missing = pick_metrics(plain, spec, 0)
        per_layer, _ = pick_metrics(traced, spec, 1)
        print_metrics(workload, end_to_end)
        print_metrics(workload, per_layer)

        # Cross-pass checks: the traced pass must repair to the same
        # database, and its staged replay must account for the whole op.
        extra = [f"metric {n} missing" for n in missing]
        if plain["digest"] != traced["digest"]:
            extra.append(f"untraced digest {plain['digest']} != traced "
                         f"digest {traced['digest']}")
        if workload in ONESHOT and not args.smoke:
            op_s = traced["metrics"]["op_s"]["value"]
            unattributed = traced["metrics"]["repair.unattributed_s"]["value"]
            if abs(unattributed) > UNATTRIBUTED_LIMIT * op_s:
                extra.append(f"staged replay leaves {unattributed:.3f} s of "
                             f"a {op_s:.3f} s op unattributed")
        attempted += plain["attempted"] + traced["attempted"]
        failed += plain["failed"] + traced["failed"] + len(extra)
        problems += [f"{workload}: {p}" for p in
                     failed_checks(plain) + failed_checks(traced) + extra]
        results["workloads"][workload] = {
            "threads": plain["params"]["num_threads"],
            "params": plain["params"],
            "digest": plain["digest"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"] + len(extra),
            "checks": plain["checks"] + traced["checks"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    correct = not problems and failed == 0
    results.update(correct=correct, attempted=attempted, failed=failed,
                   error_rate=failed / max(1, attempted), problems=problems)
    out = Path(args.out) if args.out else (
        build_dir / "results" /
        f"ledger-seed{args.seed}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    for problem in problems:
        log(f"PROBLEM {problem}")
    log(f"results written to {out}")

    status = 0 if correct else 1
    if args.self_compare:
        compare = subprocess.run([sys.executable, str(HERE / "compare.py"),
                                  "--base", str(out), "--new", str(out)])
        status = status or compare.returncode
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "results": str(out)}))
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one pass of one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measurement budget per run "
                        "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; same code paths and checks")
    parser.add_argument("--build-dir")
    parser.add_argument("--out", help="results JSON path (all-workload mode)")
    parser.add_argument("--self-compare", action="store_true",
                        help="compare the results file with itself")
    args = parser.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = 1 if args.smoke else spec["run_seconds"]
    build_dir = build_dir_from(args)
    binary = build(build_dir)
    if args.workload:
        return single_pass(args, binary, build_dir, spec)
    return all_passes(args, binary, build_dir, spec)


if __name__ == "__main__":
    sys.exit(main())
