#!/usr/bin/env python3
"""Whole-search benchmark of swhybrid (see README.md in this directory).

Run from the root of a swhybrid checkout:

    python3 bench_e2e/run.py --workload paper40 --seed 1 --seconds 20 --trace 0

Builds the library, the bench_e2e program and swhybrid_search into
.bench_build/ (first run only), generates the workload's FASTA inputs
from the seed, runs bench_e2e's timed searches, checks the hits, runs
the CLI parity check, and prints as its last stdout line one JSON object
with the keys correct, attempted, failed and metrics. Exits non-zero,
without that line, when the checkout cannot be built or a step fails;
exits 1 after printing it when a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
SWH_BUILD = BUILD / "swh"
BENCH = SWH_BUILD / "bench_e2e"
CLI = SWH_BUILD / "examples" / "swhybrid_search"

WORKLOADS = ("paper40", "homolog", "short_socket")
# Limits for one step, so that a hung step is killed and fails the run:
# generation, the parity check and the CLI take seconds; the search step
# takes --seconds plus one overrunning search, set-ups and checks.
STEP_TIMEOUT_S = 60
SEARCH_EXTRA_S = 90


def fail(msg):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False).returncode


def build():
    """Configures (once) and builds bench_e2e and the CLI."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a swhybrid source checkout")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    if not (SWH_BUILD / "CMakeCache.txt").is_file():
        rc = run_logged(
            ["cmake", "-S", str(ROOT), "-B", str(SWH_BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
             "-DSWH_BUILD_TESTS=OFF", "-DSWH_BUILD_BENCH=OFF",
             "-DSWH_BUILD_EXAMPLES=ON",
             f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'bench_e2e.cmake'}"],
            log, 300)
        if rc != 0:
            shutil.rmtree(SWH_BUILD, ignore_errors=True)
            fail(f"cmake configure failed, see {log}")
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_logged(["cmake", "--build", str(SWH_BUILD), "-j", jobs,
                     "--target", "bench_e2e", "swhybrid_search"], log, 840)
    if rc != 0:
        fail(f"build failed, see {log}")


def bench(*args, timeout=STEP_TIMEOUT_S):
    """Runs a bench_e2e command; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(BENCH), *map(str, args)], capture_output=True,
                          text=True, timeout=timeout, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1):
        fail(f"bench_e2e {args[0]} exited {proc.returncode}")
    return proc.returncode, proc.stdout.splitlines()


def generate(workload, seed, work):
    """Writes the workload's inputs; returns (sizes, sha256 of both files)."""
    rc, out = bench("generate", "--workload", workload, "--seed", seed,
                     "--dir", work)
    if rc != 0:
        fail(f"generating {workload} failed")
    digest = hashlib.sha256()
    for name in ("queries.fa", "database.fa"):
        digest.update((work / name).read_bytes())
    return json.loads(out[-1]), digest.hexdigest()


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal (guest time is
    # already inside user and nice)
    return fields[7], sum(fields[:8])


def hit_rows(path):
    return path.read_text().splitlines()


def cli_parity(seed, work):
    """The real swhybrid_search and bench_e2e (in-process and socket)
    must write identical hits for the same generated files."""
    pdir = work / "parity"
    pdir.mkdir()
    generate("parity", seed, pdir)
    rc, _ = bench("parity", "--dir", pdir)
    if rc != 0:
        return False
    with open(pdir / "cli.log", "wb") as log:
        rc = subprocess.run(
            [str(CLI), str(pdir / "queries.fa"), str(pdir / "database.fa"),
             "--slaves", "sse:3", "--out", str(pdir / "cli.tsv")],
            stdout=log, stderr=subprocess.STDOUT, timeout=STEP_TIMEOUT_S,
            check=False).returncode
    if rc != 0:
        return False
    cli = hit_rows(pdir / "cli.tsv")
    return len(cli) > 1 and all(
        hit_rows(pdir / f"bench_{t}.tsv") == cli
        for t in ("inproc", "socket"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sizes, digest = generate(args.workload, args.seed, work)
        ticks0 = cpu_ticks()
        rc, out = bench("search", "--workload", args.workload,
                         "--seed", args.seed, "--dir", work,
                         "--seconds", args.seconds, "--trace", args.trace,
                         timeout=args.seconds + SEARCH_EXTRA_S)
        ticks1 = cpu_ticks()
        if not out or not out[-1].startswith("{"):
            fail("search printed no result")
        result = json.loads(out[-1])
        provenance = {}
        for line in out[:-1]:
            if line.startswith("provenance: "):
                provenance = json.loads(line[len("provenance: "):])
            else:
                print(line)
        parity = cli_parity(args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Share of the machine's CPU time a hypervisor took from this VM
    # during the searches: the host noise that the time metrics carry.
    steal = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    provenance.update(input_digest=digest, inputs=sizes, cli_parity=parity,
                      host_steal_frac=steal)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    record = dict(result, provenance=provenance)
    (results / f"{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    correct = bool(result["correct"]) and parity and rc == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
