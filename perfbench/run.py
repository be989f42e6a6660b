"""Benchmark of the arcposet library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run it from the root of a checkout; it imports the library from ``src/``.
NAME is one of the workloads in ``workloads.py``, or ``all`` to run each
in turn and print one table.  The jobs of a workload are driven from
outside, in-process, through ``arcposet.cli.run``; each pass over them
runs in a fresh child process (``child.py``), one at a time, with
BLAS/OpenMP threads capped at 1.  Passes repeat until ``--seconds`` have
passed (at least three), and every timing is the median over passes of
the pass's time at reference speed (see ``REFERENCE_S``).

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (one
pass, after set-up), ``slowest_job_s`` (the longest single command, by its
median over passes),
``setup_s`` (process start to first job) and ``peak_rss_mb`` (peak RSS of
the pass's process).  ``failed_frac`` is printed with them; it is carried
by ``attempted``/``failed`` in the last line, not as a metric, because it
reads 0 on a healthy commit.  With ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of ``tracer.py``,
plus the tracing overhead.

Every job's output is checked after its pass, outside the timed region
(``checks.py``).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when any job
failed and 2 when the library is missing.  Details of the run, including
the environment and the hash seed of every pass, go to
``.perfbench_out/``.

The hash seed of each pass is fixed by ``hash_seed(seed, pass)``: the
library's collapse step iterates sets of string-labelled faces, so how
much work it leaves for Smith normal form depends on PYTHONHASHSEED.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_job
from workloads import WORKLOADS, jobs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
PASS_TIMEOUT_S = 150
# no pass starts once the run has taken this long, so the command ends
# well within 180 s even when a pass is slower than expected
LAST_START_S = 120
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# On a shared 2-core x86_64 VM (Python 3.11.7) the speed drifted by up to
# 40% from one minute to the next, machine-wide: the same pass took 1.8 s
# in one run and 2.5 s in another, and set-up, which does other work,
# moved with it.  So a few
# samples of a fixed pure-Python loop are timed before and after every
# pass, and each time of the pass is taken at reference speed: multiplied
# by REFERENCE_S over the median of those samples.  The measured times and
# the factor are printed too.
REFERENCE_S = 0.04
REFERENCE_SAMPLES = 4
REFERENCE_LOOPS = 120_000


def reference_sample() -> float:
    """Seconds for a fixed loop of tuple, dict and integer work."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(REFERENCE_LOOPS):
        key = (i % 251, i % 241)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def hash_seed(seed: int, index: int) -> int:
    """PYTHONHASHSEED of pass ``index``: fixed by the workload seed, never by a result."""
    return (seed * 1000 + index) % 2**32


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "transform.swaps_per_canonicalize":
        return "swaps/call"
    return "count"


def run_pass(workload: str, seed: int, index: int, hashing: int, tiny: bool, golden: dict, spans=None) -> dict:
    """Run one pass in a fresh process and check its outputs."""
    tmp = OUT / f"pass-{os.getpid()}-{index}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    listed = jobs(workload, seed, str(tmp), tiny=tiny)
    result_path = tmp / "result.json"
    command = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--tmp", str(tmp), "--out", str(result_path)]
    command += ["--tiny"] if tiny else []
    command += ["--spans", str(spans)] if spans else []
    env = dict(os.environ, PYTHONHASHSEED=str(hashing))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({name: "1" for name in THREAD_CAPS})
    spawned = time.monotonic()
    problem = None
    try:
        try:
            child = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
            if child.returncode:
                problem = (child.stderr.strip().splitlines() or [f"exit code {child.returncode}"])[-1]
        except subprocess.TimeoutExpired:
            problem = f"pass timed out after {PASS_TIMEOUT_S} s"
        if problem:
            # a pass that did not finish fails all of its jobs
            return {"hash_seed": hashing, "attempted": len(listed), "failed": len(listed), "failures": [("pass", problem)]}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        failures = []
        for job, outcome in zip(listed, result["jobs"], strict=True):
            reason = check_job(job, outcome, str(tmp), golden)
            if reason:
                failures.append((job["key"], reason))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "hash_seed": hashing,
        "attempted": len(listed),
        "failed": len(failures),
        "failures": failures,
        "wall_s": result["wall_s"],
        "job_seconds": [outcome["seconds"] for outcome in result["jobs"]],
        "setup_s": result["first_job_at"] - spawned,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "numpy": result["numpy"],
        "layers": result.get("layers"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False, golden=None) -> dict:
    """Passes over one workload for ``seconds``; metrics, pass records and verdict."""
    if golden is None:
        golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    untraced: list[dict] = []
    traced: list[dict] = []
    samples = [reference_sample() for _ in range(REFERENCE_SAMPLES)]

    def bracketed(*args, **kwargs) -> dict:
        nonlocal samples
        done = run_pass(*args, **kwargs)
        after = [reference_sample() for _ in range(REFERENCE_SAMPLES)]
        done["speed_factor"] = REFERENCE_S / statistics.median(samples + after)
        samples = after
        return done
    spans = OUT / f"spans-{workload}{'-tiny' if tiny else ''}-seed{seed}.jsonl"
    while True:
        elapsed = time.monotonic() - started
        if trace:
            done = len(traced) >= MIN_TRACED_PAIRS and elapsed >= seconds
        else:
            done = len(untraced) >= MIN_PASSES and elapsed >= seconds
        if done or (untraced and elapsed >= LAST_START_S):
            break
        # traced runs compare like with like: every pass gets the same hash seed
        index = len(untraced) + len(traced)
        hashing = hash_seed(seed, 0 if trace else index)
        untraced.append(bracketed(workload, seed, index, hashing, tiny, golden))
        if trace:
            traced.append(bracketed(workload, seed, index + 1, hashing, tiny, golden, spans=spans))

    passes = untraced + traced
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "tiny": tiny,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:20],
        "passes": passes,
        "problems": [],
    }
    good = [p for p in untraced if "wall_s" in p]
    good_traced = [p for p in traced if "wall_s" in p]
    if not good or (trace and not good_traced):
        record["metrics"] = {}
        return record
    record["speed_factor"] = statistics.median(p["speed_factor"] for p in good + good_traced)

    def at_speed(chosen: list[dict], value) -> float:
        return statistics.median(value(p) * p["speed_factor"] for p in chosen)

    if not trace:
        # the slowest job is the one with the largest median over passes, so
        # noise cannot make a different job the slowest from pass to pass
        jobs_at_speed = zip(*([t * p["speed_factor"] for t in p["job_seconds"]] for p in good))
        values = {
            "wall_s": at_speed(good, lambda p: p["wall_s"]),
            "slowest_job_s": max(map(statistics.median, jobs_at_speed)),
            "setup_s": at_speed(good, lambda p: p["setup_s"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
        }
        record["measured"] = {
            "wall_s": statistics.median(p["wall_s"] for p in good),
            "slowest_job_s": max(map(statistics.median, zip(*(p["job_seconds"] for p in good)))),
            "setup_s": statistics.median(p["setup_s"] for p in good),
        }
        record["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        return record

    metrics = {}
    for name in good_traced[0]["layers"]:
        if name.endswith("_s"):
            value = at_speed(good_traced, lambda p: p["layers"][name])
        else:
            values = [p["layers"][name] for p in good_traced]
            value = values[0]
            if any(v != value for v in values):
                record["problems"].append(f"{name} differs between traced passes: {values}")
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    untraced_wall = at_speed(good, lambda p: p["wall_s"])
    overhead = at_speed(good_traced, lambda p: p["wall_s"]) - untraced_wall
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": overhead / untraced_wall, "unit": "ratio"}
    record["metrics"] = metrics
    return record


def environment(passes: list[dict]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "arcposet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": next((p["numpy"] for p in passes if "numpy" in p), None),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def print_record(record: dict) -> None:
    print(
        f"workload={record['workload']} seed={record['seed']} trace={int(record['trace'])} "
        f"passes={len(record['passes'])} hash_seeds={sorted({p['hash_seed'] for p in record['passes']})}"
    )
    if "speed_factor" in record:
        print(f"  times at reference speed: measured x {record['speed_factor']:.4f} (median over passes)")
    for name, value in record.get("measured", {}).items():
        print(f"  {'measured ' + name:44s} {value:.6g} s")
    for name, metric in record["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    fraction = record["failed"] / record["attempted"]
    print(f"  {'failed_frac':44s} {fraction:.6g} ratio ({record['failed']} of {record['attempted']} jobs)")
    for key, reason in record["failures"]:
        print(f"  FAILED {key[:100]}: {reason}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="the small variant of each workload (self-tests)")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "arcposet" / "cli.py").is_file():
        print(f"perfbench: no arcposet library under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [measure(name, args.seed, args.seconds, bool(args.trace), args.tiny) for name in names]
    env = environment([p for r in records for p in r["passes"]])
    for record in records:
        print_record(record)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    OUT.mkdir(exist_ok=True)
    details = OUT / f"result-{args.workload}{'-tiny' if args.tiny else ''}-seed{args.seed}-trace{args.trace}.json"
    details.write_text(json.dumps({"env": env, "records": records}, indent=1), encoding="utf-8")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and all(r["metrics"] and not r["problems"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
