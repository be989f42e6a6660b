"""One pass over a workload's jobs, in a fresh process started by run.py.

    python3 perfbench/child.py --workload W --seed N --tmp DIR --out FILE [--tiny] [--spans FILE]

Everything before the first job (interpreter start, ``import arcposet``,
making the inputs) is set-up.  The jobs run one after another through
``arcposet.cli.run`` with stdout captured; their outputs, per-job seconds,
the pass's wall time and the process's peak RSS are written to ``--out``
as JSON.  With ``--spans`` the pass is traced: its spans go to that file
and its per-layer metrics into ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
import traceback


def peak_rss_kb() -> int:
    """High-water RSS of this process since it started, in KiB.

    ``ru_maxrss`` is not used when /proc is there: exec keeps the peak of
    the image it replaces, and with vfork that is the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import numpy
    from arcposet import cli

    import workloads

    jobs = workloads.jobs(args.workload, args.seed, args.tmp, tiny=args.tiny)
    tracer = None
    if args.spans:
        import tracer as tracing

        tracer = tracing.install()

    outcomes = []
    first_job_at = time.monotonic()
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(job["argv"])
        except Exception:  # a job that raises is a failed job, not a failed pass
            error = traceback.format_exc()
        seconds = time.perf_counter() - began
        outcomes.append(
            {"rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue(), "seconds": seconds}
        )
    wall = time.perf_counter() - start

    result = {
        "first_job_at": first_job_at,
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb(),
        "numpy": numpy.__version__,
        "jobs": outcomes,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
