"""Record the golden stdout of every fixed-input job in golden.json.

    PYTHONPATH=src python3 perfbench/make_golden.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  The golden outputs in this directory were recorded at the
commit that added the benchmark, before any library change.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

from arcposet import cli

from workloads import TMP, WORKLOADS, jobs

BENCH = Path(__file__).resolve().parent


def main() -> None:
    tmp = BENCH.parent / ".perfbench_out" / "golden-tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    golden = {}
    try:
        for workload in WORKLOADS:
            for tiny in (False, True):
                for job in jobs(workload, 0, str(tmp), tiny=tiny):
                    if "golden" not in job["checks"]:
                        continue
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        rc = cli.run(job["argv"])
                    if rc != 0:
                        raise SystemExit(f"{job['key']} exited {rc}")
                    golden[job["key"]] = out.getvalue().replace(str(tmp), TMP)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(golden)} golden outputs written")


if __name__ == "__main__":
    main()
