"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer counts that only reach the tracer through a ``from .x import y``
# binding or a class patch, so a wrapper installed in one place would miss them
REACHED = {
    "regular-forms": ["matrix.enumerate_matrices.results", "transform.swap.calls", "diagram.block_matrix.calls"],
    "family-ranks": ["families.matrix_family_covers.edges", "poset.leq_cells", "families.build_D.kept_frac"],
    "spheres": ["complexes.faces", "snf.invariant_factors.calls", "crossing.noncrossing_subset_masks.yielded"],
    "arc-complexes": ["verify.run_check.self_s", "complexes.collapse_removed_frac"],
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_variant_emits_every_metric_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if trace == "1":
        assert all(last["metrics"][name]["value"] > 0 for name in REACHED[workload])


def test_wrong_golden_output_marks_its_job_failed():
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    key = "verify --check beta --grid f=3,k=1,r=1"
    golden[key] = golden[key].replace("pass", "FAIL")
    record = run.measure("regular-forms", 3, 0, trace=False, tiny=True, golden=golden)
    assert record["failed"] == run.MIN_PASSES
    assert {failed for failed, _ in record["failures"]} == {key}


def test_oracles_reject_wrong_answers():
    stats = "elements=911 covers=3423 minimal=9 maximal=41 rank_length=6 rank_cardinality=8 pure=True\n"
    job = {"argv": ["poset", "--family", "M", "--params", "m=5,k=2,r=2", "--stats"], "checks": ["m-rank"]}
    outcome = {"rc": 0, "error": None, "stderr": "", "stdout": stats}
    assert checks.check_job(job, outcome, "/unused", {})
    outcome["stdout"] = stats.replace("rank_cardinality=8", "rank_cardinality=7")
    assert checks.check_job(job, outcome, "/unused", {}) is None

    # a crossing-rich input is not its own canonical form
    for job in workloads.jobs("regular-forms", 3, "/unused"):
        if job["checks"] == ["canonical"]:
            outcome = {"rc": 0, "error": None, "stderr": "", "stdout": job["argv"][1] + "\n"}
            assert checks.check_job(job, outcome, "/unused", {}) == "output is not regular"
            break


def test_independent_formulas():
    assert [checks.t_facet_count(m, k) for m, k in [(11, 1), (9, 2), (10, 3), (9, 3)]] == [4862, 594, 330, 30]
    assert [checks.t_sphere_dim(m, k) for m, k in [(9, 1), (9, 2), (10, 3)]] == [5, 7, 8]
    assert checks.family_rank(4, 2, 2) == 7


def test_random_inputs_are_proper_and_fixed_by_the_seed():
    from arcposet.diagram import is_proper, is_regular, parse

    first = workloads.jobs("regular-forms", 5, "/unused")
    assert first == workloads.jobs("regular-forms", 5, "/unused")
    assert first != workloads.jobs("regular-forms", 6, "/unused")
    diagrams = [parse(job["argv"][1]) for job in first if job["argv"][0] == "canonicalize"]
    assert len(diagrams) == 100
    assert all(is_proper(d) and len(d.arcs) * 2 + 5 == d.length for d in diagrams)
    assert sum(not is_regular(d) for d in diagrams) > 95


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "spheres", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
