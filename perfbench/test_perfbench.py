"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import load_reference, normalise, op_failure  # noqa: E402
from workloads import PLAN, WORKLOADS, make_workload, write_workload  # noqa: E402
from worker import import_skewbrace, run_op  # noqa: E402

SMALL = {"census4-1", "census6-2", "census8-5", "census8-30", "census12-7", "ex12"}


@pytest.fixture(scope="module")
def sb():
    return import_skewbrace()


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    write_workload(workload, 5, tmp_path / "a")
    write_workload(workload, 5, tmp_path / "b")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    write_workload(workload, 6, tmp_path / "c")
    assert first != _files(tmp_path / "c")


def _small_ops(workload: str, seed: int, directory: Path):
    docs, ops = write_workload(workload, seed, directory)
    return docs, [op for op in ops if op["id"].partition(":")[2] in SMALL]


@pytest.mark.parametrize("workload", ["analyze", "ybe"])
def test_second_seed_relabels_but_keeps_invariant_fields(sb, tmp_path, workload):
    reference = load_reference()
    fields = {}
    for seed in (1, 2):
        docs, ops = _small_ops(workload, seed, tmp_path / str(seed))
        assert ops
        for op in ops:
            res = run_op(sb, op, tmp_path / str(seed) / "docs", "{doc}")
            name = op["id"].partition(":")[2]
            perm = docs[name].perm if name in docs else None
            assert op_failure(op, res, perm, reference) is None
            fields.setdefault(name, []).append((docs.get(name), normalise(res["out"], perm)))
    relabelled = 0
    for name, ((doc1, f1), (doc2, f2)) in fields.items():
        assert f1 == f2
        if doc1 is not None and doc1.perm != doc2.perm:
            assert doc1.text != doc2.text
            relabelled += 1
    assert relabelled >= 3


def test_wrong_reference_is_counted_as_failure(sb, tmp_path):
    reference = load_reference()
    docs, ops = _small_ops("analyze", 3, tmp_path)
    result = {"ops": [run_op(sb, op, tmp_path / "docs", "{doc}") for op in ops]}
    assert run.check_pass(result, ops, docs, reference) == []
    wrong = json.loads(json.dumps(reference))
    wrong["analyze"]["census8-5"]["classify.ideal-count"] = "999"
    failures = run.check_pass(result, ops, docs, wrong)
    assert len(failures) == 1 and failures[0].startswith("analyze:census8-5:")


def test_census_count_and_oracle_are_checked(sb):
    reference = load_reference()
    enum_op = {"id": "enumerate:4#0", "kind": "cli", "argv": ["enumerate", "4", "--check"]}
    res = run_op(sb, enum_op, Path("."), "{doc}")
    assert op_failure(enum_op, res, None, reference) is None
    bad = dict(res, out=res["out"].replace("4 braces", "5 braces"))
    assert op_failure(enum_op, bad, None, reference) is not None
    oracle_op = {"id": "oracle:4", "kind": "oracle", "n": 4}
    res = run_op(sb, oracle_op, Path("."), "{doc}")
    assert op_failure(oracle_op, res, None, reference) is None
    assert op_failure(oracle_op, dict(res, out="3\n"), None, reference) is not None


def test_traced_and_untraced_passes_give_identical_outputs(tmp_path):
    docs, ops = write_workload("analyze", 4, tmp_path)
    ops = [op for op in ops if op["id"].partition(":")[2] in SMALL]
    _, census_ops = make_workload("census", 4)
    ops += [op for op in census_ops if op["id"] in ("enumerate:6#0", "oracle:4")]
    plan = json.loads((tmp_path / PLAN).read_text())
    plan["ops"] = ops
    (tmp_path / PLAN).write_text(json.dumps(plan))
    plain = run.run_worker(tmp_path, "plain")
    traced = run.run_worker(tmp_path, "traced", trace=tmp_path / "spans.tsv.gz")
    assert [o["out"] for o in plain["ops"]] == [o["out"] for o in traced["ops"]]
    assert "layers" not in plain
    layers = traced["layers"]
    assert layers["cli.main.calls"] == len(ops) - 1
    assert layers["census.census_oracle.calls"] == 1
    assert layers["groups.subgroups.calls"] > 0
    assert 0 < layers["substructure.ideal_yield"] <= 1
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0


def test_op_times_are_rescaled_by_their_nearest_slices():
    ref = run.CAL_REF_S
    result = {"ops": [{"ms": 10.0}, {"ms": 20.0}, {"ms": 30.0}],
              "cal_s": [ref, ref, ref / 2, ref / 2]}
    # op 0 sees slices 0-2, op 1 slices 0-3, op 2 slices 1-3
    assert run.scaled_op_ms(result) == pytest.approx([10.0, 20.0 * 4 / 3, 60.0])
    assert run.scaled_wall_s(result) == pytest.approx((10 + 80 / 3 + 60) / 1000)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
