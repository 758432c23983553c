"""Benchmark of the skewbrace CLI over three seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py [--workload analyze|census|ybe|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Workloads (an op is one CLI command run in-process through
skewbrace.cli.main, or one census_oracle(n) call; a pass is one run through
a workload's op list):

- analyze: `analyze --format structured` on all 111 census braces of order
  1-12, the four worked examples as cocycle documents, the products
  ex24xC2, ex12xC4 (order 48) and ex8xex8 (order 64), and one
  `verify-paper`.  Exercises closure/subgroups -> substructure -> series ->
  classify; many small braces set op_p50_ms, a few large ones set wall_s.
- census: `enumerate n --check` for n = 1..12, eight sweeps, and
  census_oracle(n) for n = 1..8.  The only workload on both census routes
  and the automorphism/isomorphism searches; almost no lattice work.
- ybe: `ybe --retract` on every census brace of order 8-12 and on products
  of order 48-192.  A few large tables, so the O(n^3) loops of make_brace
  and verify_solution dominate; the orders fall on both sides of the
  exhaustive triple bound (64) of brace validation.

The seed picks a relabelling permutation (fixing 0) for every table-form
document and the op order; the inputs are written before any pass, so the
program only sees documents.  Every pass runs in a fresh interpreter started
by run.py, one at a time, so the brace caches and the process-wide
example cache are cold as a CLI user finds them.

--trace 0 measures untraced passes until --seconds is spent (at least
MIN_PASSES) plus SETUP_PROBES set-up-only starts, and prints the
end-to-end metrics as medians over passes.  The speed of this kind of
shared host drifts by up to 1.6x within minutes, for the benchmark and for
a fixed loop alike, so every timing is rescaled to a reference host speed:
each pass times a fixed calibration slice of pure-Python work
(worker.calibration_slice) before every op and after the last, and each
op's time is multiplied by CAL_REF_S / (median of the four slices nearest
it, two before and two after).  wall_s is the sum of the rescaled op times.
Set-up times are rescaled by the median of the slices timed right after
set-up.  A time printed in s or ms is thus the measured time at the host
speed at which a slice takes CAL_REF_S; the raw wall times are printed in
the note line.

--trace 1 runs one untraced and one traced pass and prints the per-layer
metrics of the traced one; layer times are raw, and trace.overhead_frac
compares the rescaled wall times of the two passes.  The spans go to
perfbench/_out/.  Every op's output is checked against
data/reference.json and the published census counts; the last line of
stdout is one JSON object with correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import load_reference, op_failure
from workloads import PLAN, WORKLOADS, write_workload

# Calibration slice time at the reference host speed (the median slice time
# on the 2-vCPU Xeon VM the benchmark was defined on).
CAL_REF_S = 0.0175

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = HERE / "_work"
OUT_DIR = HERE / "_out"

SETUP_PROBES = 6
MIN_PASSES = 2
PASS_TIMEOUT_S = 80

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    "groups.closure.calls", "groups.closure.self_s",
    "groups.subgroups.calls", "groups.subgroups.self_s",
    "substructure.all_ideals.calls", "substructure.all_ideals.hit_ratio",
    "substructure.ideal_yield",
    "substructure.classify_subset.calls", "substructure.classify_subset.self_s",
    "substructure.ideal_generated.self_s",
    "series.quotient_with_map.calls", "series.quotient_with_map.hit_ratio",
    "series.ideal_chain.self_s",
    "classify.is_supersoluble.total_s", "classify.is_supersoluble.hit_ratio",
    "classify.brace_report.total_s",
    "groups.automorphism_perms.self_s",
    "groups.group_isomorphism.calls", "groups.group_isomorphism.self_s",
    "census.census.total_s", "census.braces_with_additive_group.total_s",
    "census.census_oracle.total_s",
    "braces.make_brace.calls", "braces.make_brace.self_s",
    "groups.make_group.calls", "groups.make_group.self_s",
    "braces.check_brace_invariants.self_s",
    "braces.quotient_brace.calls", "braces.quotient_brace.self_s",
    "braces.brace_from_cocycle.self_s",
    "fixtures.build.total_s",
    "ybe.solution_from_brace.calls",
    "ybe.verify_solution.calls", "ybe.verify_solution.self_s",
    "ybe.retract.calls",
    "cli.parse_brace_document.total_s",
    "groups.self_s", "braces.self_s", "substructure.self_s", "series.self_s",
    "classify.self_s", "census.self_s", "ybe.self_s", "fixtures.self_s",
    "cli.self_s",
    "trace.overhead_frac",
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def run_worker(work: Path, tag: str, trace: Path | None = None,
               probe: bool = False) -> dict:
    """Start one pass in a fresh interpreter, wait for it, return its result."""
    result_path = work / f"result-{tag}.json"
    extra = (["--probe"] if probe else []) + (["--trace", str(trace)] if trace else [])
    spawned_at = time.monotonic()
    cmd = [sys.executable, "-I", str(WORKER), str(work / PLAN), str(result_path),
           "--spawned-at", repr(spawned_at), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {tag} exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {tag} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result


def check_pass(result: dict, ops: list[dict], docs: dict, reference: dict,
               first: dict | None = None) -> list[str]:
    """One line per failed op of the pass; `first` is a pass whose outputs
    every op must repeat byte for byte."""
    failures = []
    for i, (op, res) in enumerate(zip(ops, result["ops"], strict=True)):
        if res["id"] != op["id"]:
            raise BenchError(f"pass ran {res['id']} where the plan has {op['id']}")
        doc = docs.get(op["id"].partition(":")[2])
        why = op_failure(op, res, doc.perm if doc else None, reference)
        if why is None and first is not None and res["out"] != first["ops"][i]["out"]:
            why = "output differs from the first pass"
        if why:
            failures.append(f"{op['id']}: {why}")
    return failures


def _timed_passes(work: Path, seconds: float) -> tuple[list[dict], list[dict]]:
    """Untraced passes until `seconds` is spent, with set-up probes before
    and after them, so that set-up is sampled at both ends of the run."""
    started = time.monotonic()
    probes = [run_worker(work, f"probe{i}", probe=True) for i in range(SETUP_PROBES // 2)]
    passes: list[dict] = []
    while True:
        t0 = time.monotonic()
        passes.append(run_worker(work, f"pass{len(passes)}"))
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now - started + (now - t0) > seconds:
            break
    probes += [run_worker(work, f"probe{i}", probe=True)
               for i in range(len(probes), SETUP_PROBES)]
    return probes, passes


def setup_scale(result: dict) -> float:
    """Factor that takes a pass's or probe's set-up time to the reference speed."""
    return CAL_REF_S / statistics.median(result["setup_cal_s"])


def scaled_op_ms(result: dict) -> list[float]:
    """Each op's latency at the reference speed, rescaled by the median of the
    calibration slices timed nearest it (slice i runs just before op i)."""
    cal = result["cal_s"]
    return [op["ms"] * CAL_REF_S / statistics.median(cal[max(0, i - 1):i + 3])
            for i, op in enumerate(result["ops"])]


def scaled_wall_s(result: dict) -> float:
    return sum(scaled_op_ms(result)) / 1000.0


def _end_to_end(probes: list[dict], passes: list[dict]) -> tuple[dict, str]:
    n_ops = len(passes[0]["ops"])
    per_pass = [scaled_op_ms(p) for p in passes]
    op_ms = [statistics.median(ms[i] for ms in per_pass) for i in range(n_ops)]
    walls = [sum(ms) / 1000.0 for ms in per_pass]
    values = {
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": statistics.quantiles(op_ms, n=10)[-1],
        "setup_s": statistics.median(p["setup_s"] * setup_scale(p) for p in probes + passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    note = (f"{len(passes)} passes of {n_ops} ops, "
            f"raw wall_s of each: {' '.join(format(p['wall_s'], '.3f') for p in passes)}, "
            f"rescaled: {' '.join(format(w, '.3f') for w in walls)}; "
            f"op_p50_ms and op_p90_ms over {n_ops} ops, "
            f"each at its median over the passes; "
            f"setup_s median of {len(probes) + len(passes)} starts")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, note


def _per_layer(workload: str, plain: dict, traced: dict) -> tuple[dict, str]:
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = scaled_wall_s(traced) / scaled_wall_s(plain) - 1.0
    (OUT_DIR / f"layers-{workload}.json").write_text(
        json.dumps(layers, indent=1, sort_keys=True), encoding="utf-8")
    metrics = {name: {"value": layers.get(name, 0), "unit": layer_unit(name)}
               for name in PER_LAYER}
    return metrics, f"spans and all layer metrics written to {OUT_DIR.relative_to(ROOT)}/"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object printed as the JSON line."""
    if not (ROOT / "src" / "skewbrace" / "__init__.py").is_file():
        raise BenchError(f"no skewbrace sources under {ROOT / 'src'}")
    reference = load_reference()
    started = time.monotonic()
    work = WORK_DIR / f"{workload}-{seed}-{trace:d}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        docs, ops = write_workload(workload, seed, work)
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            plain = run_worker(work, "untraced")
            traced = run_worker(work, "traced", trace=OUT_DIR / f"spans-{workload}.tsv.gz")
            passes = [plain, traced]
            metrics, note = _per_layer(workload, plain, traced)
        else:
            probes, passes = _timed_passes(work, seconds)
            metrics, note = _end_to_end(probes, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [line for p in passes
                for line in check_pass(p, ops, docs, reference, first=passes[0])]
    return {
        "workload": workload,
        "seconds": time.monotonic() - started,
        "note": note,
        "failures": failures,
        "json": {"correct": not failures, "attempted": sum(len(p["ops"]) for p in passes),
                 "failed": len(failures), "metrics": metrics},
    }


def report(res: dict) -> None:
    out = res["json"]
    print(f"workload {res['workload']}: {res['seconds']:.1f} s")
    print(f"  {res['note']}")
    for name, m in out["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} ops)")
    for line in res["failures"][:5]:
        print(f"  FAIL {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for res in results:
        report(res)
    if len(results) == 1:
        print(json.dumps(results[0]["json"]))
    else:
        print(json.dumps({
            "correct": all(r["json"]["correct"] for r in results),
            "attempted": sum(r["json"]["attempted"] for r in results),
            "failed": sum(r["json"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v
                        for r in results for k, v in r["json"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
