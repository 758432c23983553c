"""One benchmark pass in a fresh interpreter.

Usage: python3 -I worker.py PLAN RESULT --spawned-at T [--trace SPANS] [--probe]

Imports skewbrace from the checkout's src/, reads the plan, and runs its ops
in order, each through skewbrace.cli.main (or census_oracle) with stdout
captured.  T is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, the import and reading the
plan.  --probe stops at the first op and records setup only.  --trace wraps
the package's public functions first (see tracer.py), writes the spans to
SPANS and adds per-layer metrics to the result.

Right after set-up the process times SETUP_SLICES calibration slices, and a
pass times one more before every op and once after the last: a slice is a
fixed piece of pure-Python work that does not touch skewbrace (see
calibration_slice).  The slice
times say how fast the host ran the interpreter during the pass; run.py
rescales the pass's times by them (see run.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CAL_LOOPS = 20_000
CAL_READS = 20_000
CAL_BUFFER_BYTES = 8 << 20
SETUP_SLICES = 4

_cal_buffer = bytearray()


def calibration_slice() -> float:
    """Seconds one fixed slice of calibration work takes.

    Half of it is integer and dict work that stays in the core's own caches;
    the other half is a chain of dependent reads from an 8 MiB buffer, larger
    than the per-core cache, so it waits on the shared cache and memory.
    Together they track the program's speed on a shared host better than
    either does alone.  A slice creates no container objects, so it never
    triggers the cyclic garbage collector, whose cost would depend on the
    program's heap.
    """
    global _cal_buffer
    if not _cal_buffer:
        _cal_buffer = bytearray(range(256)) * (CAL_BUFFER_BYTES // 256)
    buf, mask = _cal_buffer, CAL_BUFFER_BYTES - 1
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_LOOPS):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
        acc += table.get((acc ^ i) & 1023, 0) & 3
    at = 1
    for i in range(CAL_READS):
        at = (at * 2654435761 + i + buf[at]) & mask
    return time.perf_counter() - t0


def import_skewbrace():
    """Import the package from SRC, whatever else is on the path."""
    sys.path.insert(0, str(SRC))
    import skewbrace
    import skewbrace.cli
    if Path(skewbrace.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"skewbrace imported from {skewbrace.__file__}, not {SRC}")
    return skewbrace


def run_op(skewbrace, op: dict, doc_dir: Path, prefix: str) -> dict:
    """Run one op; returns its id, exit code, error, stdout and latency in ms."""
    out = io.StringIO()
    rc, error = 0, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            if op["kind"] == "oracle":
                print(skewbrace.census_oracle(op["n"]))
            else:
                argv = [str(doc_dir / f"{a[len(prefix):]}.txt") if a.startswith(prefix) else a
                        for a in op["argv"]]
                rc = skewbrace.cli.main(argv)
        if rc:
            error = err.getvalue().strip()
    except SystemExit as exc:
        rc, error = exc.code if isinstance(exc.code, int) else 2, "SystemExit"
    except Exception as exc:  # an op that raises is counted as failed, not fatal
        rc, error = -1, f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    return {"id": op["id"], "rc": rc, "error": error, "out": out.getvalue(), "ms": ms}


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB, less the calibration
    buffer, which stays resident from the first slice on.

    Linux carries the parent's ru_maxrss over an exec, so getrusage would
    report run.py's peak whenever it is the larger; VmHWM belongs to this
    process's own address space.  getrusage is the fallback elsewhere.
    """
    peak_kib = None
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak_kib = int(line.split()[1])
    except OSError:
        pass
    if peak_kib is None:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (peak_kib * 1024 - len(_cal_buffer)) / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    skewbrace = import_skewbrace()
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    plan_path = Path(args.plan)
    plan = json.loads(plan_path.read_text(encoding="utf-8"))
    doc_dir = plan_path.parent / plan["doc_dir"]
    first_op = time.monotonic()
    result = {"setup_s": first_op - args.spawned_at}
    result["setup_cal_s"] = [calibration_slice() for _ in range(SETUP_SLICES)]
    if not args.probe:
        ops, cal = [], []
        for i, op in enumerate(plan["ops"]):
            cal.append(calibration_slice())
            if tracer is not None:
                tracer.op = i
            ops.append(run_op(skewbrace, op, doc_dir, plan["doc_prefix"]))
        cal.append(calibration_slice())
        result["wall_s"] = sum(o["ms"] for o in ops) / 1000.0
        result["cal_s"] = cal
        result["peak_rss_mb"] = peak_rss_mb()
        result["ops"] = ops
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write(args.trace)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
