"""Regenerate data/inputs.json and data/reference.json from the program.

Usage (from the repository root): python3 perfbench/record.py

inputs.json freezes the base tables the workloads are built from: every
census brace of order 1..12 and the four worked examples with their cocycle
data.  reference.json holds the label-independent report fields (see
check.py) of every unrelabelled analyze and ybe document, the mp-level of
every ybe document, and the digest of the verify-paper output.  Run it only
when the program's results are meant to change; the benchmark compares
every later run against these files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from check import digest, normalise
from workloads import DATA_DIR, DOC_DIR, DOC_PREFIX, write_workload
from worker import import_skewbrace, run_op


def record_inputs(sb) -> dict:
    census = {
        str(n): [{"add": [list(r) for r in e.brace.add_group.table],
                  "mul": [list(r) for r in e.brace.mul_group.table]}
                 for e in sb.census(n).entries]
        for n in range(1, 13)
    }
    examples = {}
    for name in sb.example_names():
        ex = sb.build(name)
        examples[name] = {
            "add": [list(r) for r in ex.spec.additive.table],
            "mult": [list(r) for r in ex.spec.multiplicative.table],
            "lambda": [list(r) for r in ex.spec.acting],
            "delta": list(ex.spec.delta),
            "mul": [list(r) for r in ex.brace.mul_group.table],
        }
    return {"census": census, "examples": examples}


def record_reference(sb, inputs: dict) -> dict:
    reference: dict = {"analyze": {}, "ybe": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("analyze", "ybe"):
            directory = Path(tmp) / workload
            docs, ops = write_workload(workload, None, directory, inputs)
            for op in ops:
                result = run_op(sb, op, directory / DOC_DIR, DOC_PREFIX)
                if result["rc"] != 0:
                    raise SystemExit(f"{op['id']} failed: {result['error']}")
                kind, _, name = op["id"].partition(":")
                if kind == "verify-paper":
                    reference["verify-paper"] = digest(result["out"])
                    continue
                fields = normalise(result["out"], None)
                if kind == "ybe":
                    brace = sb.cli.parse_brace_document(docs[name].text)
                    fields["mp-level"] = str(sb.multipermutation_level(brace)).lower()
                reference[kind][name] = fields
    return reference


def main() -> int:
    sb = import_skewbrace()
    inputs = record_inputs(sb)
    DATA_DIR.mkdir(exist_ok=True)
    (DATA_DIR / "inputs.json").write_text(
        json.dumps(inputs, separators=(",", ":")) + "\n", encoding="utf-8")
    reference = record_reference(sb, inputs)
    (DATA_DIR / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
