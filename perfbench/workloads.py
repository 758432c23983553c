"""Seeded inputs and op lists for the three benchmark workloads.

The base tables live in data/inputs.json, frozen from the program when the
benchmark was defined, so a later change to the census order or to the
examples cannot change what the benchmark feeds the program.  A seed picks
one relabelling permutation fixing 0 for every table-form document, and the
order of the ops in a pass.  Nothing here imports skewbrace.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple, Optional

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("analyze", "census", "ybe")

# Published counts of skew braces of order 1..12 (Guarnieri & Vendramin,
# Math. Comp. 86, 2017).
PUBLISHED_COUNTS = (1, 1, 1, 4, 1, 6, 1, 47, 4, 6, 1, 38)
ORACLE_ORDERS = range(1, 9)
# Repeats of the enumerate 1..12 sweep per census pass, so that a pass holds
# at least 100 ops (8 * 12 + 8 oracle calls = 104).
ENUMERATE_SWEEPS = 8

PLAN = "plan.json"
DOC_DIR = "docs"
DOC_PREFIX = "{doc}"

ANALYZE_PRODUCTS = (("ex24", "C2"), ("ex12", "C4"), ("ex8", "ex8"))
YBE_PRODUCTS = (("ex24", "C2"), ("ex8", "ex8"), ("ex32", "C3"),
                ("ex32", "C4"), ("ex12", "ex12"), ("ex24", "ex8"))
YBE_CENSUS_ORDERS = range(8, 13)


def load_inputs() -> dict:
    with open(DATA_DIR / "inputs.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cyclic(k: int) -> list[list[int]]:
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def _product(t1, t2) -> list[list[int]]:
    """Direct product of two tables, flattened as a * |t2| + b."""
    n2 = len(t2)
    n = len(t1) * n2
    return [[t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2] for b in range(n)]
            for a in range(n)]


def _brace_tables(inputs: dict, factor: str):
    if factor.startswith("C"):
        table = _cyclic(int(factor[1:]))
        return table, table
    ex = inputs["examples"][factor]
    return ex["add"], ex["mul"]


def _relabel(table, perm) -> list[list[int]]:
    """The table with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row, pa = table[a], out[perm[a]]
        for b in range(n):
            pa[perm[b]] = perm[row[b]]
    return out


def _rows(table) -> list[str]:
    return [" ".join(map(str, row)) for row in table]


def table_document(name: str, add, mul) -> str:
    lines = ["skewbrace 1", f"name {name}", f"order {len(add)}", "add",
             *_rows(add), "mul", *_rows(mul), "end"]
    return "\n".join(lines) + "\n"


def cocycle_document(name: str, ex: dict) -> str:
    lines = ["skewbrace 1", f"name {name}", f"order {len(ex['add'])}",
             "cocycle", "add", *_rows(ex["add"]), "mult", *_rows(ex["mult"]),
             "lambda", *_rows(ex["lambda"]), "delta",
             " ".join(map(str, ex["delta"])), "end"]
    return "\n".join(lines) + "\n"


def _permutation(rng, n: int) -> list[int]:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


class Document(NamedTuple):
    """One generated brace document and the permutation applied to it
    (None for cocycle documents, which are not relabelled)."""

    name: str
    text: str
    perm: Optional[list[int]]


def _table_documents(inputs, rng, census_orders, products) -> list[Document]:
    """Census braces and products, each relabelled (rng None: identity)."""
    raw = []
    for n in census_orders:
        for i, entry in enumerate(inputs["census"][str(n)]):
            raw.append((f"census{n}-{i}", entry["add"], entry["mul"]))
    for left, right in products:
        (a1, m1), (a2, m2) = _brace_tables(inputs, left), _brace_tables(inputs, right)
        raw.append((f"{left}x{right}", _product(a1, a2), _product(m1, m2)))
    docs = []
    for name, add, mul in raw:
        n = len(add)
        perm = list(range(n)) if rng is None else _permutation(rng, n)
        text = table_document(name, _relabel(add, perm), _relabel(mul, perm))
        docs.append(Document(name, text, perm))
    return docs


def make_workload(name: str, seed, inputs=None):
    """Documents and the op list of one workload; seed None means unrelabelled.

    An op is a dict with an id, a kind ("cli" or "oracle"), and either the
    CLI argv or the oracle order.  A document argument is written as
    DOC_PREFIX + name and resolved by the worker against the plan's
    directory, so the plan is the same bytes wherever it is written.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    inputs = inputs if inputs is not None else load_inputs()
    rng = None if seed is None else random.Random(seed)
    docs: list[Document] = []
    ops: list[dict] = []
    if name == "analyze":
        docs = _table_documents(inputs, rng, range(1, 13), ANALYZE_PRODUCTS)
        for ex_name in sorted(inputs["examples"]):
            docs.append(Document(
                ex_name, cocycle_document(ex_name, inputs["examples"][ex_name]), None))
        ops = [{"id": f"analyze:{d.name}", "kind": "cli",
                "argv": ["analyze", DOC_PREFIX + d.name, "--format", "structured"]}
               for d in docs]
        ops.append({"id": "verify-paper", "kind": "cli", "argv": ["verify-paper"]})
    elif name == "census":
        for sweep in range(ENUMERATE_SWEEPS):
            ops += [{"id": f"enumerate:{n}#{sweep}", "kind": "cli",
                     "argv": ["enumerate", str(n), "--check"]}
                    for n in range(1, len(PUBLISHED_COUNTS) + 1)]
        ops += [{"id": f"oracle:{n}", "kind": "oracle", "n": n} for n in ORACLE_ORDERS]
    else:
        docs = _table_documents(inputs, rng, YBE_CENSUS_ORDERS, YBE_PRODUCTS)
        ops = [{"id": f"ybe:{d.name}", "kind": "cli",
                "argv": ["ybe", DOC_PREFIX + d.name, "--retract"]}
               for d in docs]
    if rng is not None:
        rng.shuffle(ops)
    return docs, ops


def write_workload(name: str, seed, directory: Path, inputs=None):
    """Write docs/<name>.txt and plan.json; returns (docs by name, ops)."""
    docs, ops = make_workload(name, seed, inputs)
    doc_dir = directory / DOC_DIR
    doc_dir.mkdir(parents=True, exist_ok=True)
    for d in docs:
        (doc_dir / f"{d.name}.txt").write_text(d.text, encoding="utf-8")
    (directory / PLAN).write_text(json.dumps({"workload": name, "doc_dir": DOC_DIR,
                                "doc_prefix": DOC_PREFIX, "ops": ops}),
                    encoding="utf-8")
    return {d.name: d for d in docs}, ops
