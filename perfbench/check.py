"""Reference checks on op outputs.

An op fails if it raised, exited non-zero, or disagrees with the reference.
Reports of relabelled documents are reduced to the fields that do not depend
on element labels before comparison: chief-factor orders and maximal-subbrace
indices become multisets, a supersolubility certificate is checked for
presence and prime steps, and the r1/r2 tables are mapped back through the
document's permutation and hashed.  The reference (data/reference.json) is
the same reduction of the unrelabelled documents' reports.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from workloads import DATA_DIR, PUBLISHED_COUNTS

MULTISETS = ("classify.chief-factor-orders", "classify.maximal-subbrace-indices")
CERTIFICATE = "classify.certificate-orders"


def load_reference() -> dict:
    with open(DATA_DIR / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _certificate_status(value: str, supersoluble: str, order: int) -> str:
    if supersoluble == "false":
        return "valid" if value == "none" else f"invalid {value}"
    try:
        orders = [int(v) for v in value.split()]
    except ValueError:
        return f"invalid {value}"
    ok = (len(orders) >= 1 and orders[0] == 1 and orders[-1] == order
          and all(b % a == 0 and _is_prime(b // a) for a, b in zip(orders, orders[1:])))
    return "valid" if ok else f"invalid {value}"


def _unmap_table(rows: list[str], perm) -> str:
    """The table of the unrelabelled document, given the relabelled one's rows."""
    table = [[int(v) for v in row.split()] for row in rows]
    n = len(table)
    if perm is None:
        perm = range(n)
    inv = [0] * n
    for x, px in enumerate(perm):
        inv[px] = x
    return "\n".join(" ".join(str(inv[table[perm[x]][perm[y]]]) for y in range(n))
                     for x in range(n))


def normalise(text: str, perm) -> dict[str, str]:
    """Label-independent fields of a structured report, keyed section.field.

    Lines after the r2 table (the retraction steps of `ybe --retract`) are
    kept verbatim under "tail".
    """
    lines = text.splitlines()
    fields: dict[str, str] = {}
    tail: list[str] = []
    section = None
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        if section == "ybe" and line in ("r1", "r2"):
            size = int(fields["ybe.size"])
            fields[f"ybe.{line}"] = digest(_unmap_table(lines[i:i + size], perm))
            i += size
            if line == "r2":
                section = None
            continue
        if section is None:
            tail.append(line)
            continue
        key, _, value = line.partition(" ")
        if key == "u_p":
            prime, _, value = value.partition(" ")
            key = f"u_p.{prime}"
        fields[f"{section}.{key}"] = value
    for key in MULTISETS:
        if key in fields:
            fields[key] = " ".join(sorted(fields[key].split()))
    if CERTIFICATE in fields:
        fields[CERTIFICATE] = _certificate_status(
            fields[CERTIFICATE], fields.get("classify.supersoluble", ""),
            int(fields.get("brace.order", 0)))
    if tail:
        fields["tail"] = "\n".join(tail)
    return fields


def _retraction_level(fields: dict[str, str]) -> Optional[str]:
    """The level the retract steps report: a number, or "none" if they stall."""
    last = fields.get("tail", "").splitlines()[-1:]
    if not last:
        return None
    if last[0].startswith("retraction level "):
        return last[0].split()[-1]
    return "none" if last[0].startswith("retraction stalls") else None


def _differences(got: dict, want: dict) -> str:
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return "; ".join(f"{k}: got {got.get(k)!r}, want {want.get(k)!r}" for k in keys[:3])


def op_failure(op: dict, result: dict, perm, reference: dict) -> Optional[str]:
    """Why the op failed, or None if it exited 0 and matches the reference."""
    if result["rc"] != 0 or result["error"]:
        return f"exit {result['rc']}: {result['error']}"
    out = result["out"]
    kind, _, arg = op["id"].partition(":")
    if kind == "oracle":
        want = PUBLISHED_COUNTS[int(arg) - 1]
        return None if out.strip() == str(want) else f"oracle gave {out.strip()!r}, want {want}"
    if kind == "enumerate":
        n = int(arg.partition("#")[0])
        want = PUBLISHED_COUNTS[n - 1]
        lines = out.splitlines()
        if not lines or lines[0] != f"order {n}: {want} braces":
            return f"census head {lines[:1]!r}, want {want} braces"
        if lines[-1] != f"checked {want} entries, 0 failures":
            return f"census check line {lines[-1]!r}"
        return None
    if kind == "verify-paper":
        return None if digest(out) == reference["verify-paper"] else "verify-paper output changed"
    got = normalise(out, perm)
    want = dict(reference[kind][arg])
    mp_level = want.pop("mp-level", None) or got.get("classify.mp-level")
    if got != want:
        return _differences(got, want)
    if got.get("ybe.retraction-level") != mp_level:
        return f"retraction level {got.get('ybe.retraction-level')} != mp-level {mp_level}"
    if kind == "ybe" and _retraction_level(got) != mp_level:
        return f"retract steps end at level {_retraction_level(got)}, mp-level {mp_level}"
    return None
