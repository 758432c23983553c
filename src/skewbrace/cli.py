"""Command line interface: analyze brace documents, verify the built-in
examples, enumerate braces of a given order, and derive Yang-Baxter solutions.

Exit codes: 0 success, 1 failed claim or assertion, 2 parse error or a
file that cannot be read or written, 3 validation error, 4 order bound
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .braces import (CocycleSpec, SkewBrace, brace_from_cocycle, check_braces,
                     _prove_brace)
from .census import BraceCensus, census
from .classify import brace_report, is_supersoluble
from .errors import OrderBoundExceeded, ParseError, SkewBraceError, TranscriptionInvalid
from .fixtures import build, example_names
from .groups import FiniteGroup, GroupPredicates, _identity_of, _prove_group, _row_getter
from .series import (
    derived_ideal,
    left_series,
    lower_central_series,
    right_series,
    socle_series,
    upper_central_series,
)
from .ybe import retraction_level, retraction_sizes, solution_from_brace

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BOUND = 4

BRACE_HEADER = "skewbrace 1"
CENSUS_HEADER = "skewbrace-census 1"

SECTIONS = ("brace", "classify", "series", "ybe")


def _fmt(value) -> str:
    """Render one report value as a stable token string."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value) if value else "empty"
    return str(value)


def _table_lines(table: Sequence[Sequence[int]]) -> list[str]:
    """Rows of a table over 0..n-1 as lines; each value's string is made once
    and a row's strings are picked by one getter call."""
    labels = [str(v) for v in range(len(table))]
    return [" ".join(_row_getter(row)(labels)) for row in table]


# ---------------------------------------------------------------------------
# document reading and writing


class _Cursor:
    """Line cursor over a document that skips blanks and # comments."""

    def __init__(self, text: str):
        self.rows = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
        self.pos = 0
        # str(v) -> v for v in 0..n-1, built by the first `_read_table`.
        self.tokens: dict[str, int] = {}

    def next(self) -> tuple[int, str]:
        while self.pos < len(self.rows):
            lineno, line = self.rows[self.pos]
            self.pos += 1
            if line and not line.startswith("#"):
                return lineno, line
        raise ParseError(len(self.rows) + 1, "unexpected end of document")


def _read_int_row(cursor: _Cursor, n: int, what: str) -> list[int]:
    lineno, line = cursor.next()
    parts = line.split()
    try:
        row = [int(p) for p in parts]
    except ValueError:
        raise ParseError(lineno, f"{what} row contains a non-integer") from None
    if len(row) != n:
        raise ParseError(
            lineno, f"{what} row has {len(row)} entries, expected {n}")
    for v in row:
        if not 0 <= v < n:
            raise ParseError(
                lineno, f"{what} entry {v} outside range 0..{n - 1}")
    return row


def _read_table(cursor: _Cursor, n: int, what: str) -> list[Sequence[int]]:
    """The n rows of an n x n table over 0..n-1: the table's closure proof,
    which the constructors the rows go to (`braces._prove_brace`,
    `groups._prove_group`) do not repeat.

    The document's first table row is read by `_read_int_row`.  Only once it
    has parsed with n entries is the map str(v) -> v for v in 0..n-1 built,
    once per document, so a declared order far beyond the rows given fails
    at that row without allocating by the order.  Every later row is looked
    up whole through the map by one getter call, which is also its range
    check, and kept as a tuple.  A row with a token outside the map or with
    the wrong length is read again by `_read_int_row`: it accepts every
    spelling int() accepts (`+3`, `03`, `-0`, other decimal digits) and
    raises the scalar parse's error, in its order: non-integer, then length,
    then range.
    """
    rows = []
    if not cursor.tokens:
        rows.append(_read_int_row(cursor, n, what))
        cursor.tokens = {str(v): v for v in range(n)}
    while len(rows) < n:
        pos = cursor.pos
        try:
            row = _row_getter(cursor.next()[1].split())(cursor.tokens)
        except KeyError:
            row = None
        if row is None or len(row) != n:
            cursor.pos = pos
            row = _read_int_row(cursor, n, what)
        rows.append(row)
    return rows


def _expect(cursor: _Cursor, keyword: str) -> None:
    lineno, line = cursor.next()
    if line != keyword:
        raise ParseError(lineno, f"expected {keyword!r}, found {line!r}")


def _cocycle_group(table: Sequence[Sequence[int]], what: str) -> FiniteGroup:
    """The group of one table of a cocycle document.  `lambda` and `delta`
    name elements by the document's labels, so its identity must already be
    0: moving it there, as `make_group` does, would change what they say."""
    e = _identity_of(table)
    if e:
        raise TranscriptionInvalid(f"the identity of {what} is element {e}, not 0")
    return _prove_group(table, e, None)


def parse_brace_document(text: str) -> SkewBrace:
    """Parse one brace document and return the validated brace."""
    cursor = _Cursor(text)
    lineno, header = cursor.next()
    if header != BRACE_HEADER:
        raise ParseError(lineno, f"expected header {BRACE_HEADER!r}")
    name: Optional[str] = None
    lineno, line = cursor.next()
    while line.split(maxsplit=1)[0] in ("name", "source"):
        key, _, rest = line.partition(" ")
        if key == "name":
            name = rest.strip() or None
        lineno, line = cursor.next()
    parts = line.split()
    if len(parts) != 2 or parts[0] != "order":
        raise ParseError(lineno, f"expected 'order <n>', found {line!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"order {parts[1]!r} is not an integer") from None
    if n < 1:
        raise ParseError(lineno, f"order must be positive, got {n}")
    lineno, line = cursor.next()
    if line == "add":
        add = _read_table(cursor, n, "add")
        _expect(cursor, "mul")
        mul = _read_table(cursor, n, "mul")
        _expect(cursor, "end")
        return _prove_brace(add, mul, name)
    if line == "cocycle":
        _expect(cursor, "add")
        add = _read_table(cursor, n, "add")
        _expect(cursor, "mult")
        mult = _read_table(cursor, n, "mult")
        _expect(cursor, "lambda")
        acting = _read_table(cursor, n, "lambda")
        _expect(cursor, "delta")
        delta = _read_int_row(cursor, n, "delta")
        _expect(cursor, "end")
        spec = CocycleSpec(
            _cocycle_group(add, "add"), _cocycle_group(mult, "mult"),
            tuple(tuple(row) for row in acting), tuple(delta))
        return brace_from_cocycle(spec, name)
    raise ParseError(lineno, f"expected 'add' or 'cocycle', found {line!r}")


def _tables_block(B: SkewBrace) -> list[str]:
    """The add and mul tables of a document, each under its keyword."""
    return ["add", *_table_lines(B.add_group.table),
            "mul", *_table_lines(B.mul_group.table)]


def write_brace_document(B: SkewBrace, name: Optional[str] = None) -> str:
    """Serialize one brace as an add/mul table document."""
    out = [BRACE_HEADER]
    label = name if name is not None else B.name
    if label:
        out.append(f"name {label}")
    out.append(f"order {B.order}")
    out.extend(_tables_block(B))
    out.append("end")
    return "\n".join(out) + "\n"


def write_census_document(result: BraceCensus) -> str:
    """Serialize a full census, one brace record per entry."""
    out = [CENSUS_HEADER, f"order {result.order}", f"count {len(result.entries)}"]
    for i, entry in enumerate(result.entries):
        out.append(f"entry {i} additive {entry.additive_label} "
                   f"multiplicative {entry.multiplicative_label}")
        out.extend(_tables_block(entry.brace))
    out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# report emission


def _group_section(tag: str, predicates) -> list[str]:
    return [
        f"[{tag}]",
        f"order {predicates.order}",
        f"abelian {_fmt(predicates.abelian)}",
        f"nilpotent {_fmt(predicates.nilpotent)}",
        f"supersoluble {_fmt(predicates.supersoluble)}",
        f"element-orders {_fmt(predicates.element_orders)}",
        f"primes {_fmt(predicates.primes)}",
    ]


def _group_kind(g: GroupPredicates) -> str:
    """The first of the text report's group classes that g falls in."""
    return ("abelian" if g.abelian else "nilpotent" if g.nilpotent
            else "supersoluble" if g.supersoluble else "insoluble-or-worse")


# format -> section -> emitter.  The brace and classify emitters read the
# brace report, the series emitters the brace, and the ybe emitters the
# solution and its retraction level; each returns the section's lines.
_REPORTS = {
    "text": {
        "brace": lambda report: [
            f"{report.name or 'brace'}: order {report.order}"
            + (" (trivial)" if report.is_trivial else ""),
            *(f"  {tag} group: order {g.order}, {_group_kind(g)}, "
              f"primes {_fmt(g.primes)}"
              for tag, g in (("additive", report.additive),
                             ("multiplicative", report.multiplicative)))],
        "classify": lambda report: [
            f"supersoluble: yes, chain orders {_fmt(report.certificate_orders)}"
            if report.supersoluble else
            f"supersoluble: no, minimal ideals of orders "
            f"{_fmt(report.blocking_minimal_orders)} block every chain",
            f"nilpotency: central {_fmt(report.centrally_nilpotent)}, "
            f"left {_fmt(report.left_nilpotent)}, "
            f"right {_fmt(report.right_nilpotent)}; "
            f"soluble {_fmt(report.soluble)}",
            f"multipermutation level: {_fmt(report.mp_level)}",
            f"fitting ideal: order {report.fitting_order}",
            f"chief factors: {_fmt(report.chief_factor_orders)}; "
            f"ideals: {report.ideal_count}; "
            f"maximal subbrace indices: {_fmt(report.maximal_subbrace_indices)}"],
        "series": lambda B: [
            f"socle series orders: {_fmt(socle_series(B).orders())}",
            f"upper central orders: {_fmt(upper_central_series(B).orders())}",
            f"lower central orders: {_fmt(lower_central_series(B).orders())}",
            f"derived ideal order: {len(derived_ideal(B))}"],
        # Valid by theorem, as in the [ybe] section of the structured report.
        "ybe": lambda solution, level: [
            f"solution on {solution.size} points: all checks pass, "
            f"retraction level {_fmt(level)}",
            "r1 rows:",
            *["  " + row for row in _table_lines(solution.r1)],
            "r2 rows:",
            *["  " + row for row in _table_lines(solution.r2)]],
    },
    "structured": {
        "brace": lambda report: [
            "[brace]",
            f"name {_fmt(report.name or None)}",
            f"order {report.order}",
            f"trivial {_fmt(report.is_trivial)}",
            *_group_section("additive", report.additive),
            *_group_section("multiplicative", report.multiplicative)],
        "classify": lambda report: [
            "[classify]",
            f"supersoluble {_fmt(report.supersoluble)}",
            f"certificate-orders {_fmt(report.certificate_orders)}",
            f"blocking-minimal-orders {_fmt(report.blocking_minimal_orders)}",
            f"centrally-nilpotent {_fmt(report.centrally_nilpotent)}",
            f"left-nilpotent {_fmt(report.left_nilpotent)}",
            f"right-nilpotent {_fmt(report.right_nilpotent)}",
            f"soluble {_fmt(report.soluble)}",
            f"mp-level {_fmt(report.mp_level)}",
            f"fitting-order {report.fitting_order}",
            # A sum of ideals is an ideal by theorem, so this line states it.
            "fitting-is-ideal true",
            f"chief-factor-orders {_fmt(report.chief_factor_orders)}",
            f"maximal-subbrace-indices {_fmt(report.maximal_subbrace_indices)}",
            f"ideal-count {report.ideal_count}",
            *(f"u_p {u.prime} additive-size {len(u.additive)} "
              f"multiplicative-size {len(u.multiplicative)} "
              f"equal {_fmt(u.equal)} ideal {_fmt(u.is_ideal)}"
              for u in report.u_p_by_prime)],
        "series": lambda B: [
            "[series]",
            f"socle-series-orders {_fmt(socle_series(B).orders())}",
            f"upper-central-orders {_fmt(upper_central_series(B).orders())}",
            f"lower-central-orders {_fmt(lower_central_series(B).orders())}",
            f"right-series-orders {_fmt(tuple(len(t) for t in right_series(B)))}",
            f"left-series-orders {_fmt(tuple(len(t) for t in left_series(B)))}",
            f"derived-ideal-order {len(derived_ideal(B))}"],
        # The solution of a brace is a non-degenerate bijective solution by
        # theorem (Guarnieri & Vendramin 2017), so these lines state it.
        "ybe": lambda solution, level: [
            "[ybe]",
            f"size {solution.size}",
            "braid true",
            "bijective true",
            "nondegenerate true",
            f"retraction-level {_fmt(level)}",
            "r1",
            *_table_lines(solution.r1),
            "r2",
            *_table_lines(solution.r2)],
    },
}


def _report(B: SkewBrace, fmt: str, only: Optional[str]) -> str:
    """The analyze report of B in format `fmt`: every section in SECTIONS
    order, or the one section `only`.  The brace report and the solution are
    derived once, and only for a section that prints them."""
    sections = SECTIONS if only is None else (only,)
    inputs = {"series": (B,)}
    if "brace" in sections or "classify" in sections:
        inputs["brace"] = inputs["classify"] = (brace_report(B),)
    if "ybe" in sections:
        solution = solution_from_brace(B)
        inputs["ybe"] = (solution, retraction_level(solution))
    emit = _REPORTS[fmt]
    return "\n".join(line for s in sections for line in emit[s](*inputs[s])) + "\n"


# ---------------------------------------------------------------------------
# commands


def _read_brace(path: str) -> SkewBrace:
    """Read and parse one brace document; undecodable bytes are a parse error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"byte 0x{data[exc.start]:02x} is not UTF-8") from None
    return parse_brace_document(text)


def cmd_analyze(args) -> int:
    sys.stdout.write(_report(_read_brace(args.path), args.format, args.only))
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    names = [n for n in example_names()
             if args.fixture is None or n == args.fixture]
    failures = 0
    claims_run = 0
    for name in names:
        try:
            ex = build(name)
        except SkewBraceError as exc:
            print(f"FAIL {name} build: {exc}")
            failures += 1
            continue
        for claim in ex.claims:
            ok = bool(claim.check(ex))
            claims_run += 1
            status = "pass" if ok else "FAIL"
            print(f"{status} {name} {claim.name}: {claim.description}")
            if not ok:
                failures += 1
    print(f"{claims_run} claims checked, {failures} failures")
    return EXIT_CLAIM_FAILED if failures else EXIT_OK


def cmd_enumerate(args) -> int:
    result = census(args.n)
    print(f"order {result.order}: {len(result.entries)} braces")
    for label, count in sorted(result.count_by_additive().items()):
        print(f"  additive {label}: {count}")
    rejected = set()
    if args.check:
        verdicts = check_braces([entry.brace for entry in result.entries])
        for i, (entry, verdict) in enumerate(zip(result.entries, verdicts)):
            if verdict is not True:
                reason = "invariant check" if verdict is False else str(verdict)
                print(f"FAIL entry {i} ({entry.additive_label} / "
                      f"{entry.multiplicative_label}): {reason}")
                rejected.add(i)
        print(f"checked {len(result.entries)} entries, {len(rejected)} failures")
    failures = len(rejected)
    if args.square_free:
        for i, entry in enumerate(result.entries):
            if i not in rejected and not is_supersoluble(entry.brace).supersoluble:
                print(f"FAIL entry {i} ({entry.additive_label} / "
                      f"{entry.multiplicative_label}): not supersoluble")
                failures += 1
        if not failures:
            print(f"all {len(result.entries)} entries supersoluble")
    if args.export:
        try:
            with open(args.export, "w", encoding="utf-8") as fh:
                fh.write(write_census_document(result))
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return EXIT_PARSE
        print(f"wrote {args.export}")
    return EXIT_CLAIM_FAILED if failures else EXIT_OK


def cmd_ybe(args) -> int:
    B = _read_brace(args.path)
    solution = solution_from_brace(B)
    sizes = retraction_sizes(solution)
    level = len(sizes) - 1 if sizes[-1] == 1 else None
    sys.stdout.write("\n".join(_REPORTS["structured"]["ybe"](solution, level)) + "\n")
    if args.retract:
        for step, size in enumerate(sizes[1:], 1):
            print(f"retract {step}: size {size}")
        if level is None:
            print(f"retraction stalls at size {sizes[-1]}")
        else:
            print(f"retraction level {level}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    def order(text: str) -> int:
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError(f"order must be positive, got {n}")
        return n

    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Analyze finite skew braces and their Yang-Baxter solutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="report on one brace document")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--format", choices=tuple(_REPORTS), default="text")
    p_analyze.add_argument("--only", choices=SECTIONS, default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify-paper",
                              help="run every built-in example claim")
    p_verify.add_argument("--fixture", choices=example_names(), default=None)
    p_verify.set_defaults(func=cmd_verify_paper)

    p_enum = sub.add_parser("enumerate", help="enumerate all braces of order n")
    p_enum.add_argument("n", type=order)
    p_enum.add_argument("--check", action="store_true")
    p_enum.add_argument("--square-free", action="store_true")
    p_enum.add_argument("--export", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_ybe = sub.add_parser("ybe", help="derive the solution of one brace")
    p_ybe.add_argument("path")
    p_ybe.add_argument("--retract", action="store_true")
    p_ybe.set_defaults(func=cmd_ybe)

    return parser


# The parser is built on the first call to `main` and reused by every later call in
# the same process: parsing leaves it unchanged, and building it costs about as much
# as a small command.  Also kept: the worked examples, and the catalog groups and their Aut.
_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OrderBoundExceeded as exc:
        print(f"order bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SkewBraceError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
