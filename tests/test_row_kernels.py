"""The row-at-a-time kernels against their cell-by-cell references.

`scalar_reference` holds the loops the kernels replaced.  The kernels must
build the same tables, print the same lines, and on bad input raise the
same exception with the same witness in its message.
"""

import random
from contextlib import contextmanager
from enum import IntEnum
from itertools import product

import pytest

import scalar_reference as ref
from skewbrace import (
    DistributivityViolation,
    NonAssociative,
    NotClosed,
    ParseError,
    RetractNotWellDefined,
    SkewBraceError,
    SolutionInvalid,
    census,
    cyclic_group,
    direct_product_braces,
    make_brace,
    trivial_brace,
)
from skewbrace import braces, cli, groups, ybe
from skewbrace.cli import main, parse_brace_document, write_brace_document
from skewbrace.ybe import Solution


@contextmanager
def scalar_kernels(monkeypatch):
    """Every row kernel swapped for its scalar reference."""
    with monkeypatch.context() as m:
        m.setattr(groups, "_assoc_generators", ref.assoc_generators)
        m.setattr(braces, "_validate_pair", ref.validate_pair)
        m.setattr(braces, "_brace", ref.brace)
        m.setattr(ybe, "solution_from_brace", ref.solution_from_brace)
        m.setattr(cli, "solution_from_brace", ref.solution_from_brace)
        m.setattr(ybe, "retract", ref.retract)
        m.setattr(cli, "_table_lines", ref.table_lines)
        m.setattr(cli, "_read_table", ref.read_table)
        m.setattr(groups, "_check_closure", ref.check_closure)
        m.setattr(braces, "_check_closure", ref.check_closure)
        m.setattr(ybe, "_check_closure", ref.check_closure)
        m.setattr(ybe, "verify_solution", ref.solution_checks)
        yield


def _tables(B):
    return B.add_group.table, B.mul_group.table, B.lam_table


def _outcome(f, *args):
    """The result of f, or the type and message of the error it raises."""
    try:
        return f(*args)
    except SkewBraceError as exc:
        return type(exc), str(exc)


def _retraction_chain(S, retract):
    chain = []
    while S.size > 1:
        R, class_of = retract(S)
        chain.append((R, class_of))
        if R.size == S.size:
            break
        S = R
    return chain


def _swap_labels(table, i, j):
    """The table with elements i and j renamed into each other."""
    perm = list(range(len(table)))
    perm[i], perm[j] = j, i
    return [[perm[table[x][y]] for y in perm] for x in perm]


def test_row_kernels_build_the_reference_tables(full_pool, ybe_products):
    for B in full_pool + list(ybe_products.values()):
        add, mul = B.add_group, B.mul_group
        assert _tables(braces._brace(add, mul)) == _tables(ref.brace(add, mul))
        S = ybe.solution_from_brace(B)
        assert S == ref.solution_from_brace(B)
        assert _retraction_chain(S, ybe.retract) == _retraction_chain(S, ref.retract)
        for table in (add.table, mul.table, S.r2):
            assert cli._table_lines(table) == ref.table_lines(table)


def test_assoc_generators_match_the_reference(full_pool, ybe_products):
    """Both group tables of every census brace and ybe product, the cyclic
    tables on both sides of the 256 elements of the byte path, and all 81
    tables on 0..2 with identity 0, whose non-associative ones the kernel
    must refuse with the reference's witness."""
    tables = [t for B in full_pool + list(ybe_products.values())
              for t in (B.add_group.table, B.mul_group.table)]
    tables += [cyclic_group(n).table for n in (255, 256, 257)]
    tables += [((0, 1, 2), (1, *cells[:2]), (2, *cells[2:]))
               for cells in product(range(3), repeat=4)]
    for table in tables:
        assert _outcome(groups._assoc_generators, table) == _outcome(ref.assoc_generators, table)


# Products on both sides of the byte path's 256 elements.
_WIDE = {
    "ex8xex32": lambda ex: direct_product_braces(ex["ex8"], ex["ex32"]),
    "ex24xC12": lambda ex: direct_product_braces(ex["ex24"], trivial_brace(cyclic_group(12))),
}


@pytest.mark.parametrize("name", ["ex8", "ex24xC2", "ex24xex8", "ex8xex32", "ex24xC12"])
def test_corrupted_tables_name_the_reference_witness(name, worked_examples,
                                                     ybe_products, monkeypatch):
    """Single-cell corruptions of either table, and label swaps in the
    product table, at orders 8, 48, 192, 256 and 288."""
    ex = {key: example.brace for key, example in worked_examples.items()}
    B = _WIDE[name](ex) if name in _WIDE else ex[name] if name in ex else ybe_products[name]
    n = B.order
    rng = random.Random(f"rows:{name}")
    seen = set()
    for trial in range(12):
        tables = [[list(row) for row in B.add_group.table],
                  [list(row) for row in B.mul_group.table]]
        if trial % 3 < 2:
            bad = tables[trial % 3]
            a, c = rng.randrange(n), rng.randrange(n)
            bad[a][c] = rng.choice([v for v in range(n) if v != bad[a][c]])
        else:
            tables[1] = _swap_labels(tables[1], *rng.sample(range(1, n), 2))
        current = _outcome(lambda: _tables(make_brace(*tables)))
        with scalar_kernels(monkeypatch):
            reference = _outcome(lambda: _tables(make_brace(*tables)))
        assert current == reference
        seen.add(current[0])
    assert {NonAssociative, DistributivityViolation} <= seen


@pytest.mark.parametrize("name", ["ex12", "ex24xC2", "ex24xex8"])
def test_corrupted_solutions_retract_like_the_reference(name, worked_examples,
                                                        ybe_products):
    """Single-cell corruptions of solutions that retract (ex8's does not)."""
    B = worked_examples[name].brace if name in worked_examples else ybe_products[name]
    S = ybe.solution_from_brace(B)
    n = S.size
    rng = random.Random(f"retract:{name}")
    seen = set()
    for trial in range(12):
        rows = [[list(row) for row in S.r1], [list(row) for row in S.r2]]
        bad = rows[trial % 2]
        x, y = rng.randrange(n), rng.randrange(n)
        bad[x][y] = rng.choice([v for v in range(n) if v != bad[x][y]])
        broken = Solution(n, *(tuple(map(tuple, t)) for t in rows))
        current = _outcome(ybe.retract, broken)
        assert current == _outcome(ref.retract, broken)
        seen.add(current[0])
    assert RetractNotWellDefined in seen


def _edge_braces():
    """Orders 1 and 2, and the four braces of order 4."""
    return ([trivial_brace(cyclic_group(1)), trivial_brace(cyclic_group(2))]
            + [entry.brace for entry in census(4).entries])


def test_edge_orders_match_the_references(tmp_path, capsys, monkeypatch):
    for i, B in enumerate(_edge_braces()):
        tables = B.add_group.table, B.mul_group.table
        built = make_brace(*tables)
        S = ybe.solution_from_brace(built)
        sizes = ybe.retraction_sizes(S)
        with scalar_kernels(monkeypatch):
            ref_built = make_brace(*tables)
            ref_S = ybe.solution_from_brace(ref_built)
            ref_sizes = ybe.retraction_sizes(ref_S)
        assert _tables(built) == _tables(ref_built)
        assert S == ref_S and sizes == ref_sizes
        path = tmp_path / f"edge{i}.brace"
        path.write_text(write_brace_document(B), encoding="utf-8")
        for argv in (["ybe", str(path), "--retract"], ["analyze", str(path)],
                     ["analyze", str(path), "--format", "structured"]):
            current = main(argv), capsys.readouterr()
            with scalar_kernels(monkeypatch):
                reference = main(argv), capsys.readouterr()
            assert current == reference


@pytest.mark.parametrize("order, expected", [
    (1, "size 1\nbraid true\nbijective true\nnondegenerate true\n"
        "retraction-level 0\nr1\n0\nr2\n0\nretraction level 0\n"),
    (2, "size 2\nbraid true\nbijective true\nnondegenerate true\n"
        "retraction-level 1\nr1\n0 1\n0 1\nr2\n0 0\n1 1\n"
        "retract 1: size 1\nretraction level 1\n"),
])
def test_ybe_on_the_trivial_braces_of_order_1_and_2(order, expected, tmp_path, capsys):
    path = tmp_path / "c.brace"
    path.write_text(write_brace_document(trivial_brace(cyclic_group(order))),
                    encoding="utf-8")
    assert main(["ybe", str(path), "--retract"]) == 0
    assert capsys.readouterr().out == "[ybe]\n" + expected


def _document_mutations(B):
    """A table document of B, and copies with one table row changed: an
    entry respelled, out of range or not an integer, the row one entry short
    or long, or its spaces turned into tabs; at rows 0, 1 and n-1 of both
    tables."""
    text = write_brace_document(B)
    n = B.order
    lines = text.split("\n")
    yield text
    rows = sorted({lines.index(keyword) + 1 + r for keyword in ("add", "mul")
                   for r in {0, min(1, n - 1), n - 1}})
    for i in rows:
        parts = lines[i].split(" ")
        column = (i * 5) % n
        edits = [" ".join(parts[:column] + [token] + parts[column + 1:])
                 for token in ("+1", "01", "-0", "\u0663", "1.0", "1e1", str(n), "-1")]
        edits += [" ".join(parts[:-1]), " ".join(parts + ["0"]),
                  "\t".join(parts), " ".join("+" + p for p in parts)]
        for edit in edits:
            yield "\n".join(lines[:i] + [edit] + lines[i + 1:])
    yield text.replace(" ", "\t")


def _read_outcome(text):
    """The rows a table document parses to, before validation, or the line
    and message of its parse error."""
    def capture(add, mul, name=None):
        return [list(row) for row in add], [list(row) for row in mul], name
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "_prove_brace", capture)
            return parse_brace_document(text)
    except ParseError as exc:
        return exc.line, str(exc)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_reader_matches_the_scalar_reference(n, monkeypatch):
    B = census(8).entries[20].brace if n == 8 else trivial_brace(cyclic_group(n))
    outcomes = set()
    for text in _document_mutations(B):
        current = _read_outcome(text)
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_table", ref.read_table)
            reference = _read_outcome(text)
        assert current == reference, text
        outcomes.add(type(current[0]))
    assert outcomes == {list, int}


def test_fuzzed_documents_parse_like_the_scalar_reference(worked_examples, monkeypatch):
    """The seeded document mutations of the CLI fuzz test, and the same
    mutations of a cocycle document, parse or fail alike."""
    from test_cli import _mutations
    ex = worked_examples["ex8"]
    spec = ex.spec
    cocycle = ["skewbrace 1", "order 8", "cocycle",
               "add", *cli._table_lines(spec.additive.table),
               "mult", *cli._table_lines(spec.multiplicative.table),
               "lambda", *cli._table_lines(spec.acting),
               "delta", " ".join(map(str, spec.delta)), "end"]
    docs = [write_brace_document(ex.brace), "\n".join(cocycle) + "\n"]
    for base in docs:
        for text in _mutations(base, random.Random(2402), 200):
            current = _outcome(lambda: _tables(parse_brace_document(text)))
            with scalar_kernels(monkeypatch):
                reference = _outcome(lambda: _tables(parse_brace_document(text)))
            assert current == reference, text


class _Label(IntEnum):
    ONE = 1


@pytest.mark.parametrize("entry", [True, 1.0, "1", None, [1], -1, 8, 2**70, _Label.ONE],
                         ids=repr)
def test_closure_check_matches_the_scalar_reference(entry, worked_examples):
    base = worked_examples["ex8"].brace.add_group.table
    for a, b in ((0, 0), (3, 5), (7, 7)):
        table = [list(row) for row in base]
        table[a][b] = entry
        assert _outcome(groups._check_closure, table) == _outcome(ref.check_closure, table)


def test_closure_check_on_bool_and_short_rows_matches_the_reference():
    for table in ([[False, True], [True, False]], [(0, 1), (1,)], [[0, 1], [1, 0, 1]],
                  [[]], [], [[0]], [(0, 1), [1, 0]], [0, 12], [(0, 1), 1.0], True, None, 3):
        assert _outcome(groups._check_closure, table) == _outcome(ref.check_closure, table)


def test_tables_and_rows_without_length_are_not_closed():
    """A table or row with no length is named by NotClosed, and by
    SolutionInvalid around it in `verify_solution`, not a bare TypeError."""
    with pytest.raises(NotClosed, match=r"^row 0 is 0, which has no length$"):
        groups.make_group([0, 12])
    with pytest.raises(NotClosed, match=r"^table is True, which has no length$"):
        groups.make_group(True)
    with pytest.raises(NotClosed, match=r"^row 0 is 0, which has no length$"):
        make_brace([0, 1.0], [[0, 1], [1, 0]])
    with pytest.raises(NotClosed, match=r"^row 1 is 1\.0, which has no length$"):
        make_brace([[0, 1], 1.0], [[0, 1], [1, 0]])
    with pytest.raises(NotClosed, match=r"^additive table is True, which has no length$"):
        make_brace(True, [[0]])
    with pytest.raises(SolutionInvalid, match=r"^r2: row 1 is None, which has no length$"):
        ybe.verify_solution(2, [[0, 1], [1, 0]], [[0, 1], None])
    with pytest.raises(SolutionInvalid, match=r"^r1: table is 5, which has no length$"):
        ybe.verify_solution(1, 5, [[0]])


def test_solution_checks_match_the_scalar_reference(full_pool):
    """Census solutions, single-entry corruptions of either table (in range,
    at n, and a bool), and a swap of two entries of one row."""
    rng = random.Random("solution-checks")
    seen = set()
    for B in full_pool:
        S = ybe.solution_from_brace(B)
        n = S.size
        trials = [(S.r1, S.r2)]
        for _ in range(4):
            rows = [[list(row) for row in S.r1], [list(row) for row in S.r2]]
            bad = rows[rng.randrange(2)]
            x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            bad[x][y] = rng.choice([rng.randrange(n), n, bad[x][y] == 1])
            trials.append(tuple(rows))
            rows = [[list(row) for row in S.r1], [list(row) for row in S.r2]]
            bad = rows[rng.randrange(2)]
            bad[x][y], bad[x][z] = bad[x][z], bad[x][y]
            trials.append(tuple(rows))
        for r1, r2 in trials:
            current = _outcome(ybe.verify_solution, n, r1, r2)
            assert current == _outcome(ref.solution_checks, n, r1, r2)
            seen.add(current)
    assert len(seen) > 4
