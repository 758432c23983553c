"""Tests for the command line interface and its document formats."""

import argparse
import contextlib
import gc
import hashlib
import io
import random
import re
import tracemalloc
from collections import Counter
from functools import reduce

import pytest

from skewbrace import (BraceCensus, CensusEntry, CocycleIdentityViolation,
                       DistributivityViolation, FiniteGroup, ParseError, SkewBrace, census,
                       cyclic_group, direct_product, direct_product_braces, group_catalog,
                       make_brace, make_group, retraction_sizes, solution_from_brace,
                       trivial_brace)
from skewbrace.braces import _brace
from skewbrace import classify, cli, groups, series, substructure
from skewbrace.cli import (
    main,
    parse_brace_document,
    write_brace_document,
    write_census_document,
)
from skewbrace.fixtures import build


def document_for(name):
    return write_brace_document(build(name).brace)


def write(tmp_path, filename, text):
    path = tmp_path / filename
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_analyze_text_report(tmp_path, capsys):
    path = write(tmp_path, "ex12.brace", document_for("ex12"))
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "supersoluble: yes" in out
    assert "multipermutation level: 3" in out


def test_analyze_structured_report(tmp_path, capsys):
    path = write(tmp_path, "ex8.brace", document_for("ex8"))
    assert main(["analyze", path, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    assert "[brace]" in out
    assert "[classify]" in out
    assert "[series]" in out
    assert "[ybe]" in out
    assert "supersoluble false" in out
    assert "blocking-minimal-orders 4" in out


def test_analyze_only_sections(tmp_path, capsys):
    path = write(tmp_path, "ex8.brace", document_for("ex8"))
    for section, marker in (
        ("brace", "[brace]"),
        ("classify", "[classify]"),
        ("series", "[series]"),
        ("ybe", "[ybe]"),
    ):
        assert main(["analyze", path, "--format", "structured", "--only", section]) == 0
        out = capsys.readouterr().out
        assert out.startswith(marker)
        others = {"[brace]", "[classify]", "[series]", "[ybe]"} - {marker}
        assert not any(o in out for o in others)


C2XC2_1_SECTIONS = {
    "brace": """\
C2xC2#1: order 4
  additive group: order 4, abelian, primes 2
  multiplicative group: order 4, abelian, primes 2
""",
    "classify": """\
supersoluble: yes, chain orders 1 2 4
nilpotency: central true, left true, right true; soluble true
multipermutation level: 2
fitting ideal: order 4
chief factors: 2 2; ideals: 3; maximal subbrace indices: 2
""",
    "series": """\
socle series orders: 1 2 4
upper central orders: 1 2 4
lower central orders: 4 2 1
derived ideal order: 2
""",
    "ybe": """\
solution on 4 points: all checks pass, retraction level 2
r1 rows:
  0 1 2 3
  0 1 2 3
  0 1 3 2
  0 1 3 2
r2 rows:
  0 0 0 0
  1 1 1 1
  2 2 3 3
  3 3 2 2
""",
}


def test_text_report_of_an_order_4_brace_is_pinned(tmp_path, capsys):
    brace = next(e.brace for e in census(4).entries if e.brace.name == "C2xC2#1")
    path = write(tmp_path, "c2c2.brace", write_brace_document(brace))
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == "".join(C2XC2_1_SECTIONS[s] for s in cli.SECTIONS)
    for section, text in C2XC2_1_SECTIONS.items():
        assert main(["analyze", path, "--only", section]) == 0
        assert capsys.readouterr().out == text


# SHA-256 of the stdout of each command on the example's document, taken
# from the output before the report emitters were merged into one table.
PINNED_OUTPUTS = {
    ("ex8", "analyze"): "7ac22bb6ca43cfb2b04c8f4e4cd5164ecb451741eff488e70be74dab456ec34e",
    ("ex8", "structured"): "ad682ad2409f2d025d76b74cf46d2e193915f1142e555ae48d2db105f04213bc",
    ("ex8", "ybe"): "845d6a6bd590189afb93221776794b1cb615af478f049638efa7d434c2be40d5",
    ("ex12", "analyze"): "d2f15d1d6e6057a1c26f72c3068cb26ca6c9e4b4e6c1523d3b9c8ad50859284c",
    ("ex12", "structured"): "20779b7d73af7f5e387c410cbe02c719237a6159bee6c59ace5ab3d91602b421",
    ("ex12", "ybe"): "64fa30d69d580b05da4efbee833f807e2b17a966e6f941ebbbe8fc8d6fa40f01",
    ("ex24", "analyze"): "2b0b2bc16251510d4e6f70861141a099e1dfdd28a0363108d40aee2a649dcfb9",
    ("ex24", "structured"): "4e21bbe983746acbdb825daf71b58b5938c360305f8bc5dfc9885f8cfdbf886e",
    ("ex24", "ybe"): "cb0a74f40671b44c710ea9f345761436b3608f97792d5bc3195daaba4b5e5d44",
    ("ex32", "analyze"): "e7c7f1afc8a704c93d10b8475150cd26a9d147236786f0c1ba0773864c361e65",
    ("ex32", "structured"): "980116d3ae961a08efdd97c10404d5d4da01fdb03715935b68ff9b436ac8d491",
    ("ex32", "ybe"): "1b74b1a280c96c6acda4c90ca5fb6ad733ab335e684daf29f9c9bc5ae42c6ecc",
}
PINNED_ARGV = {"analyze": ["analyze"], "structured": ["analyze", "--format", "structured"],
               "ybe": ["ybe", "--retract"]}


@pytest.mark.parametrize("name,command", sorted(PINNED_OUTPUTS))
def test_example_outputs_are_pinned(tmp_path, capsys, name, command):
    path = write(tmp_path, f"{name}.brace", document_for(name))
    argv = PINNED_ARGV[command]
    assert main([argv[0], path, *argv[1:]]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == PINNED_OUTPUTS[name, command]


# SHA-256 of `analyze --only series` on two products above order 64, taken
# from the output before the descending series were closed from generators.
PINNED_SERIES = {
    ("ex24", "ex8", "text"): "41cc71e04808c41f56b438b89285920548027c8857c307cdf027018415c28c92",
    ("ex24", "ex8", "structured"): "ef019e70a171525ae1bdad8a86987264dc57f2350fc4af9530b075af8260023c",
    ("ex24", "ex24", "text"): "b4a69d03bf14f93de31916d3cbd5372f1beb8603ce56e5cc32c4b96aaca1f5ea",
    ("ex24", "ex24", "structured"): "ccbb92fa9dc8e1754f8cab8136553d7a1cfdbba626b8985be12cc152b3ac4db1",
}


@pytest.mark.parametrize("left,right,fmt", sorted(PINNED_SERIES))
def test_series_of_large_products_are_pinned(tmp_path, capsys, worked_examples,
                                             left, right, fmt):
    brace = direct_product_braces(worked_examples[left].brace, worked_examples[right].brace)
    path = write(tmp_path, f"{left}x{right}.brace", write_brace_document(brace))
    assert main(["analyze", path, "--format", fmt, "--only", "series"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == PINNED_SERIES[left, right, fmt]


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_full_report_is_its_sections_joined(full_pool, products, fmt):
    braces = full_pool + [products[name] for name in ("ex24xC2", "ex12xC4", "ex8xex8")]
    for b in braces:
        assert (cli._report(b, fmt, None)
                == "".join(cli._report(b, fmt, s) for s in cli.SECTIONS)), b


def test_analyze_parse_error_reports_line(tmp_path, capsys):
    text = "skewbrace 1\norder 2\nadd\n0 1\n1 x\nmul\n0 1\n1 0\nend\n"
    path = write(tmp_path, "bad.brace", text)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "parse error: line 5:" in err
    assert "non-integer" in err


def test_analyze_rejects_wrong_header(tmp_path, capsys):
    path = write(tmp_path, "bad.brace", "something else\n")
    assert main(["analyze", path]) == 2
    assert "expected header" in capsys.readouterr().err


def test_analyze_validation_error_names_witness(tmp_path, capsys):
    text = (
        "skewbrace 1\n"
        "order 4\n"
        "add\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"
        "mul\n0 1 2 3\n1 0 3 2\n2 3 1 0\n3 2 0 1\n"
        "end\n"
    )
    path = write(tmp_path, "invalid.brace", text)
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "2(1+1)" in err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/path.brace"]) == 2
    assert "cannot read input" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "ybe"])
def test_non_utf8_document_is_parse_error(tmp_path, capsys, command):
    path = tmp_path / "bad.brace"
    path.write_bytes(b"skewbrace 1\nname x\xff\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "parse error: line 2: byte 0xff is not UTF-8\n"


def test_huge_declared_order_fails_at_the_first_row_in_little_memory(tmp_path, capsys):
    """The parse allocates by the rows it reads, not by the declared order."""
    text = ("skewbrace 1\nname huge\norder 2000000\nadd\n0 1\n1 0\n"
            "mul\n0 1\n1 0\n")
    assert text.count("\n") == 9
    assert main(["ybe", write(tmp_path, "huge.brace", text)]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 5: add row has 2 entries, expected 2000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            parse_brace_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_analyze_beyond_subgroup_bound(tmp_path, capsys):
    """Trivial C2^8 has 417,199 subbraces: analyze refuses it at the lattice
    entry bound, and prints nothing on stdout."""
    b = trivial_brace(reduce(direct_product, [cyclic_group(2)] * 8))
    path = write(tmp_path, "big.brace", write_brace_document(b))
    assert main(["analyze", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "order bound exceeded: lattice has more than 32768 entries\n"


def test_round_trip_preserves_structured_report(tmp_path, capsys):
    path = write(tmp_path, "ex24.brace", document_for("ex24"))
    assert main(["analyze", path, "--format", "structured"]) == 0
    first = capsys.readouterr().out
    brace = parse_brace_document(document_for("ex24"))
    path2 = write(tmp_path, "ex24b.brace", write_brace_document(brace))
    assert main(["analyze", path2, "--format", "structured"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_parse_round_trip_is_byte_stable():
    doc = document_for("ex12")
    again = write_brace_document(parse_brace_document(doc))
    assert doc == again


def _cocycle_document(ex):
    """The cocycle form of a worked example's document."""
    spec = ex.spec
    lines = ["skewbrace 1", f"name {ex.brace.name}-cocycle", f"order {ex.brace.order}",
             "cocycle", "add"]
    lines += [" ".join(str(v) for v in row) for row in spec.additive.table]
    lines.append("mult")
    lines += [" ".join(str(v) for v in row) for row in spec.multiplicative.table]
    lines.append("lambda")
    lines += [" ".join(str(v) for v in row) for row in spec.acting]
    lines.append("delta")
    lines.append(" ".join(str(v) for v in spec.delta))
    lines.append("end")
    return "\n".join(lines) + "\n"


def test_cocycle_document_matches_table_document(tmp_path):
    ex = build("ex8")
    brace = parse_brace_document(_cocycle_document(ex))
    assert brace.tables() == ex.brace.tables()


def test_cocycle_document_needs_identity_zero(tmp_path, capsys):
    # C3 with identity 1 in both tables and delta its inversion, a cocycle of
    # the trivial action in the document's labels.  Moving the identity to 0
    # would keep lambda and delta in the old labels and blame delta instead.
    swap = [1, 0, 2]
    rows = [[0] * 3 for _ in range(3)]
    for x in range(3):
        for y in range(3):
            rows[swap[x]][swap[y]] = swap[(x + y) % 3]
    table = [" ".join(map(str, row)) for row in rows]
    doc = ["skewbrace 1", "order 3", "cocycle", "add", *table, "mult", *table,
           "lambda", *["0 1 2"] * 3, "delta", "2 1 0", "end"]
    path = write(tmp_path, "c3.brace", "\n".join(doc) + "\n")
    assert main(["analyze", path]) == 3
    assert capsys.readouterr().err == "validation error: the identity of add is element 1, not 0\n"


def test_comments_and_blank_lines_are_skipped():
    doc = document_for("ex8")
    noisy = "# leading comment\n\n" + doc.replace(
        "order 8", "# mid comment\n\norder 8"
    )
    assert parse_brace_document(noisy).tables() == build("ex8").brace.tables()


def test_verify_paper_all_pass(capsys):
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "36 claims checked, 0 failures" in out
    assert "FAIL" not in out


def test_verify_paper_single_fixture(capsys):
    assert main(["verify-paper", "--fixture", "ex12"]) == 0
    out = capsys.readouterr().out
    assert "8 claims checked, 0 failures" in out
    assert out.count("pass ex12") == 8


def test_verify_paper_unknown_fixture_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--fixture", "nosuch"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "nosuch" in err
    assert "Traceback" not in err


def test_verify_paper_corrupted_delta_fails(monkeypatch, capsys):
    def rejected(name):
        raise CocycleIdentityViolation("delta(1 2) != delta(1) + lambda(1)(delta(2))")

    monkeypatch.setattr("skewbrace.cli.build", rejected)
    assert main(["verify-paper", "--fixture", "ex8"]) == 1
    out = capsys.readouterr().out
    assert "FAIL ex8 build:" in out
    assert "1 failures" in out


def test_enumerate_prints_counts(capsys):
    assert main(["enumerate", "6"]) == 0
    out = capsys.readouterr().out
    assert "order 6: 6 braces" in out
    assert "additive C6: 2" in out
    assert "additive S3: 4" in out


def test_enumerate_square_free(capsys):
    assert main(["enumerate", "6", "--square-free"]) == 0
    assert "all 6 entries supersoluble" in capsys.readouterr().out


def test_enumerate_check_and_export(tmp_path, capsys):
    target = tmp_path / "census4.doc"
    assert main(["enumerate", "4", "--check", "--export", str(target)]) == 0
    out = capsys.readouterr().out
    assert "checked 4 entries, 0 failures" in out
    text = target.read_text(encoding="utf-8")
    assert text.startswith("skewbrace-census 1\norder 4\ncount 4\n")
    assert text == write_census_document(census(4))


@pytest.fixture
def non_brace_census(monkeypatch):
    """Order 4 patched into the CLI's census as two entries, the first a
    non-brace: additive C4 with multiplicative C4 relabelled by [0, 1, 3, 2]
    breaks the brace axiom.  Returns the two tables of that entry."""
    c4 = cyclic_group(4)
    perm = [0, 1, 3, 2]
    relabelled = make_group([[perm[c4.table[perm[a]][perm[b]]] for b in range(4)]
                             for a in range(4)])
    entries = (CensusEntry(_brace(c4, relabelled), "C4", "C4"), census(4).entries[1])
    monkeypatch.setattr("skewbrace.cli.census", lambda n: BraceCensus(4, entries))
    return c4.table, relabelled.table


def test_enumerate_check_reports_each_failing_entry(non_brace_census, capsys):
    """A non-brace entry is named with its witness and the check goes on to
    the next entry."""
    assert main(["enumerate", "4", "--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    with pytest.raises(DistributivityViolation) as exc:
        make_brace(*non_brace_census)
    assert str(exc.value) == "1(1+1) != 1 1 - 1 + 1 1"
    assert f"FAIL entry 0 (C4 / C4): {exc.value}" in lines
    assert not any(line.startswith("FAIL entry 1") for line in lines)
    assert lines[-1] == "checked 2 entries, 1 failures"


def test_enumerate_square_free_skips_the_entries_the_check_rejects(non_brace_census, capsys):
    """The supersoluble pass skips the entry the brace check rejected, so it
    prints no verdict on it and no summary, and the command exits 1; without
    the check, the same entry gets a verdict."""
    assert main(["enumerate", "4", "--check", "--square-free"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["FAIL entry 0 (C4 / C4): 1(1+1) != 1 1 - 1 + 1 1",
                          "checked 2 entries, 1 failures"]
    assert main(["enumerate", "4", "--square-free"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAIL entry 0 (C4 / C4): not supersoluble"


def test_enumerate_check_rejects_a_lambda_table_that_disagrees(monkeypatch, capsys):
    """Order 4 patched into the CLI's census with entry 0's lambda table
    tampered: both tables still form a brace, so only the comparison with
    the rebuilt lambda table rejects it."""
    entries = census(4).entries
    B = entries[0].brace
    row = list(B.lam_table[1])
    row[2], row[3] = row[3], row[2]
    tampered = SkewBrace(B.add_group, B.mul_group,
                         B.lam_table[:1] + (tuple(row),) + B.lam_table[2:], B.name)
    patched = (entries[0]._replace(brace=tampered),) + entries[1:]
    monkeypatch.setattr("skewbrace.cli.census", lambda n: BraceCensus(4, patched))
    assert main(["enumerate", "4", "--check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    label = f"{entries[0].additive_label} / {entries[0].multiplicative_label}"
    assert f"FAIL entry 0 ({label}): invariant check" in lines
    assert not any(line.startswith("FAIL entry 1") for line in lines)
    assert lines[-1] == "checked 4 entries, 1 failures"


def test_enumerate_export_write_failure(tmp_path, capsys):
    target = tmp_path / "missing" / "census4.doc"
    assert main(["enumerate", "4", "--export", str(target)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err
    assert "cannot read input" not in err


def test_enumerate_beyond_bound(capsys):
    assert main(["enumerate", "16"]) == 4
    assert "order bound exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "-3"])
def test_enumerate_order_below_one_is_usage_error(order, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", order])
    assert exc.value.code == 2
    assert "order must be positive" in capsys.readouterr().err


def test_ybe_report_and_retract(tmp_path, capsys):
    path = write(tmp_path, "ex12.brace", document_for("ex12"))
    assert main(["ybe", path, "--retract"]) == 0
    out = capsys.readouterr().out
    assert "[ybe]" in out
    assert "braid true" in out
    assert "retract 1:" in out
    assert "retraction level 3" in out


def test_ybe_retract_stalls_on_conjugation(tmp_path, capsys):
    s3 = next(g for lbl, g in group_catalog(6) if lbl == "S3")
    path = write(tmp_path, "s3.brace", write_brace_document(trivial_brace(s3)))
    assert main(["ybe", path, "--retract"]) == 0
    assert "retraction stalls at size 6" in capsys.readouterr().out


def test_ybe_flat_solution(tmp_path, capsys):
    doc = write_brace_document(trivial_brace(cyclic_group(3)))
    path = write(tmp_path, "c3.brace", doc)
    assert main(["ybe", path]) == 0
    out = capsys.readouterr().out
    assert "retraction-level 1" in out


def test_ybe_retract_matches_the_solution_route(tmp_path, capsys, full_pool, ybe_products):
    """`ybe --retract` and the [ybe] report read the retraction chain off the
    socle series; retracting the solution tables must give the same lines."""
    path = str(tmp_path / "b.brace")
    for b in [*full_pool, *ybe_products.values()]:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(write_brace_document(b))
        sizes = retraction_sizes(solution_from_brace(b))
        level = len(sizes) - 1 if sizes[-1] == 1 else None
        assert main(["ybe", path, "--retract"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.startswith("retract ")] == [
            f"retract {k}: size {s}" for k, s in enumerate(sizes[1:], 1)], b.name
        assert lines[-1] == (f"retraction stalls at size {sizes[-1]}" if level is None
                             else f"retraction level {level}"), b.name
        assert main(["analyze", path, "--format", "structured", "--only", "ybe"]) == 0
        assert f"retraction-level {'none' if level is None else level}" in (
            capsys.readouterr().out.splitlines()), b.name


def test_commands_leave_no_cyclic_garbage(tmp_path, worked_examples):
    """No cached value refers back to its brace, so a brace and its tables are
    freed by reference counting once the command drops it."""
    ex = {name: w.brace for name, w in worked_examples.items()}
    for b in (ex["ex24"], direct_product_braces(ex["ex24"], ex["ex8"]),
              census(12).entries[5].brace):
        path = write(tmp_path, "b.brace", write_brace_document(b))
        B = parse_brace_document(write_brace_document(b))
        gc.collect()
        gc.disable()
        try:
            classify.brace_report(B)
            for fmt in cli._REPORTS:
                cli._report(B, fmt, None)
            with contextlib.redirect_stdout(io.StringIO()):
                cli.cmd_ybe(argparse.Namespace(path=path, retract=True))
            del B
            assert gc.collect() == 0, b.name
        finally:
            gc.enable()


def test_main_builds_the_parser_once(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "ex12.brace", document_for("ex12"))
    commands = [["enumerate", "0"], ["enumerate", "4", "--check"], ["analyze", path]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in commands:
        monkeypatch.setattr(cli, "_PARSER", None)
        fresh.append(run(argv))
    assert [code for code, _out, _err in fresh] == [2, 0, 0]

    builds = []
    build_parser = cli._build_parser

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_build_parser", counted)
    monkeypatch.setattr(cli, "_PARSER", None)
    assert [run(argv) for argv in commands] == fresh
    assert len(builds) == 1


def test_structured_report_leaves_only_the_documented_cache_keys():
    documented = set(re.findall(r'"(\w+)"', SkewBrace.__doc__))
    group_documented = set(re.findall(r'"(\w+)"', FiniteGroup.__doc__))
    ex = build("ex24").brace
    b = make_brace(ex.add_group.table, ex.mul_group.table)
    cli._report(b, "structured", None)
    assert set(b.cache) == documented
    for G in (b.add_group, b.mul_group):
        assert {"generating_set", "element_orders"} <= set(G.cache) <= group_documented


def test_report_builds_each_group_fact_and_the_ideal_maps_once(monkeypatch):
    """From reading the tables to the last line of a structured report,
    each group builds its generating set and element orders once and the
    brace its ideal maps once, although the validation, lattices, series
    and predicates all ask for them."""
    builds = Counter()
    cached = groups._cached

    def counting(owner, key, build):
        def counted():
            builds[owner, key] += 1
            return build()
        return cached(owner, key, counted)

    for module in (groups, substructure, series, classify):
        monkeypatch.setattr(module, "_cached", counting)
    ex = build("ex24").brace
    b = make_brace(ex.add_group.table, ex.mul_group.table)
    cli._report(b, "structured", None)
    assert set(builds.values()) == {1}
    for G in (b.add_group, b.mul_group):
        assert builds[G, "generating_set"] == builds[G, "element_orders"] == 1
        assert set(G.cache) == {key for owner, key in builds if owner is G}
    assert builds[b, "ideal_maps"] == 1
    assert set(b.cache) == {key for owner, key in builds if owner is b}


def _mutations(text, rng, count):
    """Seeded truncations, in-range digit swaps (which parse and reach
    validation), and 1-3 character replacements, insertions and deletions
    of a document."""
    alphabet = "0123456789 \n-#abdelmnorstux"
    digits = [i for i, ch in enumerate(text) if ch in "01234567"]
    for trial in range(count):
        if trial % 4 == 0:
            yield text[:rng.randrange(len(text))]
            continue
        if trial % 4 == 1:
            pos = rng.choice(digits)
            yield text[:pos] + rng.choice("01234567") + text[pos + 1:]
            continue
        chars = list(text)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(chars))
            kind = rng.randrange(3)
            if kind == 0:
                chars[pos] = rng.choice(alphabet)
            elif kind == 1:
                chars.insert(pos, rng.choice(alphabet))
            else:
                del chars[pos]
        yield "".join(chars)


def test_fuzzed_documents_end_with_an_exit_code(tmp_path, capsys):
    """Every mutated document, in table and in cocycle form, maps to exit
    code 0-4, never a traceback."""
    path = tmp_path / "fuzz.brace"
    for text in (document_for("ex8"), _cocycle_document(build("ex8"))):
        for doc in _mutations(text, random.Random(2402), 200):
            path.write_text(doc, encoding="utf-8")
            for argv in (["analyze", str(path)], ["ybe", str(path), "--retract"]):
                assert main(argv) in range(5)
                assert "Traceback" not in capsys.readouterr().err
