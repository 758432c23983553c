"""Tests for the command line interface and its document formats."""

import random
import re
import tracemalloc

import pytest

from skewbrace import (CocycleIdentityViolation, ParseError, SkewBrace, census,
                       cyclic_group, group_catalog, make_brace, trivial_brace)
from skewbrace import cli
from skewbrace.classify import SUPERSOLUBLE_ORDER_BOUND
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


def test_analyze_beyond_supersolubility_bound(tmp_path, capsys):
    doc = write_brace_document(trivial_brace(cyclic_group(SUPERSOLUBLE_ORDER_BOUND + 1)))
    path = write(tmp_path, "big.brace", doc)
    assert main(["analyze", path]) == 4
    assert "order bound exceeded" in capsys.readouterr().err


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


def test_cocycle_document_matches_table_document(tmp_path):
    ex = build("ex8")
    spec = ex.spec
    lines = ["skewbrace 1", "name ex8-cocycle", f"order {ex.brace.order}", "cocycle", "add"]
    lines += [" ".join(str(v) for v in row) for row in spec.additive.table]
    lines.append("mult")
    lines += [" ".join(str(v) for v in row) for row in spec.multiplicative.table]
    lines.append("lambda")
    lines += [" ".join(str(v) for v in row) for row in spec.acting]
    lines.append("delta")
    lines.append(" ".join(str(v) for v in spec.delta))
    lines.append("end")
    brace = parse_brace_document("\n".join(lines) + "\n")
    assert brace.tables() == ex.brace.tables()


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
    ex = build("ex24").brace
    b = make_brace(ex.add_group.table, ex.mul_group.table)
    cli._structured_report(b, None)
    assert set(b.cache) == documented


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
    """Every mutated document maps to exit code 0-4, never a traceback."""
    path = tmp_path / "fuzz.brace"
    for doc in _mutations(document_for("ex8"), random.Random(2402), 200):
        path.write_text(doc, encoding="utf-8")
        for argv in (["analyze", str(path)], ["ybe", str(path), "--retract"]):
            assert main(argv) in range(5)
            assert "Traceback" not in capsys.readouterr().err
