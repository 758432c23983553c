"""Tests for the result records (named tuples) and what importing the CLI loads."""

import subprocess
import sys
from pathlib import Path

import pytest

import skewbrace
from skewbrace import (
    BraceCensus,
    CensusEntry,
    Claim,
    ClassificationReport,
    CocycleSpec,
    FactorInfo,
    GroupMap,
    GroupPredicates,
    IdealChain,
    PaperExample,
    Solution,
    SolutionChecks,
    SubStructure,
    SupersolubleResult,
    UPResult,
    brace_report,
    census,
    cyclic_group,
    group_catalog,
    is_supersoluble,
    trivial_brace,
)

RECORDS = [
    CocycleSpec, CensusEntry, BraceCensus, SupersolubleResult, UPResult,
    ClassificationReport, Claim, PaperExample, GroupPredicates, GroupMap,
    FactorInfo, IdealChain, SubStructure, SolutionChecks, Solution,
]


def _filled(record):
    """An instance whose i-th field holds i."""
    return record(*range(len(record._fields)))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_fields_cannot_be_assigned(record):
    rec = _filled(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, -1)
    assert rec == tuple(range(len(record._fields)))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_record_repr_names_every_field(record):
    fields = ", ".join(f"{name}={i}" for i, name in enumerate(record._fields))
    assert repr(_filled(record)) == f"{record.__name__}({fields})"


def test_record_repr_literal():
    assert repr(FactorInfo(order=2, is_prime_order=True)) == (
        "FactorInfo(order=2, is_prime_order=True)")


def test_classification_report_is_trivial_defaults_to_false():
    assert ClassificationReport._field_defaults == {"is_trivial": False}
    values = range(len(ClassificationReport._fields) - 1)
    assert ClassificationReport(*values).is_trivial is False
    report = brace_report(trivial_brace(cyclic_group(4)))
    assert report.is_trivial is True


def test_supersoluble_result_truth_follows_the_flag():
    assert not SupersolubleResult(False, None, ((0,),), (3,))
    assert SupersolubleResult(True, None, (), ())
    assert bool(is_supersoluble(trivial_brace(cyclic_group(6)))) is True
    a4 = dict(group_catalog(12))["A4"]
    assert bool(is_supersoluble(trivial_brace(a4))) is False


def test_brace_census_count_is_the_number_of_entries():
    result = census(8)
    assert result.count() == len(result.entries) == 47
    assert len(result) == len(BraceCensus._fields) == 2
    assert sum(result.count_by_additive().values()) == 47


def _modules_loaded(package_root: str, statement: str) -> set[str]:
    """The modules a fresh isolated interpreter holds after `statement`."""
    code = (f"import sys; sys.path.insert(0, sys.argv[1]); {statement}; "
            "print(*sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-c", code, package_root],
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    root = str(Path(skewbrace.__file__).resolve().parent.parent)
    bare = _modules_loaded(root, "pass")
    added = _modules_loaded(root, "import skewbrace.cli") - bare
    assert "skewbrace.cli" in added
    assert not {"dataclasses", "inspect"} & added, sorted(added)
