"""Tests for the embedded worked examples and their claim registry."""

import hashlib

import pytest

from skewbrace import (
    CocycleIdentityViolation,
    CocycleSpec,
    DeltaNotBijective,
    SkewBraceError,
    brace_from_cocycle,
    build,
    check_brace_invariants,
    example_names,
    verify_claims,
)
from skewbrace import fixtures

EXPECTED_ORDERS = {"ex8": 8, "ex12": 12, "ex24": 24, "ex32": 32}

EXPECTED_CLAIM_COUNTS = {"ex8": 7, "ex12": 8, "ex24": 10, "ex32": 11}

DELTA_SPOT_VALUES = {
    "ex8": {0: 0, 2: 2, 4: 1, 1: 4, 7: 3},
    "ex12": {0: 0, 2: 5, 1: 6, 11: 7, 10: 1},
    "ex24": {0: 0, 8: 16, 2: 1, 1: 6, 22: 21, 21: 2},
    "ex32": {0: 0, 8: 20, 1: 16, 2: 21, 31: 6},
}

# SHA-256 of repr((additive table, multiplicative table, acting, delta)) of
# each example's spec: how the spec is built from the paper's data must not
# move a single entry.
SPEC_SHA256 = {
    "ex8": "d0ac06e020fc52af9290758c8aef8c25a6200a614c4f3054eeb9cde97616fd18",
    "ex12": "822ef19d771e038acbe44da5eb341c5ae6b938d8c0a95a72c8ea25d52c3992aa",
    "ex24": "3e3811e574538a6d57de2aa87bd223aa0d72aace3e7ac4aacc349017f58513ce",
    "ex32": "e89bbd0537b0895bcc83bb71e667debc2f870850e1700248f032cc5c1fd13279",
}


def test_example_names():
    assert example_names() == ("ex8", "ex12", "ex24", "ex32")


def test_build_orders_and_validity():
    for name, order in EXPECTED_ORDERS.items():
        ex = build(name)
        assert ex.brace.order == order
        assert check_brace_invariants(ex.brace)


def test_build_caches():
    assert build("ex8") is build("ex8")


def test_unknown_name_raises():
    with pytest.raises(SkewBraceError):
        build("ex99")


def test_delta_spot_values():
    for name, expected in DELTA_SPOT_VALUES.items():
        delta = build(name).spec.delta
        for pos, value in expected.items():
            assert delta[pos] == value, (name, pos)


def test_delta_is_bijection():
    for name in example_names():
        delta = build(name).spec.delta
        assert sorted(delta) == list(range(len(delta)))
        assert delta[0] == 0


def test_all_claims_pass():
    for name in example_names():
        results = verify_claims(name)
        assert len(results) == EXPECTED_CLAIM_COUNTS[name]
        failures = [claim for claim, ok in results if not ok]
        assert failures == [], name


def test_brace_matches_its_cocycle_spec():
    for name in example_names():
        ex = build(name)
        rebuilt = brace_from_cocycle(ex.spec)
        assert rebuilt.tables() == ex.brace.tables()


def test_corrupted_delta_is_caught():
    for name in example_names():
        spec = build(name).spec
        delta = list(spec.delta)
        delta[1], delta[2] = delta[2], delta[1]
        bad = CocycleSpec(spec.additive, spec.multiplicative, spec.acting, tuple(delta))
        with pytest.raises(CocycleIdentityViolation):
            brace_from_cocycle(bad)


def test_subsets_are_recorded(worked_examples):
    assert set(worked_examples["ex8"].subsets) == {"maximal"}
    assert set(worked_examples["ex12"].subsets) == {"socle", "socle2", "star_span"}
    assert set(worked_examples["ex24"].subsets) == {"I", "fit_I", "socle", "socle2"}
    assert set(worked_examples["ex32"].subsets) == {"I", "J", "K", "L", "L2", "L3"}


def test_specs_are_pinned():
    for name, digest in SPEC_SHA256.items():
        s = build(name).spec
        data = (s.additive.table, s.multiplicative.table, s.acting, s.delta)
        assert hashlib.sha256(repr(data).encode()).hexdigest() == digest, name


def test_dropped_delta_word_names_the_element_left_without_one(monkeypatch):
    """Each example's delta table, less any one word, is rejected naming the
    element that word named."""
    calls = []
    real = fixtures._spec
    monkeypatch.setattr(fixtures, "_spec", lambda *args: calls.append(args) or real(*args))
    for name in example_names():
        fixtures._BUILDERS[name][0]()
        add, mul, gens, maps, delta_by_word = calls.pop()
        full = build(name).spec.delta
        for word, value in delta_by_word.items():
            kept = {w: v for w, v in delta_by_word.items() if w != word}
            spec = real(add, mul, gens, maps, kept)
            with pytest.raises(DeltaNotBijective,
                               match=rf"delta has entry None at {full.index(value)}, "):
                brace_from_cocycle(spec)
