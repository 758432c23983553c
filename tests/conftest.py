"""Shared brace pools reused across test modules."""

import pytest

from skewbrace import census, cyclic_group, direct_product_braces, trivial_brace
from skewbrace.fixtures import build, example_names


@pytest.fixture(scope="session")
def worked_examples():
    """The four built-in worked examples keyed by name."""
    return {name: build(name) for name in example_names()}


@pytest.fixture(scope="session")
def small_entries():
    """Every census entry of order 1 through 8."""
    entries = []
    for n in range(1, 9):
        entries.extend(census(n).entries)
    return entries


@pytest.fixture(scope="session")
def medium_entries():
    """Every census entry of order 9 through 12."""
    entries = []
    for n in range(9, 13):
        entries.extend(census(n).entries)
    return entries


@pytest.fixture(scope="session")
def small_pool(small_entries, worked_examples):
    """Braces of order 1..8 plus the worked examples."""
    braces = [entry.brace for entry in small_entries]
    braces.extend(ex.brace for ex in worked_examples.values())
    return braces


@pytest.fixture(scope="session")
def full_pool(small_pool, medium_entries):
    """Braces of order 1..12 plus the worked examples."""
    return small_pool + [entry.brace for entry in medium_entries]


@pytest.fixture(scope="session")
def products(worked_examples):
    """Direct products of the worked examples of order 48 and 64, by name."""
    ex = {name: w.brace for name, w in worked_examples.items()}
    c2, c4 = (trivial_brace(cyclic_group(k)) for k in (2, 4))
    return {
        "ex24xC2": direct_product_braces(ex["ex24"], c2),
        "ex12xC4": direct_product_braces(ex["ex12"], c4),
        "ex8xex8": direct_product_braces(ex["ex8"], ex["ex8"]),
        "ex32xC2": direct_product_braces(ex["ex32"], c2),
    }


@pytest.fixture(scope="session")
def ybe_products(worked_examples):
    """The six products of order 48-192 that the ybe benchmark runs, by name."""
    ex = {name: w.brace for name, w in worked_examples.items()}
    c2, c3, c4 = (trivial_brace(cyclic_group(k)) for k in (2, 3, 4))
    return {
        "ex24xC2": direct_product_braces(ex["ex24"], c2),
        "ex8xex8": direct_product_braces(ex["ex8"], ex["ex8"]),
        "ex32xC3": direct_product_braces(ex["ex32"], c3),
        "ex32xC4": direct_product_braces(ex["ex32"], c4),
        "ex12xex12": direct_product_braces(ex["ex12"], ex["ex12"]),
        "ex24xex8": direct_product_braces(ex["ex24"], ex["ex8"]),
    }


@pytest.fixture(scope="session")
def odd_prime_products(worked_examples):
    """Products whose orders have two or three odd primes, by name: the
    only pool where a Sylow tower orders two odd primes.  C15xex8 is not
    supersoluble, as ex8 is not."""
    ex = {name: w.brace for name, w in worked_examples.items()}
    c15 = census(15).entries[0].brace
    d14 = next(e.brace for e in census(14).entries if e.brace.name == "D14#0")
    return {
        "C15xex12": direct_product_braces(c15, ex["ex12"]),
        "ex12xC5": direct_product_braces(ex["ex12"], trivial_brace(cyclic_group(5))),
        "D14#0xC15": direct_product_braces(d14, c15),
        "C15xex8": direct_product_braces(c15, ex["ex8"]),
    }
