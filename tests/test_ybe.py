"""Tests for set-theoretic solution generation, verification, and retraction."""

import random

import pytest

from skewbrace import (
    RetractNotWellDefined,
    Solution,
    SolutionInvalid,
    cyclic_group,
    group_catalog,
    multipermutation_level,
    retract,
    retraction_level,
    retraction_sizes,
    solution_from_brace,
    trivial_brace,
    verify_solution,
)


def catalog_group(n, label):
    for lbl, g in group_catalog(n):
        if lbl == label:
            return g
    raise AssertionError(f"no group labeled {label} of order {n}")


def all_pass(checks):
    return checks.braid and checks.bijective and checks.nondegenerate


def test_every_pool_brace_yields_a_valid_solution(small_pool):
    for b in small_pool:
        sol = solution_from_brace(b)
        assert sol.size == b.order
        while True:
            assert all_pass(verify_solution(sol.size, sol.r1, sol.r2)), b.name
            smaller, _ = retract(sol)
            if smaller.size == sol.size:
                break
            sol = smaller


def test_product_compatibility(worked_examples):
    for ex in worked_examples.values():
        b = ex.brace
        sol = solution_from_brace(b)
        for x in range(b.order):
            for y in range(b.order):
                u = sol.r1[x][y]
                v = sol.r2[x][y]
                assert b.mul(u, v) == b.mul(x, y), ex.name


def test_trivial_abelian_brace_gives_flip():
    b = trivial_brace(cyclic_group(5))
    sol = solution_from_brace(b)
    for x in range(5):
        for y in range(5):
            assert sol.r1[x][y] == y
            assert sol.r2[x][y] == x


def test_trivial_brace_on_nonabelian_group_gives_conjugation():
    g = catalog_group(6, "S3")
    sol = solution_from_brace(trivial_brace(g))
    for x in range(6):
        for y in range(6):
            assert sol.r1[x][y] == y
            assert sol.r2[x][y] == g.mul(g.inv(y), g.mul(x, y))


def test_verify_solution_flags():
    n = 4
    flip_r1 = [[y for y in range(n)] for _ in range(n)]
    flip_r2 = [[x for _ in range(n)] for x in range(n)]
    checks = verify_solution(n, flip_r1, flip_r2)
    assert all_pass(checks)
    ident_r1 = [[x for _ in range(n)] for x in range(n)]
    ident_r2 = [[y for y in range(n)] for _ in range(n)]
    checks = verify_solution(n, ident_r1, ident_r2)
    assert checks.braid
    assert checks.bijective
    assert not checks.nondegenerate


def test_verify_solution_rejects_malformed_tables():
    with pytest.raises(SolutionInvalid, match=r"r1: entry at \(0, 1\) is 5"):
        verify_solution(2, [[0, 5], [1, 0]], [[0, 1], [1, 0]])
    with pytest.raises(SolutionInvalid, match="r2: row 1 has length 1"):
        verify_solution(2, [[0, 1], [1, 0]], [[0, 1], [1]])
    with pytest.raises(SolutionInvalid, match="r1 has 1 rows, expected 2"):
        verify_solution(2, [[0, 1]], [[0, 1], [1, 0]])


def reference_braid(n, r1, r2):
    """The braid check as a plain loop over all triples, comparing both
    sides as 3-tuples, until the first failure."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a, b = r1[x][y], r2[x][y]
                p, q = r1[b][z], r2[b][z]
                lhs = (r1[a][p], r2[a][p], q)
                c, d = r1[y][z], r2[y][z]
                s, t = r1[x][c], r2[x][c]
                rhs = (s, r1[t][d], r2[t][d])
                if lhs != rhs:
                    return False
    return True


def test_braid_check_matches_reference_loop(small_entries, medium_entries):
    rng = random.Random(10)
    outcomes = set()
    for entry in small_entries + medium_entries:
        sol = solution_from_brace(entry.brace)
        n = sol.size
        cases = [(sol.r1, sol.r2), (sol.r2, sol.r1)]
        for which in (0, 1):
            for _ in range(3):
                tables = [[list(row) for row in sol.r1], [list(row) for row in sol.r2]]
                tables[which][rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
                cases.append(tuple(tables))
        for r1, r2 in cases:
            expected = reference_braid(n, r1, r2)
            assert verify_solution(n, r1, r2).braid == expected, entry.brace.name
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_mutation_controls_fail(worked_examples):
    sol = solution_from_brace(worked_examples["ex8"].brace)
    mutations = [
        (0, 0, 1, 0, 2),
        (0, 1, 3, 2, 5),
        (1, 2, 6, 5, 1),
        (0, 4, 2, 4, 7),
        (1, 7, 0, 3, 3),
    ]
    for which, i1, j1, i2, j2 in mutations:
        r1 = [list(row) for row in sol.r1]
        r2 = [list(row) for row in sol.r2]
        target = r1 if which == 0 else r2
        assert target[i1][j1] != target[i2][j2]
        target[i1][j1], target[i2][j2] = target[i2][j2], target[i1][j1]
        checks = verify_solution(sol.size, r1, r2)
        assert not all_pass(checks), (which, i1, j1, i2, j2)


def test_retraction_level_matches_multipermutation_level(full_pool):
    for b in full_pool:
        sol = solution_from_brace(b)
        level = retraction_level(sol)
        mp = multipermutation_level(b)
        assert (level is None) == (mp is None), b.name
        # verify_solution accepts list rows, and so does the retraction.
        listed = Solution(sol.size, [list(r) for r in sol.r1], [list(r) for r in sol.r2])
        assert verify_solution(listed.size, listed.r1, listed.r2).all_ok(), b.name
        assert retract(listed) == retract(sol), b.name
        assert retraction_sizes(listed) == retraction_sizes(sol), b.name
        assert retraction_level(listed) == level, b.name


def test_frozen_retraction_levels(worked_examples):
    assert retraction_level(solution_from_brace(worked_examples["ex12"].brace)) == 3
    assert retraction_level(solution_from_brace(worked_examples["ex24"].brace)) == 3
    assert retraction_level(solution_from_brace(worked_examples["ex8"].brace)) is None
    assert retraction_level(solution_from_brace(worked_examples["ex32"].brace)) is None


def test_flip_retracts_in_one_step():
    sol = solution_from_brace(trivial_brace(cyclic_group(4)))
    assert retraction_level(sol) == 1
    smaller, class_map = retract(sol)
    assert smaller.size == 1
    assert class_map == [0, 0, 0, 0]


def test_conjugation_solution_does_not_retract():
    sol = solution_from_brace(trivial_brace(catalog_group(6, "S3")))
    assert retraction_level(sol) is None
    same, class_map = retract(sol)
    assert same.size == sol.size
    assert sorted(set(class_map)) == list(range(6))


def test_singleton_solution_level_zero():
    sol = solution_from_brace(trivial_brace(cyclic_group(1)))
    assert retraction_level(sol) == 0


def test_empty_solution_retracts_to_itself():
    # verify_solution passes the empty solution, and it has no points to
    # identify.
    assert retract(Solution(0, (), ())) == (Solution(0, (), ()), [])


def test_retract_rejects_inconsistent_tables():
    r1 = ((0, 1, 2), (0, 1, 2), (0, 2, 1))
    r2 = ((0, 0, 2), (0, 0, 2), (1, 1, 0))
    sol = Solution(3, r1, r2)
    with pytest.raises(RetractNotWellDefined):
        retract(sol)


def test_solution_apply(worked_examples):
    b = worked_examples["ex8"].brace
    sol = solution_from_brace(b)
    u, v = sol.apply(3, 5)
    assert (u, v) == (sol.r1[3][5], sol.r2[3][5])
