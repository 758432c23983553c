"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import time

from skewbrace import (
    all_ideals,
    brace_from_cocycle,
    census,
    census_oracle,
    check_brace_invariants,
    chief_series,
    classify_subset,
    cyclic_group,
    derived_ideal,
    direct_product,
    fitting,
    group_catalog,
    group_isomorphism,
    additive_closure,
    index,
    is_b_centrally_nilpotent,
    is_centrally_nilpotent,
    is_nilpotent_group,
    is_supersoluble,
    is_supersoluble_group,
    is_supersoluble_oracle,
    lower_central_series,
    maximal_subbraces,
    multipermutation_level,
    retract,
    semidirect_group,
    socle_series,
    solution_from_brace,
    sub_brace,
    trivial_brace,
    u_p,
    upper_central_series,
    verify_solution,
)


def _criterion(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def _primes(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_criterion_01_fixture_reconstruction(worked_examples):
    ok = True
    timings = []
    for name, ex in worked_examples.items():
        start = time.monotonic()
        rebuilt = brace_from_cocycle(ex.spec)
        valid = check_brace_invariants(rebuilt)
        elapsed = time.monotonic() - start
        timings.append(f"{name} {elapsed:.3f}s")
        ok = ok and valid and rebuilt.tables() == ex.brace.tables() and elapsed < 1.0
    _criterion(1, "fixture-reconstruction", ok, ", ".join(timings))


def test_criterion_02_order8_example(worked_examples):
    b = worked_examples["ex8"].brace
    maximal = maximal_subbraces(b)
    ok = len(maximal) == 1
    ok = ok and index(b, maximal[0]) == 2
    ok = ok and not is_supersoluble(b)
    c4xc2 = direct_product(cyclic_group(4), cyclic_group(2))
    d8 = next(g for lbl, g in group_catalog(8) if lbl == "D8")
    ok = ok and group_isomorphism(b.add_group, c4xc2) is not None
    ok = ok and group_isomorphism(b.mul_group, d8) is not None
    _criterion(2, "order-8-example", ok)


def test_criterion_03_order32_example(worked_examples):
    ex = worked_examples["ex32"]
    b = ex.brace
    proper = {
        tuple(sorted(i)) for i in all_ideals(b) if 1 < len(i) < b.order
    }
    expected = {
        tuple(sorted(ex.subsets[k])) for k in ("I", "J", "K", "L")
    }
    ok = proper == expected and len(proper) == 4
    ok = ok and tuple(sorted(derived_ideal(b))) == tuple(sorted(ex.subsets["L"]))
    ok = ok and bool(is_supersoluble(sub_brace(b, ex.subsets["I"])))
    ok = ok and bool(is_supersoluble(sub_brace(b, ex.subsets["J"])))
    ok = ok and not is_supersoluble(b)
    ok = ok and is_centrally_nilpotent(sub_brace(b, ex.subsets["L"]))
    joined = additive_closure(b, set(ex.subsets["I"]) | set(ex.subsets["J"]))
    ok = ok and len(joined) == b.order
    _criterion(3, "order-32-example", ok)


def test_criterion_04_order24_example(worked_examples):
    ex = worked_examples["ex24"]
    b = ex.brace
    ok = socle_series(b).orders() == (1, 3, 6, 24)
    ok = ok and multipermutation_level(b) == 3
    flags = classify_subset(b, ex.subsets["I"])
    ok = ok and flags.is_ideal and len(ex.subsets["I"]) == 12
    inner = sub_brace(b, ex.subsets["I"])
    ok = ok and not is_centrally_nilpotent(inner)
    inner_fit = fitting(inner).elements
    fit_positions = tuple(sorted(ex.subsets["I"][k] for k in inner_fit))
    ok = ok and fit_positions == tuple(sorted(ex.subsets["fit_I"]))
    ok = ok and len(fit_positions) == 6
    ok = ok and not classify_subset(b, ex.subsets["fit_I"]).is_left_ideal
    _criterion(4, "order-24-example", ok)


def test_criterion_05_order12_example(worked_examples):
    ex = worked_examples["ex12"]
    b = ex.brace
    ok = socle_series(b).orders() == (1, 3, 6, 12)
    ok = ok and multipermutation_level(b) == 3
    span = tuple(sorted(derived_ideal(b)))
    ok = ok and span == tuple(sorted(ex.subsets["star_span"]))
    ok = ok and span == (0, 2, 4, 6, 8, 10)
    inner = sub_brace(b, span)
    ok = ok and not is_nilpotent_group(inner.mul_group)
    result = is_supersoluble(b)
    ok = ok and bool(result)
    factors = result.chain.factor_orders()
    ok = ok and len(factors) == 3 and all(_primes(f) == [f] for f in factors)
    _criterion(5, "order-12-example", ok)


def test_criterion_06_theorem_suite(small_pool, full_pool):
    counterexamples = []
    for b in small_pool:
        result = is_supersoluble(b)
        if bool(result) != is_supersoluble_oracle(b):
            counterexamples.append((b.name, "greedy-vs-oracle"))
        if not result:
            continue
        if len(_primes(b.order)) == 1 and not is_centrally_nilpotent(b):
            counterexamples.append((b.name, "p-power-not-centrally-nilpotent"))
        if not all(f.is_prime_order for f in chief_series(b).factors):
            counterexamples.append((b.name, "non-prime-chief-factor"))
        for m in maximal_subbraces(b):
            k = index(b, m)
            if _primes(k) != [k]:
                counterexamples.append((b.name, "non-prime-maximal-index"))
            elif k == 2 and not classify_subset(b, m).is_ideal:
                counterexamples.append((b.name, "index-2-not-ideal"))
        for p in _primes(b.order):
            u = u_p(b, p)
            if not (u.equal and u.is_ideal):
                counterexamples.append((b.name, f"u_{p}-defect"))
        if not is_supersoluble_group(semidirect_group(b)):
            counterexamples.append((b.name, "semidirect-not-supersoluble"))
        has_level = multipermutation_level(b) is not None
        if is_nilpotent_group(b.add_group) != has_level:
            counterexamples.append((b.name, "nilpotent-additive-vs-level"))
        span = sorted(derived_ideal(b))
        if multipermutation_level(sub_brace(b, span)) is None:
            counterexamples.append((b.name, "derived-ideal-no-level"))
    # In a supersoluble brace a centrally nilpotent ideal is B-centrally
    # nilpotent, so the Fitting search may sum such ideals.
    for b in filter(is_supersoluble, full_pool):
        for i in all_ideals(b):
            if is_centrally_nilpotent(sub_brace(b, i)) and not is_b_centrally_nilpotent(b, i):
                counterexamples.append((b.name, "centrally-nilpotent-ideal-not-b-central"))
    detail = str(counterexamples[:3]) if counterexamples else ""
    _criterion(6, "theorem-suite", not counterexamples, detail)


def test_criterion_07_square_free_orders():
    ok = True
    for n in (6, 10):
        for entry in census(n).entries:
            ok = ok and bool(is_supersoluble(entry.brace))
    _criterion(7, "square-free-supersoluble", ok)


def test_criterion_08_census_integrity(small_entries):
    ok = True
    details = []
    for n in range(2, 9):
        mine = census(n).count()
        theirs = census_oracle(n)
        details.append(f"{n}:{mine}")
        ok = ok and mine == theirs
    for entry in small_entries:
        ok = ok and check_brace_invariants(entry.brace)
    _criterion(8, "census-integrity", ok, " ".join(details))


def test_criterion_09_yang_baxter(full_pool, worked_examples):
    ok = True
    braces = list(full_pool)
    braces += [e.brace for n in (13, 14, 15) for e in census(n).entries]
    for b in braces:
        sol = solution_from_brace(b)
        step = sol
        while True:
            ok = ok and verify_solution(step.size, step.r1, step.r2).all_ok()
            smaller, _ = retract(step)
            if smaller.size == step.size:
                break
            step = smaller
        for x in range(b.order):
            for y in range(b.order):
                if b.mul(sol.r1[x][y], sol.r2[x][y]) != b.mul(x, y):
                    ok = False
    flip = solution_from_brace(trivial_brace(cyclic_group(5)))
    ok = ok and all(
        flip.r1[x][y] == y and flip.r2[x][y] == x for x in range(5) for y in range(5)
    )
    s3 = next(g for lbl, g in group_catalog(6) if lbl == "S3")
    conj = solution_from_brace(trivial_brace(s3))
    ok = ok and all(
        conj.r1[x][y] == y and conj.r2[x][y] == s3.mul(s3.inv(y), s3.mul(x, y))
        for x in range(6)
        for y in range(6)
    )
    base = solution_from_brace(worked_examples["ex8"].brace)
    for which, i1, j1, i2, j2 in (
        (0, 0, 1, 0, 2),
        (0, 1, 3, 2, 5),
        (1, 2, 6, 5, 1),
        (0, 4, 2, 4, 7),
        (1, 7, 0, 3, 3),
    ):
        r1 = [list(row) for row in base.r1]
        r2 = [list(row) for row in base.r2]
        target = r1 if which == 0 else r2
        target[i1][j1], target[i2][j2] = target[i2][j2], target[i1][j1]
        mutated = verify_solution(base.size, r1, r2)
        ok = ok and not (mutated.braid and mutated.bijective and mutated.nondegenerate)
    _criterion(9, "yang-baxter-solutions", ok)


def test_criterion_10_central_series_consistency(full_pool):
    ok = True
    for b in full_pool:
        lower = lower_central_series(b)
        upper = upper_central_series(b)
        lower_hits_zero = len(lower.terms[-1]) == 1
        upper_hits_top = len(upper.terms[-1]) == b.order
        if lower_hits_zero != upper_hits_top:
            ok = False
        elif lower_hits_zero and len(lower.terms) != len(upper.terms):
            ok = False
    _criterion(10, "central-series-consistency", ok)
