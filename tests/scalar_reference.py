"""Cell-by-cell references for the row-at-a-time kernels.

Each function is the scalar loop its kernel ran before rows were compared
and built whole: `assoc_generators` for `groups._assoc_generators` (both
return the generators they prove on), `validate_pair` for
`braces._validate_pair` (over every a, before a ran over multiplicative
generators), `brace` for `braces._brace`,
`solution_from_brace` and `retract` for their `ybe` namesakes,
`table_lines` for `cli._table_lines`, `read_table` for `cli._read_table`,
`check_closure` for `groups._check_closure`, and `solution_checks` for
`ybe.verify_solution`.  The tests require the kernels to give the same
tables, and the same exception and message on bad input.

`star_table` is the star grid a brace once stored, and
`lower_central_series`, `right_series` and `left_series` are the
descending loops over every star product of the last term, which the
series now take on generators only; the tests require the same terms.
`derived_series` is the derived series of ideals seeded by every pair of
the last term and closed under every map of B, which `series.is_soluble`
seeds on generators only; `soluble_chain_search` is the search over the
ideal lattice for a chain with abelian factors that `is_soluble` made
before it; the tests require the same flag and the series as the chain.

`map_search` is `groups._map_search` as it closed each partial map under
every ordered pair of known elements in every table, before the first
table was closed along generator edges only; the tests require the same
automorphism lists, first isomorphisms and brace maps.

`all_pairs_homs` and `all_pairs_cocycles` try every tuple of generator
images for the census oracle, extend it along the BFS spanning edges of
`bfs_edges` (the edges the oracle's levels used before they came from one
orbit; a reference does not run the walker it checks) and keep the maps
whose identity holds on all pairs; `hol_order` is the holomorph order they
filter images by.  The tests require the oracle's `_action_homs` and
`_bijective_cocycles` to give the same sets.  `brace_from_cocycle` is
`braces.brace_from_cocycle` as it proved the cocycle identity on all
pairs; the tests require the same braces and the same exception classes.

`filtered_subbraces` is `substructure.all_subbraces` as it listed every
subgroup of the additive group and kept those closed under the product, and
`alternating_subbrace` is `substructure.subbrace_generated` as it closed
the seed in each table in turn until the set stopped growing; the tests
require the same lattices and the same generated subbraces from the one
join loop that closes each join in both tables at once.

`classify_subset`, `is_subgroup` and `is_normal` are their namesakes in
`substructure` and `groups` as they tested every pair of a subset and of
the carrier, before one subset prover proved them on generators; the tests
require the same flags, and filter the ideal lattice's oracles by them.
`is_normal` means a normal subgroup: a subgroup, and conjugation-invariant.

`sylow_tower` is `classify.sylow_tower` as it climbed section by section,
the section of a prime q holding the elements whose additive order has no
prime ranked after q (odd primes descending, 2 last): each step took the
first section not inside the last term I, and the least ideal of index q
minimal over I whose image modulo I lies in the section's image.  The
tests require the same terms from the greedy prime-index climb.
"""

from itertools import product

from skewbrace.braces import SkewBrace, _brace
from skewbrace.errors import (ActionNotHomomorphism, CocycleIdentityViolation,
                              DeltaNotBijective, DistributivityViolation, NonAssociative,
                              NotClosed, ParseError, RetractNotWellDefined,
                              SolutionInvalid, TranscriptionInvalid)
from skewbrace.classify import is_supersoluble_oracle
from skewbrace.groups import (_Span, _compose, _cosets, _group, _primes_of, closure,
                              element_order, element_orders, generating_set, subgroups)
from skewbrace.substructure import SubStructure, _covers, all_ideals
from skewbrace.ybe import Solution, SolutionChecks, _braid_holds


def assoc_generators(table):
    n = len(table)
    gens = tuple(_Span(table, range(n)).gens)
    for s in gens:
        ts = table[s]
        for x in range(n):
            sx = ts[x]
            tsx = table[sx]
            tx = table[x]
            for y in range(n):
                if tsx[y] != ts[tx[y]]:
                    raise NonAssociative(f"({s}*{x})*{y} != {s}*({x}*{y})")
    return gens


def validate_pair(add, mul):
    n = add.order
    ta, tm = add.table, mul.table
    neg = add.inverse
    gens = generating_set(add)
    for a in range(n):
        tma = tm[a]
        na = neg[a]
        for b in gens:
            tab = ta[b]
            left_part = ta[ta[tma[b]][na]]
            for c in range(n):
                if tma[tab[c]] != left_part[tma[c]]:
                    raise DistributivityViolation(
                        f"{a}({b}+{c}) != {a} {b} - {a} + {a} {c}")


def brace(add, mul, name=None):
    n = add.order
    ta, tm, neg = add.table, mul.table, add.inverse
    lam = tuple(tuple(ta[neg[a]][tm[a][b]] for b in range(n)) for a in range(n))
    return SkewBrace(add, mul, lam, name)


def star_table(B):
    n = B.order
    ta, lam, neg = B.add_group.table, B.lam_table, B.add_group.inverse
    return tuple(tuple(ta[lam[a][b]][neg[b]] for b in range(n)) for a in range(n))


def star_values(B, star, left, right):
    ta = B.add_group.table
    neg = B.add_group.inverse
    vals = set()
    for g in left:
        sg = star[g]
        for b in right:
            vals.add(sg[b])
            vals.add(star[b][g])
            vals.add(ta[ta[ta[g][b]][neg[g]]][neg[b]])
    return vals


def descending_series(B, step):
    terms = [tuple(range(B.order))]
    while True:
        nxt = closure(B.add_group, step(terms[-1]))
        if len(nxt) == len(terms[-1]):
            return terms
        terms.append(nxt)


def lower_central_series(B):
    star, full = star_table(B), tuple(range(B.order))
    return descending_series(B, lambda cur: star_values(B, star, cur, full))


def right_series(B):
    star = star_table(B)
    return descending_series(B, lambda cur: {star[r][b] for r in cur for b in B.elements()})


def left_series(B):
    star = star_table(B)
    return descending_series(B, lambda cur: {star[b][l] for b in B.elements() for l in cur})


def ideal_closure(B, seed):
    ta, tm, lam = B.add_group.table, B.mul_group.table, B.lam_table
    neg, inv = B.add_group.inverse, B.mul_group.inverse
    elems = set(closure(B.add_group, seed))
    while True:
        images = {z for x in elems for b in B.elements()
                  for z in (lam[b][x], tm[tm[b][x]][inv[b]], ta[ta[b][x]][neg[b]])}
        if images <= elems:
            return tuple(sorted(elems))
        elems = set(closure(B.add_group, elems | images))


def derived_series(B):
    star = star_table(B)
    terms = [tuple(range(B.order))]
    while True:
        nxt = ideal_closure(B, star_values(B, star, terms[-1], terms[-1]))
        if len(nxt) == len(terms[-1]):
            return terms
        terms.append(nxt)


def soluble_chain_search(B):
    ta, lam = B.add_group.table, B.lam_table
    ideals = all_ideals(B)
    dead = set()

    def abelian(coset_of, reps, J):
        elems = [x for x in J if reps[coset_of[x]] == x]
        return all(coset_of[lam[x][y]] == coset_of[y]
                   and coset_of[ta[x][y]] == coset_of[ta[y][x]]
                   for x in elems for y in elems)

    def climb(current):
        if len(current) == B.order:
            return [current]
        if current in dead:
            return None
        coset_of, reps = _cosets(B.add_group, current)
        cur = set(current)
        for cand in ideals:
            if cur < set(cand) and abelian(coset_of, reps, cand):
                rest = climb(cand)
                if rest is not None:
                    return [current] + rest
        dead.add(current)
        return None

    return climb((0,))


def solution_from_brace(B):
    n = B.order
    lam = B.lam_table
    mul = B.mul_group.table
    inv = B.mul_group.inverse
    r2 = tuple(
        tuple(mul[inv[lam[x][y]]][mul[x][y]] for y in range(n))
        for x in range(n)
    )
    return Solution(size=n, r1=lam, r2=r2)


def retract(S):
    n = S.size
    signature = [
        (S.r1[x], tuple(S.r2[z][x] for z in range(n)))
        for x in range(n)
    ]
    reps = {}
    class_of = [0] * n
    for x in range(n):
        sig = signature[x]
        if sig not in reps:
            reps[sig] = len(reps)
        class_of[x] = reps[sig]
    m = len(reps)
    member = [0] * m
    for x in range(n - 1, -1, -1):
        member[class_of[x]] = x
    new_r1 = [[0] * m for _ in range(m)]
    new_r2 = [[0] * m for _ in range(m)]
    for c in range(m):
        for d in range(m):
            x, y = member[c], member[d]
            new_r1[c][d] = class_of[S.r1[x][y]]
            new_r2[c][d] = class_of[S.r2[x][y]]
    for x in range(n):
        for y in range(n):
            c, d = class_of[x], class_of[y]
            if (new_r1[c][d] != class_of[S.r1[x][y]]
                    or new_r2[c][d] != class_of[S.r2[x][y]]):
                raise RetractNotWellDefined(
                    f"pair ({x},{y}) disagrees with the class representatives"
                )
    r1 = tuple(tuple(row) for row in new_r1)
    r2 = tuple(tuple(row) for row in new_r2)
    return Solution(m, r1, r2), class_of


def table_lines(table):
    return [" ".join(str(v) for v in row) for row in table]


def read_table(cursor, n, what):
    rows = []
    for _ in range(n):
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
        rows.append(row)
    return rows


def _length(seq, name):
    try:
        return len(seq)
    except TypeError:
        raise NotClosed(f"{name} is {seq!r}, which has no length") from None


def check_closure(table):
    n = _length(table, "table")
    for a, row in enumerate(table):
        if _length(row, f"row {a}") != n:
            raise NotClosed(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise NotClosed(f"entry at ({a}, {b}) is {v!r}, outside 0..{n - 1}")


def _is_perm(seq):
    return sorted(seq) == list(range(len(seq)))


def solution_checks(size, r1, r2):
    n = size
    for label, table in (("r1", r1), ("r2", r2)):
        try:
            if _length(table, "table") != n:
                raise SolutionInvalid(f"{label} has {len(table)} rows, expected {n}")
            check_closure(table)
        except NotClosed as exc:
            raise SolutionInvalid(f"{label}: {exc}") from None
    pairs = {(r1[x][y], r2[x][y]) for x in range(n) for y in range(n)}
    bijective = len(pairs) == n * n
    left = all(_is_perm(r1[x]) for x in range(n))
    right = all(_is_perm([r2[x][y] for x in range(n)]) for y in range(n))
    return SolutionChecks(braid=_braid_holds(n, r1, r2), bijective=bijective,
                          nondegenerate=left and right)


def conjugacy_class_sizes(G):
    """The size of each element's conjugacy class, each class found by
    conjugating its first element by every element: O(n k) lookups for k
    classes."""
    t, inv, n = G.table, G.inverse, G.order
    sizes = [0] * n
    for a in range(n):
        if not sizes[a]:
            cls = {t[t[g][a]][inv[g]] for g in range(n)}
            for x in cls:
                sizes[x] = len(cls)
    return tuple(sizes)


def center(G):
    """The elements commuting with every element."""
    t = G.table
    return tuple(a for a in G.elements() if all(t[a][g] == t[g][a] for g in G.elements()))


def map_search(sources, targets, want_all):
    n = sources[0].order
    if sorted(element_orders(sources[0])) != sorted(element_orders(targets[0])):
        return []
    inv_g, inv_h = (list(zip(*(zip(element_orders(G), conjugacy_class_sizes(G)) for G in side)))
                    for side in (sources, targets))
    if sorted(inv_g) != sorted(inv_h):
        return []
    pairs = [(G.table, H.table) for G, H in zip(sources, targets)]
    gens = generating_set(sources[0])
    results = []
    fwd = [-1] * n
    bwd = [-1] * n
    fwd[0] = 0
    bwd[0] = 0
    known = [0]

    def close_over(start):
        i = start
        while i < len(known):
            x = known[i]
            i += 1
            for tg, th in pairs:
                for y in known[: i]:
                    for a, b in ((x, y), (y, x)):
                        z = tg[a][b]
                        w = th[fwd[a]][fwd[b]]
                        if fwd[z] >= 0:
                            if fwd[z] != w:
                                return False
                        elif bwd[w] >= 0:
                            return False
                        else:
                            fwd[z] = w
                            bwd[w] = z
                            known.append(z)
        return True

    def undo(mark):
        for x in known[mark:]:
            bwd[fwd[x]] = -1
            fwd[x] = -1
        del known[mark:]

    def assign(gen_pos):
        if gen_pos == len(gens):
            if len(known) == n:
                results.append(tuple(fwd))
                return not want_all
            return False
        g = gens[gen_pos]
        if fwd[g] >= 0:
            return assign(gen_pos + 1)
        for h in range(n):
            if bwd[h] >= 0 or inv_h[h] != inv_g[g]:
                continue
            mark = len(known)
            fwd[g] = h
            bwd[h] = g
            known.append(g)
            if close_over(mark) and assign(gen_pos + 1):
                return True
            undo(mark)
        return False

    assign(0)
    return results


def bfs_edges(C, gens):
    """Edges (x, g, xg) reaching every element from the identity."""
    seen = [False] * C.order
    seen[0] = True
    frontier = [0]
    edges = []
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = C.table[x][g]
                if not seen[y]:
                    seen[y] = True
                    edges.append((x, g, y))
                    nxt.append(y)
        frontier = nxt
    return edges


def hol_order(A, v, phi):
    """Order of the pair (translate by v, twist by the permutation phi) in
    the holomorph, by composing permutation tuples."""
    ident = tuple(range(A.order))
    w, psi = v, tuple(phi)
    k = 1
    while w != 0 or psi != ident:
        w, psi = A.table[w][psi[v]], _compose(psi, phi)
        k += 1
    return k


def all_pairs_homs(C, auts):
    """Every product of generator images of fitting order, extended along
    BFS edges and kept when lam(ab) = lam(a) lam(b) on all pairs."""
    gens = generating_set(C)
    edges = bfs_edges(C, gens)
    ident = auts[0]

    def perm_order(phi):
        k, psi = 1, phi
        while psi != ident:
            k, psi = k + 1, _compose(psi, phi)
        return k

    candidates = [
        [phi for phi in auts if element_order(C, g) % perm_order(phi) == 0]
        for g in gens
    ]
    out = set()
    for images in product(*candidates):
        lam = [ident] * C.order
        for g, phi in zip(gens, images):
            lam[g] = phi
        for x, g, y in edges:
            lam[y] = _compose(lam[x], lam[g])
        if all(_compose(lam[a], lam[b]) == lam[C.table[a][b]]
               for a in range(C.order) for b in range(C.order)):
            out.add(tuple(lam))
    return out


def all_pairs_cocycles(C, A, lam):
    """Every product of generator images of fitting holomorph order, kept
    when it is a bijection and a cocycle on all pairs."""
    n = C.order
    gens = generating_set(C)
    edges = bfs_edges(C, gens)
    candidates = [
        [v for v in range(n) if hol_order(A, v, lam[g]) == element_order(C, g)]
        for g in gens
    ]
    out = set()
    for images in product(*candidates):
        delta = [0] * n
        for g, v in zip(gens, images):
            delta[g] = v
        for x, g, y in edges:
            delta[y] = A.table[delta[x]][lam[x][delta[g]]]
        if len(set(delta)) == n and all(
            delta[C.table[a][b]] == A.table[delta[a]][lam[a][delta[b]]]
            for a in range(n) for b in range(n)
        ):
            out.add(tuple(delta))
    return out


def brace_from_cocycle(spec, name=None):
    add = spec.additive
    mul = spec.multiplicative
    n = add.order
    if mul.order != n:
        raise TranscriptionInvalid(
            f"group orders differ: {n} additive vs {mul.order} multiplicative")
    if len(spec.delta) != n or len(spec.acting) != n:
        raise TranscriptionInvalid("acting or delta table has the wrong length")
    if sorted(spec.delta) != list(range(n)):
        raise DeltaNotBijective("delta is not a bijection onto the additive carrier")
    if spec.delta[0] != 0:
        raise TranscriptionInvalid(
            f"delta must send the identity to 0, got {spec.delta[0]}")
    ta, tm = add.table, mul.table
    acting = spec.acting
    full = set(range(n))
    for c, p in enumerate(acting):
        if len(p) != n or set(p) != full:
            raise TranscriptionInvalid(f"acting map of element {c} is not a bijection")
        for x in generating_set(add):
            for y in range(n):
                if p[ta[x][y]] != ta[p[x]][p[y]]:
                    raise TranscriptionInvalid(
                        f"acting map of element {c} is not additive at ({x}, {y})")
    for c in generating_set(mul):
        for d in range(n):
            if acting[tm[c][d]] != tuple(acting[c][v] for v in acting[d]):
                raise ActionNotHomomorphism(
                    f"acting map of {c} {d} differs from composing the maps")
    for c in range(n):
        for d in range(n):
            if spec.delta[tm[c][d]] != ta[spec.delta[c]][acting[c][spec.delta[d]]]:
                raise CocycleIdentityViolation(
                    f"delta({c} {d}) != delta({c}) + lambda({c})(delta({d}))")
    inv_delta = [0] * n
    for c, v in enumerate(spec.delta):
        inv_delta[v] = c
    mul_table = tuple(
        tuple(spec.delta[tm[inv_delta[a]][inv_delta[b]]] for b in range(n))
        for a in range(n)
    )
    return _brace(add, _group(mul_table), name)


def filtered_subbraces(B):
    tm = B.mul_group.table
    found = []
    for sub in subgroups(B.add_group):
        inside = set(sub)
        if all(tm[a][b] in inside for a in sub for b in sub):
            found.append(sub)
    return found


def alternating_subbrace(B, seed):
    elems = tuple(seed)
    while True:
        span = closure(B.add_group, elems)
        elems = closure(B.mul_group, span)
        if len(elems) == len(span):
            return span


def classify_subset(B, subset):
    inside = set(subset)
    elems = tuple(sorted(inside))
    ta, tm, lam = B.add_group.table, B.mul_group.table, B.lam_table
    neg, inv = B.add_group.inverse, B.mul_group.inverse
    closed_add = all(ta[a][b] in inside for a in elems for b in elems)
    closed_mul = all(tm[a][b] in inside for a in elems for b in elems)
    lam_invariant = all(lam[b][s] in inside for b in B.elements() for s in elems)
    add_normal = all(ta[ta[b][s]][neg[b]] in inside for b in B.elements() for s in elems)
    mul_normal = all(tm[tm[b][s]][inv[b]] in inside for b in B.elements() for s in elems)
    is_subbrace = closed_add and closed_mul
    is_left = closed_add and lam_invariant and closed_mul
    is_strong = is_left and add_normal
    is_ideal = is_strong and mul_normal
    return SubStructure(elems, is_subbrace, is_left, is_strong, is_ideal)


def is_subgroup(G, elems):
    s = set(elems)
    return 0 in s and all(G.table[a][b] in s for a in s for b in s)


def is_normal(G, elems):
    s = set(elems)
    t, inv = G.table, G.inverse
    return is_subgroup(G, s) and all(t[t[g][h]][inv[g]] in s for g in G.elements() for h in s)


def sylow_tower(B):
    if not is_supersoluble_oracle(B):
        return None
    add_ord = element_orders(B.add_group)
    sections = []
    allowed = set()
    for q in sorted(_primes_of(B.order), key=lambda q: (q == 2, -q)):
        allowed.add(q)
        sections.append((q, [x for x in B.elements() if set(_primes_of(add_ord[x])) <= allowed]))
    terms = [(0,)]
    while len(terms[-1]) < B.order:
        I = terms[-1]
        coset_of = _cosets(B.add_group, I)[0]
        for q, target in sections:
            image = {coset_of[x] for x in target}
            if len(image) > 1:
                break
        terms.append(next(J for J in _covers(B, I) if len(J) == q * len(I)
                          and {coset_of[x] for x in J} <= image))
    return tuple(terms)
