"""Independent brute-force oracles over explicit element sets.

Everything here works on plain 1-based image tuples with set algebra and
never touches the stabilizer-chain engine, so it is a genuinely independent
route for cross-checking orders, membership, classes, solvability,
nilpotency and radicals at small scale.
"""

from itertools import combinations


def mult(p, q):
    """Apply q first, then p."""
    return tuple([p[v - 1] for v in q])


def invert(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def conj(a, g):
    return mult(a, mult(g, invert(a)))


def comm(x, y):
    return mult(x, mult(y, mult(invert(x), invert(y))))


def closure(gens, degree):
    """Breadth-first multiplication closure."""
    ident = tuple(range(1, degree + 1))
    els = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                t = mult(g, e)
                if t not in els:
                    els.add(t)
                    new.append(t)
        frontier = new
    return els


def span(seed_set, degree):
    """Subgroup generated by an arbitrary element set."""
    return closure(list(seed_set), degree)


def derived_set(els, degree):
    """[G, G] from all commutators; normality is free since all pairs are used."""
    return span({comm(x, y) for x in els for y in els}, degree)


def is_solvable_set(els, degree):
    cur = set(els)
    while len(cur) > 1:
        nxt = derived_set(cur, degree)
        if len(nxt) == len(cur):
            return False
        cur = nxt
    return True


def is_nilpotent_set(els, degree):
    whole = set(els)
    cur = whole
    while len(cur) > 1:
        nxt = span({comm(x, y) for x in cur for y in whole}, degree)
        if len(nxt) == len(cur):
            return False
        cur = nxt
    return True


def classes_set(els):
    """Partition into conjugacy classes (by conjugating with every element)."""
    els = set(els)
    remaining = set(els)
    classes = []
    while remaining:
        g = min(remaining)
        cls = {conj(a, g) for a in els}
        classes.append(frozenset(cls))
        remaining -= cls
    return classes


def centralizer_set(els, x):
    return {a for a in els if mult(a, x) == mult(x, a)}


def normal_subgroups_small(els, degree, max_classes=14):
    """All normal subgroups, as unions of conjugacy classes that happen to be
    subgroups; exponential in the class count, so only for tiny groups."""
    classes = classes_set(els)
    assert len(classes) <= max_classes, "too many classes for subset search"
    ident = tuple(range(1, degree + 1))
    ident_class = next(c for c in classes if ident in c)
    others = [c for c in classes if c is not ident_class]
    out = []
    for r in range(len(others) + 1):
        for pick in combinations(others, r):
            candidate = set(ident_class)
            for c in pick:
                candidate |= c
            if len(span(candidate, degree)) == len(candidate):
                out.append(frozenset(candidate))
    return out


def max_normal_with(els, degree, predicate):
    """Largest normal subgroup satisfying a predicate on its element set."""
    best = None
    for n in normal_subgroups_small(els, degree):
        if predicate(set(n), degree) and (best is None or len(n) > len(best)):
            best = n
    return set(best)


# Series and radicals of groups up to degree ~7 (order up to 5,040), where
# all-pairs commutators are too many.  A subgroup is carried as its element
# set plus a generating set; every step is a multiplication closure.


def adjoin(els, gens, x):
    """Extend the subgroup `els`, generated by `gens`, by x in place, coset
    by coset (Dimino): the union of the cosets tK of K = els found by left
    multiplication with the generators is closed under it, so it is the
    new span."""
    gens.append(x)
    k = list(els)
    reps = [tuple(range(1, len(x) + 1))]
    for r in reps:
        for s in gens:
            t = mult(s, r)
            if t not in els:
                els.update([mult(t, y) for y in k])
                reps.append(t)


def span_with_gens(seeds, degree):
    """(elements, gens) of the subgroup generated by `seeds`, keeping as
    generators only the seeds the span so far misses."""
    els, gens = {tuple(range(1, degree + 1))}, []
    for x in seeds:
        if x not in els:
            adjoin(els, gens, x)
    return els, gens


def normal_closure_with_gens(seeds, ambient_gens, degree):
    """(elements, gens) of the normal closure of `seeds` in the group that
    `ambient_gens` generate: a subgroup is normal once every conjugate of
    each of its generators by each ambient generator lies in it."""
    els, gens = span_with_gens(seeds, degree)
    i = 0
    while i < len(gens):
        for s in ambient_gens:
            c = conj(s, gens[i])
            if c not in els:
                adjoin(els, gens, c)
        i += 1
    return els, gens


def commutators_with(els, gens):
    """[x, s] = x s x^-1 s^-1 for x in els (ascending) and s in gens."""
    pairs = [(s, invert(s)) for s in gens]
    for x in sorted(els):
        x_inv = invert(x)
        for s, s_inv in pairs:
            yield mult(mult(x, s), mult(x_inv, s_inv))


def derived_orders(gens, degree):
    """Orders of H >= [H,H] >= ... down to 1 or to the first repeated
    order, which is that of the solvable residual, as
    `structure.solvable_residual_order` reads it.  [H,H] is generated by the
    [x, s] with x in H and s in a generating set S of H: conjugating
    [x, s] by y gives [yx, s][y, s]^-1, so that subgroup is normal, and
    modulo it every s is central, so the quotient is abelian."""
    els, gens = span_with_gens(gens, degree)
    orders = [len(els)]
    while True:
        els, gens = span_with_gens(commutators_with(els, gens), degree)
        orders.append(len(els))
        if len(els) in (1, orders[-2]):
            return orders


def lower_central_orders(gens, degree):
    """Orders of gamma_1 = H >= gamma_2 >= ... down to 1 or to the first
    repeated order.  gamma_{i+1} = [gamma_i, H] is the normal closure in H
    of the [x, s] with x in gamma_i and s in a generating set S of H:
    modulo that closure every s centralizes gamma_i, so H does."""
    whole, h_gens = span_with_gens(gens, degree)
    els = whole
    orders = [len(els)]
    while True:
        els, _ = normal_closure_with_gens(
            commutators_with(els, h_gens), h_gens, degree
        )
        orders.append(len(els))
        if len(els) in (1, orders[-2]):
            return orders


def radical_set(gens, degree, terminates):
    """The largest normal subgroup whose series `terminates(gens, degree)`
    reaches 1, as the union of its classes (see class_verdicts)."""
    return {
        x
        for orbit, (member,) in class_verdicts(gens, degree, [terminates])
        if member
        for x in orbit
    }


def class_verdicts(gens, degree, tests):
    """Each conjugacy class of the group `gens` generate, in ascending order
    of its smallest member, with the verdict of each of `tests` on the
    class's normal closure, the span of the class, built once per class.  A
    normal subgroup with a test's property holds the closure of each of its
    elements, so the classes that pass a test make up its radical.  Classes
    are conjugation orbits under the generators."""
    els, gens = span_with_gens(gens, degree)
    remaining = set(els)
    verdicts = {}  # normal closure -> verdicts, for closures met again
    while remaining:
        orbit = {min(remaining)}
        frontier = list(orbit)
        while frontier:
            frontier = [
                c for c in {conj(s, x) for x in frontier for s in gens}
                if c not in orbit
            ]
            orbit.update(frontier)
        remaining -= orbit
        closure_els, closure_gens = span_with_gens(sorted(orbit), degree)
        if len(closure_els) == len(els):
            closure_gens = gens
        key = frozenset(closure_els)
        if key not in verdicts:
            verdicts[key] = [test(closure_gens, degree) for test in tests]
        yield orbit, verdicts[key]


def radical_reps(gens, degree, tests):
    """For each of `tests`, the smallest members of the classes in its
    radical, ascending, and the radical's order: one normal closure per
    class (see class_verdicts)."""
    out = [([], [0]) for _ in tests]
    for orbit, verdicts in class_verdicts(gens, degree, tests):
        for (reps, order), member in zip(out, verdicts):
            if member:
                reps.append(min(orbit))
                order[0] += len(orbit)
    return [(reps, order) for reps, (order,) in out]


def prime_divisors(n):
    return {
        p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))
    }


def solvable_by_orders(gens, degree):
    return derived_orders(gens, degree)[-1] == 1


def nilpotent_by_orders(gens, degree):
    return lower_central_orders(gens, degree)[-1] == 1
