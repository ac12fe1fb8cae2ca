"""Permutation groups with deterministic stabilizer chains.

The chain (Schreier-Sims) certifies order and membership; base points are
always the first moved point not yet fixed, so construction is deterministic
for identical input. Centralizers, normalizers and Sylow subgroups of
groups of order at most ``_BRUTE_SEARCH_LIMIT`` are computed here from the
element list: centralizers, normalizers and intersections are filters over
the image tuples of the element list (:func:`_subgroup_where`), which grow
one chain from the elements that pass. Above the limit they are delegated to
sympy.combinatorics's backtrack searches through :func:`_backend`, with
sympy's random generator seeded to a fixed value so that its answers repeat
from run to run. sympy is imported only then.

Subgroups always live in the ambient degree of their parent; nothing is
re-indexed.
"""

from __future__ import annotations

import numpy as np

from .arith import is_prime, p_part, p_valuation
from .caps import DEFAULT_CAPS, CapExceeded, Caps
from .perm import Permutation, _compose, _conj, _inverse


class DegreeMismatch(ValueError):
    pass


class NotASubgroup(ValueError):
    pass


class NotNormal(ValueError):
    pass


class StabilizerChain:
    """Deterministic incremental Schreier-Sims stabilizer chain over image tuples.

    Level i has the base point ``base[i]``, the strong generators that fix
    ``base[:i]`` pointwise, and the orbit of ``base[i]`` under them:
    ``transversals[i]`` maps each orbit point p to a coset representative u
    with ``base[i]^u == p``, and ``inverses[i]`` maps p to u^-1, computed once
    when p joins the orbit.

    The chain only grows. :meth:`extend` sifts an element and, if it is not
    yet a member, adds the residue as a strong generator and re-completes the
    levels it reaches. Orbits are extended in place, so a representative never
    changes once chosen, and each level remembers which (orbit point, strong
    generator) Schreier pairs it has already sifted, so completing a level
    looks only at new pairs (incremental Schreier-Sims; Seress, *Permutation
    Group Algorithms*, 2003, sec. 4.2). Construction is :meth:`extend` applied
    to each generator in turn.

    New base points are the first point the residue moves, except that
    ``base_hint`` ranks points: earlier hinted points are used first.
    ``forced_prefix`` fixes the first base points outright. This is how
    homomorphism kernels are extracted (fix all codomain points first).
    """

    def __init__(self, degree, gen_tuples, base_hint=None, forced_prefix=None):
        self.degree = degree
        self.base = []
        self.transversals = []  # per level: {point p: coset rep u with base^u == p}
        self.inverses = []      # per level: {point p: u^-1}
        self._gens = []         # per level: (s, s^-1) for the strong generators s fixing base[:i], oldest first
        self._orbits = []       # per level: orbit points in the order they joined
        self._paired = []       # per level and orbit point: how many of _gens[i] it was paired with
        self._ident = tuple(range(degree))
        hint = list(base_hint) if base_hint is not None else []
        self._hint_rank = {p: r for r, p in enumerate(hint)}
        for p in forced_prefix or ():
            self._add_level(p)
        for g in gen_tuples:
            self.extend(g)

    # -- construction ------------------------------------------------------

    def extend(self, g) -> bool:
        """Add g to the group; returns False, changing nothing, if g is already in it."""
        residue, lev = self._strip(g)
        if residue == self._ident:
            return False
        self._add_strong(residue, lev)
        for i in range(lev, -1, -1):
            self._complete(i)
        return True

    def _add_level(self, b):
        self.base.append(b)
        self.transversals.append({b: self._ident})
        self.inverses.append({b: self._ident})
        self._gens.append([])
        self._orbits.append([b])
        self._paired.append([0])

    def _add_strong(self, h, lev):
        """Add h, which fixes base[:lev] and moves base[lev] (if it exists)."""
        if lev == len(self.base):
            moved = [i for i in range(self.degree) if h[i] != i]
            rank = self._hint_rank
            self._add_level(min(moved, key=lambda p: (rank.get(p, len(rank)), p)))
        pair = (h, _inverse(h))
        for gens in self._gens[: lev + 1]:
            gens.append(pair)

    def _strip(self, g, start=0):
        for i in range(start, len(self.base)):
            u_inv = self.inverses[i].get(g[self.base[i]])
            if u_inv is None:
                return g, i
            g = _compose(g, u_inv)
        return g, len(self.base)

    def _complete(self, i):
        """Pair every orbit point of level i with every strong generator there:
        a new image joins the orbit, any other pair gives a Schreier generator
        that must sift through the deeper levels. A nontrivial residue becomes
        a strong generator, and then every point has a new pair, so the scan
        starts again from the first point."""
        t, inv, gens = self.transversals[i], self.inverses[i], self._gens[i]
        orbit, paired = self._orbits[i], self._paired[i]
        ident = self._ident
        k = 0
        while k < len(orbit):
            p, added = orbit[k], False
            while paired[k] < len(gens) and not added:
                s, s_inv = gens[paired[k]]
                paired[k] += 1
                q = s[p]
                u = _compose(t[p], s)
                if q not in t:  # a tree edge: its Schreier generator is trivial
                    t[q] = u
                    inv[q] = _compose(s_inv, inv[p])
                    orbit.append(q)
                    paired.append(0)
                    continue
                if u == t[q]:
                    continue
                residue, lev = self._strip(_compose(u, inv[q]), i + 1)
                if residue != ident:
                    self._add_strong(residue, lev)
                    for j in range(lev, i, -1):
                        self._complete(j)
                    added = True
            k = 0 if added else k + 1

    # -- queries -----------------------------------------------------------

    @property
    def order(self):
        out = 1
        for t in self.transversals:
            out *= len(t)
        return out

    def contains(self, g):
        return self._strip(g)[0] == self._ident

    def strong_generators_fixing(self, k):
        """Strong generators fixing base[:k] pointwise."""
        return [s for s, _ in self._gens[k]] if k < len(self.base) else []

    def element_tuples(self):
        """All elements, deterministically ordered (coset products)."""
        elems = [self._ident]
        for t in reversed(self.transversals):
            elems = [_compose(e, u) for u in t.values() for e in elems]
        return elems

    def random_element(self, rng):
        g = self._ident
        for t in reversed(self.transversals):
            reps = list(t.values())
            g = _compose(g, reps[rng.randrange(len(reps))])
        return g


class PermGroup:
    """A finite permutation group given by generators, with a verified chain.

    Instances are immutable after construction; internal caches are
    idempotent. Equality of the underlying subgroups is tested with
    :meth:`same_group`, not ``==``.
    """

    def __init__(self, degree, generators, caps: Caps = DEFAULT_CAPS):
        caps.check("degree", degree)
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = None
        self._elements = None
        self._sympy = None
        self._lattice = None
        self._subgroups = None

    # -- constructions -----------------------------------------------------

    @staticmethod
    def trivial(degree, caps: Caps = DEFAULT_CAPS):
        return PermGroup(degree, [], caps=caps)

    @staticmethod
    def cyclic(n, degree=None, caps: Caps = DEFAULT_CAPS):
        degree = n if degree is None else degree
        return PermGroup(degree, [Permutation.from_cycles([list(range(n))], degree)], caps=caps)

    @staticmethod
    def symmetric(n, caps: Caps = DEFAULT_CAPS):
        if n <= 1:
            return PermGroup.trivial(max(n, 1), caps=caps)
        gens = [Permutation.from_cycles([[0, 1]], n)]
        if n > 2:
            gens.append(Permutation.from_cycles([list(range(n))], n))
        return PermGroup(n, gens, caps=caps)

    @staticmethod
    def alternating(n, caps: Caps = DEFAULT_CAPS):
        if n <= 2:
            return PermGroup.trivial(max(n, 1), caps=caps)
        gens = [Permutation.from_cycles([[i, i + 1, i + 2]], n) for i in range(n - 2)]
        return PermGroup(n, gens, caps=caps)

    @staticmethod
    def dihedral(n, caps: Caps = DEFAULT_CAPS):
        """Dihedral group of order 2n on n points (n >= 3)."""
        if n < 3:
            raise ValueError("dihedral(n) needs n >= 3")
        rot = Permutation.from_cycles([list(range(n))], n)
        refl = Permutation(tuple((n - i) % n for i in range(n)))
        return PermGroup(n, [rot, refl], caps=caps)

    # -- chain-backed queries ------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, [g.images for g in self.generators])
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order

    def contains(self, x: Permutation) -> bool:
        if x.degree != self.degree:
            raise DegreeMismatch(f"element degree {x.degree} != group degree {self.degree}")
        return self.chain.contains(x.images)

    def __contains__(self, x):
        return self.contains(x)

    def element_tuples(self, cap=None):
        if self._elements is None:
            if cap is not None and self.order > cap:
                raise CapExceeded("order_enum", cap, self.order)
            self._elements = self.chain.element_tuples()
        return self._elements

    def elements(self, cap=None):
        return [Permutation(t) for t in self.element_tuples(cap)]

    def element_set(self, cap=None):
        return frozenset(self.element_tuples(cap))

    def random_element(self, rng) -> Permutation:
        return Permutation(self.chain.random_element(rng))

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    # -- subgroup relations --------------------------------------------------

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and all(other.contains(g) for g in self.generators)

    def same_group(self, other: "PermGroup") -> bool:
        return self.order == other.order and self.is_subgroup_of(other)

    def is_normal_in(self, other: "PermGroup") -> bool:
        return self.is_subgroup_of(other) and all(
            self.contains(x.conj(g)) for x in self.generators for g in other.generators
        )

    def normalizes(self, other: "PermGroup") -> bool:
        return all(other.contains(x.conj(g)) for x in other.generators for g in self.generators)

    def conjugated(self, g: Permutation, caps: Caps = DEFAULT_CAPS) -> "PermGroup":
        return PermGroup(self.degree, [x.conj(g) for x in self.generators], caps=caps)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a * b == b * a for i, a in enumerate(gens) for b in gens[i + 1 :])

    def is_trivial(self) -> bool:
        return not self.generators

    # -- sympy bridge ----------------------------------------------------------

    def to_sympy(self):
        if self._sympy is None:
            from sympy.combinatorics import Permutation as SPerm
            from sympy.combinatorics import PermutationGroup as SGroup

            if self.generators:
                self._sympy = SGroup([SPerm(list(g.images)) for g in self.generators])
            else:
                self._sympy = SGroup([SPerm(list(range(self.degree)))])
        return self._sympy

    def _from_sympy(self, sgroup, caps: Caps = DEFAULT_CAPS) -> "PermGroup":
        gens = []
        for g in sgroup.generators:
            arr = g.array_form
            arr = arr + list(range(len(arr), self.degree))
            gens.append(Permutation(arr))
        return PermGroup(self.degree, gens, caps=caps)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order}, gens={[str(g) for g in self.generators]})"


# ---------------------------------------------------------------------------
# spec operations


def conjugacy_classes(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    """All conjugacy classes as (representative, size), identity class first.

    Enumeration-based; representatives are the lexicographically least image
    tuples of their class, and classes are sorted by (size, representative).
    """
    caps.check("order_enum", G.order)
    elems = G.element_tuples()
    deg = G.degree
    arr = np.array(elems, dtype=np.int32).reshape(len(elems), deg)
    index = {row.tobytes(): i for i, row in enumerate(arr)}
    gen_arrs = [(np.array(g.images, dtype=np.int32), np.array(g.inv().images, dtype=np.int32)) for g in G.generators]
    seen = np.zeros(len(elems), dtype=bool)
    classes = []
    for start in range(len(elems)):
        if seen[start]:
            continue
        members = [start]
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                x = arr[i]
                for g, g_inv in gen_arrs:
                    y = g[x[g_inv]]
                    j = index[y.tobytes()]
                    if not seen[j]:
                        seen[j] = True
                        members.append(j)
                        nxt.append(j)
            frontier = nxt
        rep = min(tuple(arr[i]) for i in members)
        classes.append((Permutation(tuple(int(v) for v in rep)), len(members)))
    classes.sort(key=lambda rs: (rs[1], rs[0].images))
    return classes


def normal_closure(G: PermGroup, xs, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Smallest subgroup containing xs that is normalized by G."""
    xs = list(xs)
    for x in xs:
        if not G.contains(x):
            raise NotASubgroup(f"element {x} is not in the ambient group")
    gens = [x for x in xs if not x.is_identity()]
    # reads gens while _generated appends to it: each new conjugate is conjugated in turn
    conjugates = (x.conj(g) for x in gens for g in G.generators)
    return _generated(G.degree, gens, conjugates, caps)


def derived_subgroup(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    comms = [a.commutator(b) for i, a in enumerate(G.generators) for b in G.generators[i + 1 :]]
    return normal_closure(G, comms, caps=caps)


def derived_series(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    series = [G]
    while True:
        nxt = derived_subgroup(series[-1], caps=caps)
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def lower_central_series(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    series = [G]
    while True:
        cur = series[-1]
        comms = [a.commutator(b) for a in cur.generators for b in G.generators]
        nxt = normal_closure(G, comms, caps=caps)
        if nxt.order == cur.order:
            break
        series.append(nxt)
        if nxt.is_trivial():
            break
    return series


def is_nilpotent(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    return lower_central_series(G, caps=caps)[-1].is_trivial()


_BRUTE_SEARCH_LIMIT = 5000


def centralizer(G: PermGroup, x, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """C_G(x) for an element, or C_G(H) for a subgroup."""
    targets = [x] if isinstance(x, Permutation) else list(x.generators)
    for t in targets:
        if t.degree != G.degree:
            raise DegreeMismatch("centralizer argument degree mismatch")
    if not targets:
        return G
    if G.order <= _BRUTE_SEARCH_LIMIT:
        t_imgs = [t.images for t in targets]
        return _subgroup_where(G, lambda e: all(_compose(e, t) == _compose(t, e) for t in t_imgs), caps)
    sG = G.to_sympy()
    from sympy.combinatorics import Permutation as SPerm
    from sympy.combinatorics import PermutationGroup as SGroup

    sH = SGroup([SPerm(list(t.images)) for t in targets])
    return G._from_sympy(_backend(sG, "centralizer", sH), caps)


def center(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    return centralizer(G, G, caps=caps)


def normalizer(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """N_G(H); requires H <= G."""
    if not H.is_subgroup_of(G):
        raise NotASubgroup("normalizer requires H <= G")
    if H.is_trivial():
        return G
    hgens = [g.images for g in H.generators]
    if G.order <= _BRUTE_SEARCH_LIMIT:
        members = H.element_set()

        def normalizes(e):
            e_inv = _inverse(e)
            return all(_conj(x, e, e_inv) in members for x in hgens)

        return _subgroup_where(G, normalizes, caps)
    sG = G.to_sympy()
    chain = H.chain

    def prop(sg):
        arr = sg.array_form
        arr = tuple(arr + list(range(len(arr), G.degree)))
        arr_inv = _inverse(arr)
        return all(chain.contains(_conj(x, arr, arr_inv)) for x in hgens)

    return G._from_sympy(_backend(sG, "subgroup_search", prop), caps)


def sylow(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """A Sylow p-subgroup of G (trivial if p does not divide |G|).

    At or below ``_BRUTE_SEARCH_LIMIT`` elements it is grown in-house from the
    p-elements of G (see :func:`_grow_sylow`); above, sympy computes it.
    Either way the answer depends only on G's generators.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    target = p_part(G.order, p)
    if target == 1:
        return PermGroup.trivial(G.degree, caps=caps)
    if G.order <= _BRUTE_SEARCH_LIMIT:
        S = _grow_sylow(G, p, target, caps)
    else:
        S = G._from_sympy(_backend(G.to_sympy(), "sylow_subgroup", p), caps)
    if S.order != target:
        raise AssertionError(f"Sylow subgroup found has order {S.order}, expected {target}")
    return S


def _is_p_element(g, p) -> bool:
    """Whether every cycle of the image tuple g has p-power length."""
    seen = bytearray(len(g))
    for start in range(len(g)):
        n, j = 0, start
        while not seen[j]:
            seen[j] = 1
            j = g[j]
            n += 1
        while n and n % p == 0:
            n //= p
        if n > 1:
            return False
    return True


def _grow_sylow(G: PermGroup, p: int, target: int, caps: Caps) -> PermGroup:
    """Grow a p-subgroup P of G on one chain until it has order ``target``.

    Passes over the p-elements of G in element order keep each x outside P
    that normalizes P; then <P, x> = P<x> is again a p-group. While P is not
    Sylow, P < N_S(P) for a Sylow S containing P, so N_G(P) has a p-element
    outside P and every pass grows P: log_p(target) passes suffice.
    """
    caps.check("order_enum", G.order)
    p_elems = [x for x in G.element_tuples() if _is_p_element(x, p)]
    chain = StabilizerChain(G.degree, [])
    gens = []
    for _ in range(p_valuation(target, p)):
        for x in p_elems:
            if chain.order == target:
                break
            if chain.contains(x):
                continue
            x_inv = _inverse(x)
            if all(chain.contains(_conj(s, x, x_inv)) for s in gens):
                chain.extend(x)
                gens.append(x)
    S = PermGroup(G.degree, gens, caps=caps)
    S._chain = chain
    return S


def _backend(sgroup, method: str, *args):
    """``sgroup.method(*args)`` with sympy's random generator seeded to a fixed
    value, so that its randomized algorithms give the same answer every run.
    The generator's previous state is restored afterwards."""
    from sympy.core.random import rng

    state = rng.getstate()
    rng.seed(0)
    try:
        return getattr(sgroup, method)(*args)
    finally:
        rng.setstate(state)


def _generated(degree, gens, candidates, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The group generated by the Permutations ``gens`` and ``candidates``.

    Its generators are ``gens`` followed by each candidate that is not in the
    group generated before it. One chain is extended throughout, and the kept
    candidates are appended to the list ``gens`` as they are found, so
    ``candidates`` may be a lazy iterable that reads ``gens``.
    """
    caps.check("degree", degree)
    chain = StabilizerChain(degree, [g.images for g in gens])
    for c in candidates:
        if chain.extend(c.images):
            gens.append(c)
    H = PermGroup(degree, gens, caps=caps)
    H._chain = chain
    return H


def _subgroup_where(G: PermGroup, test, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The subgroup of the elements e of G, as image tuples, with ``test(e)`` true.

    The elements that pass must form a subgroup. They are kept in
    ``G.element_tuples()`` order as the new group's element list, and each
    one that extends the single growing chain becomes a generator, so the
    generators depend only on G's element order and the test.
    """
    caps.check("order_enum", G.order)
    chain = StabilizerChain(G.degree, [])
    kept = [e for e in G.element_tuples() if test(e)]
    H = PermGroup(G.degree, [e for e in kept if chain.extend(e)], caps=caps)
    H._chain, H._elements = chain, kept
    return H


def intersection(A: PermGroup, B: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    if A.degree != B.degree:
        raise DegreeMismatch("intersection degree mismatch")
    small, big = (A, B) if A.order <= B.order else (B, A)
    return _subgroup_where(small, big.chain.contains, caps)


def conjugating_element(G: PermGroup, A: PermGroup, B: PermGroup, caps: Caps = DEFAULT_CAPS):
    """Some g in G with A^g = B, or None (search is exhaustive)."""
    if A.order != B.order:
        return None
    return _conjugating_elements(G, A, [B], caps)[0]


def _conjugating_elements(G: PermGroup, A: PermGroup, targets, caps: Caps = DEFAULT_CAPS):
    """For each subgroup B of ``targets`` (all of A's order), some g in G with
    A^g = B, or None if there is none.

    One breadth-first walk over the G-orbit of A's element set under
    conjugation by G's generators, tracking witnesses, that stops once every
    target is reached. A target's witness is the product along the path that
    first reached it, so it does not depend on the other targets.
    """
    caps.check("order_enum", A.order)
    start = A.element_set()
    sets = [B.element_set() for B in targets]
    witnesses = {start: G.identity()}
    missing = set(sets) - {start}
    node_cap = max(1, caps.order_enum // max(1, A.order))
    gens = [(g, g.images, g.inv().images) for g in G.generators]
    frontier = [start]
    while frontier and missing:
        nxt = []
        for node in frontier:
            w = witnesses[node]
            for g, g_img, g_inv in gens:
                image = frozenset(_conj(x, g_img, g_inv) for x in node)
                if image in witnesses:
                    continue
                witnesses[image] = w * g
                missing.discard(image)
                if not missing:
                    return [witnesses.get(s) for s in sets]
                if len(witnesses) > node_cap:
                    raise CapExceeded("order_enum", caps.order_enum, len(witnesses) * A.order)
                nxt.append(image)
        frontier = nxt
    return [witnesses.get(s) for s in sets]


# ---------------------------------------------------------------------------
# quotients and product constructions


def quotient_action(G: PermGroup, N: PermGroup, caps: Caps = DEFAULT_CAPS):
    """G acting on the right cosets of a normal subgroup N.

    Returns (Q, hom) where hom: G -> Q is surjective with kernel N.
    """
    from .hom import GroupHom

    if not N.is_normal_in(G):
        raise NotNormal("quotient_action requires N normal in G")
    index = G.order // N.order
    caps.check("degree", index)
    caps.check("order_enum", N.order)
    n_elems = N.element_tuples()

    def coset_rep(g):
        return min(_compose(n, g) for n in n_elems)

    ident = tuple(range(G.degree))
    first = coset_rep(ident)
    reps = {first: 0}
    order = [first]
    frontier = [first]
    edges = {}
    while frontier:
        nxt = []
        for rep in frontier:
            for gi, g in enumerate(G.generators):
                image = coset_rep(_compose(rep, g.images))
                if image not in reps:
                    reps[image] = len(order)
                    order.append(image)
                    nxt.append(image)
                edges[(reps[rep], gi)] = reps[image]
        frontier = nxt
    if len(order) != index:
        raise AssertionError("coset enumeration disagrees with index")
    gen_images = []
    for gi in range(len(G.generators)):
        gen_images.append(Permutation(tuple(edges[(ci, gi)] for ci in range(index))))
    Q = PermGroup(index, gen_images, caps=caps)
    hom = GroupHom(G, Q, gen_images, caps=caps)
    return Q, hom


def direct_product(A: PermGroup, B: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    dA, dB = A.degree, B.degree
    caps.check("degree", dA + dB)
    gens = [g.extended(dA + dB) for g in A.generators]
    for g in B.generators:
        gens.append(Permutation(tuple(range(dA)) + tuple(dA + p for p in g.images)))
    return PermGroup(dA + dB, gens, caps=caps)


def wreath_imprimitive(A: PermGroup, m: int, top: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """A wr top in the imprimitive action on m blocks of size deg(A).

    Point (i, x) with block i < m sits at index i*deg(A) + x. The base group
    A^m has a copy of A's generators in every block; top permutes blocks.
    """
    if top.degree != m:
        raise DegreeMismatch(f"top group degree {top.degree} != block count {m}")
    dA = A.degree
    degree = m * dA
    caps.check("degree", degree)
    gens = []
    for block in range(m):
        for g in A.generators:
            images = list(range(degree))
            for x in range(dA):
                images[block * dA + x] = block * dA + g(x)
            gens.append(Permutation(images))
    for t in top.generators:
        images = [t(i) * dA + x for i in range(m) for x in range(dA)]
        gens.append(Permutation(images))
    return PermGroup(degree, gens, caps=caps)


def _mat_inverse_mod(mat, p):
    """Inverse of a matrix over F_p, or None if singular."""
    n = len(mat)
    aug = [[v % p for v in row] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(v * inv) % p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def affine_semidirect(p: int, d: int, mats, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """F_p^d . <mats> acting on the p^d vectors (translations + linear maps).

    Vector v corresponds to point sum(v[i] * p^i). Raises on singular
    matrices or p^d beyond the degree cap.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    degree = p**d
    caps.check("degree", degree)
    for mat in mats:
        if len(mat) != d or any(len(row) != d for row in mat):
            raise ValueError(f"matrix is not {d}x{d}: {mat}")
        if _mat_inverse_mod(mat, p) is None:
            raise ValueError(f"singular matrix over F_{p}: {mat}")

    def to_vec(point):
        v = []
        for _ in range(d):
            v.append(point % p)
            point //= p
        return v

    def to_point(v):
        return sum((v[i] % p) * p**i for i in range(d))

    gens = []
    for i in range(d):
        images = []
        for pt in range(degree):
            v = to_vec(pt)
            v[i] = (v[i] + 1) % p
            images.append(to_point(v))
        gens.append(Permutation(images))
    for mat in mats:
        images = []
        for pt in range(degree):
            v = to_vec(pt)
            images.append(to_point([sum(mat[r][c] * v[c] for c in range(d)) % p for r in range(d)]))
        gens.append(Permutation(images))
    return PermGroup(degree, gens, caps=caps)
