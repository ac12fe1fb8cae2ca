"""Permutation groups with deterministic stabilizer chains.

The chain (Schreier-Sims) certifies order and membership; base points are
always the first moved point not yet fixed, so construction is deterministic
for identical input. A normalizer N_G(H) is read off the breadth-first walk
over H's conjugates by orbit-stabilizer at every size
(:func:`_conjugation_walk`, :func:`_orbit_normalizer`), and G's elements
are never listed for it. Centralizers and intersections filter G's element
list (:func:`_subgroup_where`). All three keep their elements in the order
of the searched group's element list and take greedy generators from them
(:func:`_subgroup_of`), so the generators depend only on that order. Sylow
subgroups are grown from the p-elements (:func:`_grow_sylow`). Above
``_BRUTE_SEARCH_LIMIT`` elements, centralizers and Sylow subgroups are
delegated to sympy.combinatorics through :func:`_backend`, with sympy's
random generator seeded to a fixed value so that its answers repeat from
run to run. sympy is imported only then.

Conjugation walks (the orbit of a subgroup under G, which fusion, the
automizers and the normalizers read) step on element indices, not image
tuples. Each group caches one :class:`_ConjugationMemo`, which numbers the
elements the walks meet and records, per generator, the index of each
element's conjugate the first time a walk needs it; a walk node is a
frozenset of indices, so each step is one list lookup per element. The memo
never enumerates G, so it serves groups above the limit too. Witnesses are
parent pointers, multiplied out into a permutation only when read, in the
order the walk stepped (Seress, *Permutation Group Algorithms*, 2003,
sec. 4.1; Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, sec. 4.1).

Subgroups always live in the ambient degree of their parent; nothing is
re-indexed.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product, repeat, takewhile
from operator import itemgetter

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

    New base points are the first point the residue moves. ``forced_prefix``
    fixes the first base points outright. This is how homomorphism kernels
    are extracted (fix all codomain points first).
    """

    def __init__(self, degree, gen_tuples, forced_prefix=None):
        self.degree = degree
        self.base = []
        self.transversals = []  # per level: {point p: coset rep u with base^u == p}
        self.inverses = []      # per level: {point p: u^-1}
        self._gens = []         # per level: (s, s^-1) for the strong generators s fixing base[:i], oldest first
        self._orbits = []       # per level: orbit points in the order they joined
        self._paired = []       # per level and orbit point: how many of _gens[i] it was paired with
        self._ident = tuple(range(degree))
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
            self._add_level(next(i for i in range(self.degree) if h[i] != i))
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

    def cut(self, k):
        """This chain restricted to the points below k, as a chain on k points.

        The caller guarantees that the group maps the points below k among
        themselves and that every base point is below k. An element fixing
        those points then fixes the base, so it is the identity: restriction
        is injective, and every step of the construction (residue tests,
        ``u == t[q]``, first moved points) reads the same on restrictions. The
        result is field for field the chain the restricted generators build.
        """
        out = StabilizerChain.__new__(StabilizerChain)
        out.degree = k
        out.base = list(self.base)
        out.transversals = [{p: u[:k] for p, u in t.items()} for t in self.transversals]
        out.inverses = [{p: u[:k] for p, u in inv.items()} for inv in self.inverses]
        # a strong generator's pair is shared by every level it lies in; so is its cut
        pairs = {id(pair): (pair[0][:k], pair[1][:k]) for gens in self._gens for pair in gens}
        out._gens = [[pairs[id(pair)] for pair in gens] for gens in self._gens]
        out._orbits = [list(orbit) for orbit in self._orbits]
        out._paired = [list(paired) for paired in self._paired]
        out._ident = self._ident[:k]
        return out


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
        self._seeds = None
        self._table = None
        self._memo = None

    # -- constructions -----------------------------------------------------

    @staticmethod
    def trivial(degree, caps: Caps = DEFAULT_CAPS):
        return PermGroup(degree, [], caps=caps)

    @staticmethod
    def cyclic(n, degree=None, caps: Caps = DEFAULT_CAPS):
        degree = n if degree is None else degree
        caps.check("degree", degree)
        return PermGroup(degree, [Permutation.from_cycles([list(range(n))], degree)], caps=caps)

    @staticmethod
    def symmetric(n, caps: Caps = DEFAULT_CAPS):
        caps.check("degree", n)
        if n <= 1:
            return PermGroup.trivial(max(n, 1), caps=caps)
        gens = [Permutation.from_cycles([[0, 1]], n)]
        if n > 2:
            gens.append(Permutation.from_cycles([list(range(n))], n))
        return PermGroup(n, gens, caps=caps)

    @staticmethod
    def alternating(n, caps: Caps = DEFAULT_CAPS):
        caps.check("degree", n)
        if n <= 2:
            return PermGroup.trivial(max(n, 1), caps=caps)
        gens = [Permutation.from_cycles([[i, i + 1, i + 2]], n) for i in range(n - 2)]
        return PermGroup(n, gens, caps=caps)

    @staticmethod
    def dihedral(n, caps: Caps = DEFAULT_CAPS):
        """Dihedral group of order 2n on n points (n >= 3)."""
        if n < 3:
            raise ValueError("dihedral(n) needs n >= 3")
        caps.check("degree", n)
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

    def element_set(self, cap=None):
        return frozenset(self.element_tuples(cap))

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


class _ElementTable:
    """A small group's elements, sorted, and their indices. A subgroup is an int
    mask over them (bit i: it holds ``elements[i]``); index order is tuple order,
    so bit 0 is the identity. Nothing here refers back to the group."""

    def __init__(self, G: PermGroup):
        self.elements = sorted(G.element_tuples())
        self.index = {t: i for i, t in enumerate(self.elements)}

    def mask(self, tuples) -> int:
        return sum(1 << self.index[t] for t in tuples)


def _element_table(G: PermGroup) -> _ElementTable:
    """G's element table, built once; callers check their own cap first."""
    if G._table is None:
        G._table = _ElementTable(G)
    return G._table


class _ConjugationMemo:
    """G's conjugation action on element indices, filled as walks reach it.

    An image tuple gets an index the first time a walk sees it: ``elements[i]``
    is the tuple, ``index`` maps it back. ``columns[k][i]`` is the index of
    elements[i]^g for G's k-th generator g, or None until a walk first needs
    it, so each (element, generator) pair is conjugated at most once, and the
    memo never enumerates G. It keeps only generator and element tuples: it
    refers neither to G nor, through its lists, to itself.
    """

    def __init__(self, G: PermGroup):
        self.gens = [(g.images, _inverse(g.images)) for g in G.generators]
        self.elements = []
        self.index = {}
        self.columns = [[] for _ in self.gens]

    def id(self, x) -> int:
        i = self.index.get(x)
        if i is None:
            i = self.index[x] = len(self.elements)
            self.elements.append(x)
            for col in self.columns:
                col.append(None)
        return i

    def node(self, tuples) -> frozenset:
        return frozenset(map(self.id, tuples))

    def image(self, k, node) -> frozenset:
        """The node conjugated by generator k, filling the column entries it lacks."""
        col = self.columns[k]
        g, g_inv = self.gens[k]
        for i in node:
            if col[i] is None:
                col[i] = self.id(_conj(self.elements[i], g, g_inv))
        return frozenset(map(col.__getitem__, node))


def _conjugation_memo(G: PermGroup) -> _ConjugationMemo:
    """G's conjugation memo, shared by every walk over G."""
    if G._memo is None:
        G._memo = _ConjugationMemo(G)
    return G._memo


# ---------------------------------------------------------------------------
# spec operations


def conjugacy_classes(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    """All conjugacy classes as (representative, size), identity class first.

    Representatives are the lexicographically least image tuples of their
    class, and classes are sorted by (size, representative). If G = A x B over
    its orbits, the classes are the products of A's and B's classes, with
    representative rep_a rep_b, and neither G's elements nor the members of
    its classes are listed (see :func:`_class_table`); otherwise they are
    found on G's element list.
    """
    table = _class_table(G, caps)
    return list(zip(map(Permutation, table.reps), table.sizes))


def _base_images(points):
    """A function giving the images of ``points`` under an image tuple, as a tuple."""
    if len(points) > 1:
        return itemgetter(*points)
    return lambda x: tuple(x[p] for p in points)


def _class_table(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    """The conjugacy classes of G as a table: ``reps`` and ``sizes``, sorted by
    (size, representative), the representative being the least image tuple of
    its class, so the identity class comes first; ``class_of(x)``, the index
    of x's class; and ``reach(c, r)``, the classes of k r for k in class c.

    If G = A x B, with A the restriction of G to one orbit of its support and
    B to the others (:func:`_split`), the classes of G are the products
    C_A C_B of A's and B's classes: (a b)^(x y) = a^x b^y, as the factors
    commute. A and B move disjoint points, so each position of the image
    tuple of a b is decided by a or by b alone, and the least tuple of C_A C_B
    is rep_a rep_b. The table (:class:`_Product`) keeps A's and B's tables and
    each class as its pair of factor classes, and forms no member; the class
    of x is the pair of its factors' classes. For k = a b and r = r_A r_B,
    k r = (a r_A)(b r_B), with a and b running through their classes
    independently, so ``reach`` gives the pairs of a class A reaches and one B
    reaches. A's reach from class i depends on r only through r_A, that is,
    through r's images on A's support, so it is memoized under i and those
    images and serves every r with the same restriction; likewise B's. A
    group that does not split walks its elements (:class:`_Leaf`).
    """
    caps.check("order_enum", G.order)
    split = _split(G, caps)
    return _Leaf(G) if split is None else _Product(*(_class_table(H, caps) for H in split))


class _Classes:
    """A class table, as :func:`_class_table` describes; its length is its number of classes."""

    def __len__(self):
        return len(self.reps)


class _Leaf(_Classes):
    """The orbits of G's generators on its elements, acting by conjugation. An
    element is fixed by its base images (Seress, ch. 4), its key: ``members[c]``
    lists the keys of class c. The walk finds a conjugate's key y[p] =
    g[x[g^-1[p]]] at the base points p; ``reach`` streams k r's key r[k[base]]."""

    def __init__(self, G: PermGroup):
        base, elems = G.chain.base, G.element_tuples()
        self.order, self._key = len(elems), _base_images(base)
        self.support = tuple(p for p in range(G.degree) if any(g.images[p] != p for g in G.generators))
        keys = list(map(self._key, elems))
        index = {k: i for i, k in enumerate(keys)}
        inverses = [_inverse(g.images) for g in G.generators]
        movers = [(_base_images([g_inv[p] for p in base]), g.images) for g, g_inv in zip(G.generators, inverses)]
        seen = bytearray(len(elems))
        found = []
        for start in range(len(elems)):
            if seen[start]:
                continue
            seen[start] = 1
            members = [start]
            for i in members:  # grows while it is read: a breadth-first orbit walk
                x = elems[i]
                for at, g in movers:
                    j = index[_compose(at(x), g)]
                    if not seen[j]:
                        seen[j] = 1
                        members.append(j)
            found.append((len(members), min(elems[i] for i in members), [keys[i] for i in members]))
        self.sizes, self.reps, self.members = map(list, zip(*sorted(found, key=itemgetter(0, 1))))
        self._index = {k: c for c, keys in enumerate(self.members) for k in keys}

    def class_of(self, x):
        return self._index[self._key(x)]

    def reach(self, c, r):
        return map(self._index.__getitem__, map(_compose, self.members[c], repeat(r)))


class _Product(_Classes):
    """The classes of A x B: class c is A's class ``pairs[c][0]`` times B's ``pairs[c][1]``."""

    def __init__(self, A, B):
        self.factors, self.order = (A, B), A.order * B.order
        self.support = tuple(sorted(A.support + B.support))
        found = sorted(
            (a_size * b_size, _compose(a_rep, b_rep), (i, j))
            for i, (a_rep, a_size) in enumerate(zip(A.reps, A.sizes))
            for j, (b_rep, b_size) in enumerate(zip(B.reps, B.sizes))
        )
        self.sizes, self.reps, self.pairs = map(list, zip(*found))
        self._index = {pair: c for c, pair in enumerate(self.pairs)}
        self._reached = [(_base_images(F.support), {}) for F in self.factors]  # per factor: {(i, r's images): classes}

    def class_of(self, x):
        return self._index[tuple(F.class_of(x) for F in self.factors)]

    def reach(self, c, r):
        reached = []
        for F, i, (on_support, memo) in zip(self.factors, self.pairs[c], self._reached):
            key = (i, on_support(r))
            reached.append(memo.get(key) or memo.setdefault(key, set(F.reach(i, r))))  # a reach is never empty
        return [self._index[pair] for pair in product(*reached)]


def _split(G: PermGroup, caps: Caps):
    """(A, B) with G = A x B, for A the restriction of G to one orbit of its
    support and B its restriction to the other orbits, or None. G lies in A x B,
    so it is A x B exactly when each g|orbit lies in G (then so does g (g|orbit)^-1,
    g on the other orbits): one sift per generator, and A and B are built only then."""
    gens = [g.images for g in G.generators]
    orbits, seen = [], set()
    for p in range(G.degree):
        if p not in seen and any(g[p] != p for g in gens):
            orbit = [p]
            seen.add(p)
            for q in orbit:  # grows while it is read
                for g in gens:
                    if g[q] not in seen:
                        seen.add(g[q])
                        orbit.append(g[q])
            orbits.append(set(orbit))
    if len(orbits) < 2:
        return None
    for orbit in orbits[:1] if len(orbits) == 2 else orbits:  # both of two orbits give one pair
        restricted = (tuple(g[p] if p in orbit else p for p in range(G.degree)) for g in gens)
        if all(map(G.chain.contains, restricted)):
            return _restriction(G, orbit, caps), _restriction(G, seen - orbit, caps)
    return None


def _restriction(G: PermGroup, points, caps: Caps) -> PermGroup:
    """G acting on the G-invariant set ``points``, fixing every other point."""
    gens = [[g.images[p] if p in points else p for p in range(G.degree)] for g in G.generators]
    return PermGroup(G.degree, gens, caps=caps)


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
    """N_G(H); requires H <= G. It is read off the G-orbit of H by
    :func:`_orbit_normalizer`, at every order of G."""
    if not H.is_subgroup_of(G):
        raise NotASubgroup("normalizer requires H <= G")
    if H.is_trivial():
        return G
    return _orbit_normalizer(G, H, caps)[1]


def _orbit_normalizer(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS):
    """The full conjugation walk of a nontrivial H <= G, and N_G(H) read off it.

    N_G(H) is the stabilizer of H's element set in G's action on the orbit,
    so |N| = |G| / |orbit|, and for the walk's witnesses w the Schreier
    elements w_K g w_{K^g}^-1 of the edges K -> K^g generate it (Schreier's
    lemma; Seress, *Permutation Group Algorithms*, 2003, sec. 4.1). The tree
    edges give the identity, so one chain, seeded with H's generators, takes
    the walk's non-tree edges, as (node id, generator index, node id), in
    walk order until it has order |N|; only the witnesses of the edges it
    takes are formed. N's elements, checked against ``caps.order_enum``, are
    then sorted into their order in ``G.element_tuples()``, read off G's chain
    (:func:`_element_position`), and given greedy generators by
    :func:`_subgroup_of`, so N is the group the element filter would give,
    and G's elements are never listed. Returns ``(walk, N)``, the walk as
    :func:`_conjugation_walk` gives it.
    """
    edges = []
    walked = _conjugation_walk(G, H, caps=caps, edges=edges)
    order = G.order // len(walked)
    chain = StabilizerChain(G.degree, [h.images for h in H.generators])
    gens = [g.images for g in G.generators]
    for n, k, m in edges:
        if chain.order == order:
            break
        chain.extend(_compose(_compose(walked.witness(n), gens[k]), _inverse(walked.witness(m))))
    if chain.order != order:
        raise AssertionError("Schreier elements do not generate the stabilizer")
    caps.check("order_enum", order)
    return walked, _subgroup_of(G.degree, sorted(chain.element_tuples(), key=_element_position(G.chain)), caps)


def _element_position(chain: StabilizerChain):
    """The index of an element of the chain's group in ``chain.element_tuples()``.

    That list multiplies the transversals with level 0 outermost, so an
    element x = u_k ... u_1 u_0 (u_i in level i's transversal, u_0 applied
    last) sits at the mixed-radix number whose digit i is u_i's place in
    level i's orbit order. Sifting reads the digits off: u_0 is the
    representative of x's image of ``base[0]``, and x u_0^-1 lies deeper.
    """
    levels = [
        (b, {p: i for i, p in enumerate(t)}, inv) for b, t, inv in zip(chain.base, chain.transversals, chain.inverses)
    ]

    def position(x):
        n = 0
        for b, place, inv in levels:
            p = x[b]
            n = n * len(place) + place[p]
            x = _compose(x, inv[p])
        return n

    return position


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
    """The subgroup of the elements e of G, as image tuples, with ``test(e)``
    true, kept in ``G.element_tuples()`` order (:func:`_subgroup_of`). The
    elements that pass must form a subgroup."""
    caps.check("order_enum", G.order)
    return _subgroup_of(G.degree, [e for e in G.element_tuples() if test(e)], caps)


def _subgroup_of(degree, elements, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The group whose element list is the list ``elements`` of image tuples,
    which must form a subgroup. Each one that extends the one growing chain
    before it holds them all becomes a generator, so the generators depend
    only on the order of ``elements``."""
    chain = StabilizerChain(degree, [])
    gens = [e for e in takewhile(lambda _: chain.order < len(elements), elements) if chain.extend(e)]
    H = PermGroup(degree, gens, caps=caps)
    H._chain, H._elements = chain, elements
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
    target = B.element_set()
    return _conjugation_walk(G, A, [target], caps).get(target)


def _conjugation_walk(G: PermGroup, A: PermGroup, targets=None, caps: Caps = DEFAULT_CAPS, edges=None) -> _Walk:
    """The G-orbit of A under conjugation, as a :class:`_Walk` mapping
    ``{element set of A^g: g}``.

    One breadth-first walk on G's :class:`_ConjugationMemo`: a node is the
    frozenset of its elements' indices, and its image by generator k is read
    off column k. Nodes are numbered in the order they are found, and each
    keeps a parent pointer (node id, generator index) to the step that first
    reached it, so its witness is the product along that path, which does not
    depend on ``targets``. The walk stops once every element set in
    ``targets`` is a key; with no targets it covers the whole orbit. If
    ``edges`` is a list, each step that reaches a node already found is
    appended to it as (node id, generator index, node id reached), in walk
    order. Stepping past ``caps.order_enum // |A|`` nodes raises.
    """
    caps.check("order_enum", A.order)
    memo = _conjugation_memo(G)
    start = memo.node(A.element_tuples())
    walk = _Walk(memo, start, G.degree)
    nodes, ids, parents = walk.nodes, walk.ids, walk.parents
    missing = None if targets is None else {memo.node(t) for t in targets} - {start}
    node_cap = max(1, caps.order_enum // max(1, A.order))
    if missing is not None and not missing:
        return walk
    columns = list(enumerate(memo.columns))
    for n, node in enumerate(nodes):  # grows while it is read: breadth first
        for k, col in columns:
            image = frozenset(map(col.__getitem__, node))
            if None in image:
                image = memo.image(k, node)
            if image in ids:
                if edges is not None:
                    edges.append((n, k, ids[image]))
                continue
            m = ids[image] = len(nodes)
            nodes.append(image)
            parents[m] = (n, k)
            if missing is not None and image in missing:
                missing.remove(image)
                if not missing:
                    return walk
            if m >= node_cap:
                raise CapExceeded("order_enum", caps.order_enum, (m + 1) * A.order)
    return walk


class _Walk(Mapping):
    """A conjugation walk read as ``{element set of A^g: Permutation g}``, in
    the order the nodes were found.

    ``nodes[n]`` is node n as element indices of the memo, ``ids`` inverts
    it, and ``parents[n]`` is (node id, generator index) of the step that
    first reached node n, for every node but the start. A witness is formed, as an
    image tuple, only when it is read: :meth:`witness` composes the
    generators down the parent pointers from the nearest node whose witness
    is already known, left to right as the walk stepped.
    """

    def __init__(self, memo: _ConjugationMemo, start, degree):
        self._memo = memo
        self.nodes = [start]
        self.ids = {start: 0}
        self.parents = {}
        self._witnesses = {0: tuple(range(degree))}

    def witness(self, n) -> tuple:
        """The image tuple of a g with A^g = node n."""
        known, path = self._witnesses, []
        while n not in known:
            path.append(n)
            n = self.parents[n][0]
        w = known[n]
        for m in reversed(path):
            w = known[m] = _compose(w, self._memo.gens[self.parents[m][1]][0])
        return w

    def __getitem__(self, key) -> Permutation:
        index = self._memo.index
        if all(map(index.__contains__, key)):
            n = self.ids.get(frozenset(map(index.__getitem__, key)))
            if n is not None:
                return Permutation(self.witness(n))
        raise KeyError(key)

    def __iter__(self):
        elements = self._memo.elements
        return (frozenset(map(elements.__getitem__, node)) for node in self.nodes)

    def __len__(self):
        return len(self.nodes)


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


def affine_semidirect(p: int, d: int, mats, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """F_p^d . <mats> acting on the p^d vectors (translations + linear maps).

    Vector v corresponds to point sum(v[i] * p^i). Raises on singular
    matrices or p^d beyond the degree cap.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 0:
        raise ValueError(f"dimension {d} is negative")
    degree = caps.check_power("degree", p, d)
    weights = [p**i for i in range(d)]
    vecs = [v[::-1] for v in product(range(p), repeat=d)]  # vecs[pt]: pt's coordinates, v[0] first

    gens = []
    for i, w in enumerate(weights):
        # adding e_i carries nothing: coordinate i wraps from p - 1 to 0
        gens.append(Permutation([pt + w if v[i] < p - 1 else pt - (p - 1) * w for pt, v in enumerate(vecs)]))
    for mat in mats:
        if len(mat) != d or any(len(row) != d for row in mat):
            raise ValueError(f"matrix is not {d}x{d}: {mat}")
        images = [
            sum(sum(a * x for a, x in zip(row, v)) % p * w for row, w in zip(mat, weights)) for v in vecs
        ]
        # a linear map of F_p^d is invertible iff it permutes the p^d vectors
        if len(set(images)) != degree:
            raise ValueError(f"singular matrix over F_{p}: {mat}")
        gens.append(Permutation(images))
    return PermGroup(degree, gens, caps=caps)
