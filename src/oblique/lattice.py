"""Normal-subgroup lattices and the invariants built on them.

Everything here works at finite scale: O_pi and O^pi, Fitting / layer /
generalized Fitting subgroups, normal Frattini subgroups, oblique cores and
the generalized obliquity functions, Tate transfer checks, automorphism
groups of small groups and the c-invariant, and the component orbit bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arith import is_prime, p_part, p_prime_part, p_valuation, prime_factors
from .caps import DEFAULT_CAPS, Caps
from .group import (
    NotASubgroup,
    PermGroup,
    _class_table,
    _conjugation_walk,
    _element_table,
    _generated,
    _subgroup_of,
    derived_series,
    derived_subgroup,
    intersection,
    normal_closure,
    sylow,
)
from .perm import Permutation, _compose, _conj, _inverse


class NormalLattice:
    """The complete set of normal subgroups of an ambient group.

    A normal subgroup is a union of conjugacy classes, so each member is an
    int mask over ``conjugacy_classes(ambient)``: bit i is set when it holds
    the representative of class i (bit 0 is the identity class). Meets, joins
    and containment tests are integer operations on masks, and each member's
    order is kept; its group is built only when asked for. A mask alone is no
    proof of membership (in S4, <(1 2),(3 4)> has the order of V4 but is not
    normal), so a group is checked against the member its mask names by ``same_group``.
    """

    def __init__(self, ambient: PermGroup, orders, caps: Caps):
        self.ambient = ambient
        self._orders = dict(sorted(orders.items(), key=lambda item: item[1]))  # {mask: order}, by order
        self._groups = {}
        self._ob_star = {}  # {mask of I_n(G): ob*_G(n)}, filled by ob_star_function
        self._caps = caps
        self._table = _class_seeds(ambient)[0]
        self._full = (1 << len(self._table)) - 1

    def __len__(self):
        return len(self._orders)

    @property
    def members(self):
        return [self.group(mask) for mask in self._orders]

    def orders(self):
        return list(self._orders.values())

    def group(self, mask: int) -> PermGroup:
        """The member with class mask ``mask``, built on first use."""
        if mask not in self._groups:
            self._groups[mask] = _normal_group(self.ambient, mask, self._caps)
        return self._groups[mask]

    def _mask(self, H: PermGroup) -> int:
        if H.degree == self.ambient.degree:
            mask = sum(1 << i for i, rep in enumerate(self._table.reps) if H.chain.contains(rep))
            if mask in self._orders and self.group(mask).same_group(H):
                return mask
        raise NotASubgroup("subgroup is not a member of the normal lattice")

    def index_of(self, H: PermGroup):
        return list(self._orders).index(self._mask(H))

    def _meet(self, masks) -> int:
        out = self._full
        for mask in masks:
            out &= mask
        return out

    def join(self, A: PermGroup, B: PermGroup) -> PermGroup:
        """The meet of every member that contains both (the lattice is complete)."""
        union = self._mask(A) | self._mask(B)
        return self.group(self._meet(m for m in self._orders if union & ~m == 0))

    def meet(self, A: PermGroup, B: PermGroup) -> PermGroup:
        return self.group(self._mask(A) & self._mask(B))

    def meet_all(self, groups) -> PermGroup:
        """Meet of a family of members; the empty meet is the ambient group."""
        return self.group(self._meet(self._mask(H) for H in groups))

    def minimal_members(self):
        """Minimal nontrivial normal subgroups."""
        nontrivial = [m for m in self._orders if m != 1]
        return [self.group(a) for a in nontrivial if not any(a != b and b & ~a == 0 for b in nontrivial)]

    def _small_normals(self, n: int) -> int:
        """I_n(G): the meet of the members of index at most n."""
        top = self._orders[self._full]
        return self._meet(m for m, order in self._orders.items() if top // order <= n)

    def _oblique(self, h: int) -> int:
        """Ob_G(H) for the member H with mask h: H meet every member not inside H."""
        return self._meet([h] + [m for m in self._orders if m & ~h])


def _class_seeds(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    """(table, seeds, masks), cached: :func:`_class_table`'s table, each
    class's normal closure <c^G> as a class mask (:func:`_close`), and the
    distinct closures (the seeds) with their orders, in the order of their
    first class. Every normal subgroup is a join of seeds, a pi-core of some.
    Callers that need the lattice cap check it first.
    """
    if G._seeds is None:
        table = _class_table(G, caps)
        masks, seeds = [1], {}
        for c in range(1, len(table)):
            mask = _close(table, 1 | 1 << c, table.reps[c], masks)
            masks.append(mask)
            if mask not in seeds:
                seeds[mask] = _size(table, mask)
        G._seeds = (table, seeds, masks)
    return G._seeds


def _size(table, mask) -> int:
    return sum(table.sizes[i] for i in _bits(mask))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(table, mask, r, known, order=None):
    """The smallest normal subgroup N holding the classes in ``mask`` and r, as
    a class mask. ``mask`` holds the identity class and r's class, and lies in
    M<r^G> for a normal subgroup M whose classes it holds (M = 1 for a seed).

    The union N of the classes reached from ``mask`` by a -> the classes of
    K_a r, ``table.reach(a, r)``, in any order, is closed under conjugation
    and right multiplication by r, so by every conjugate of r, and N = M<r^G>
    (Hulpke, "Computing normal subgroups", ISSAC 1998). Shortcuts: a union
    larger than |G|/q, for q the least prime dividing |G|, closes to G; if a
    class a is found whose known closure ``known[a]`` = <a^G> holds ``mask``,
    then N = <a^G>; and a caller that knows ``order`` = |N| stops once the
    classes reached sum to it, as they all lie in N.
    """
    limit = table.order // min(prime_factors(table.order))
    sizes, start, todo = table.sizes, mask, list(_bits(mask))
    size = sum(sizes[a] for a in todo)
    while todo:
        for a in table.reach(todo.pop(), r):
            if mask >> a & 1:
                continue
            if a < len(known) and start & ~known[a] == 0:
                return known[a]
            mask |= 1 << a
            size += sizes[a]
            if size > limit:
                return (1 << len(table)) - 1
            if size == order:
                return mask
            todo.append(a)
    return mask


def _seed_join(G: PermGroup, keep, caps: Caps) -> int:
    """The join of the class seeds whose order passes ``keep``, as a class mask."""
    caps.check("lattice", G.order)
    table, seeds, masks = _class_seeds(G, caps=caps)
    out, order = 1, 1
    for c, seed in enumerate(masks):
        if not out >> c & 1 and keep(seeds[seed]):
            order = order * seeds[seed] // _size(table, out & seed)  # |AB| = |A||B| / |A n B|
            out = _close(table, out | 1 << c, table.reps[c], masks, order)
    return out


def _normal_group(G: PermGroup, mask: int, caps: Caps) -> PermGroup:
    """The normal subgroup of G with class mask ``mask``: G for the full mask,
    else the normal closure of one class from each seed the mask needs (the
    maximal seeds inside it), once its order is checked against the mask."""
    table, seeds, masks = _class_seeds(G, caps=caps)
    if mask == (1 << len(table)) - 1:
        return G
    inside = [s for s in seeds if s & ~mask == 0]
    maximal = [s for s in inside if not any(s != t and s & ~t == 0 for t in inside)]
    N = normal_closure(G, [Permutation(table.reps[masks.index(s)]) for s in maximal], caps=caps)
    if N.order != _size(table, mask):
        raise AssertionError(f"normal subgroup has order {N.order}, its class mask {_size(table, mask)}")
    return N


def normal_lattice(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> NormalLattice:
    if G._lattice is None:
        caps.check("lattice", G.order)
        table, seeds, masks = _class_seeds(G, caps=caps)
        # top is a copy of G: a cycle G -> G._lattice -> G would outlive G until a full gc
        top = PermGroup(G.degree, G.generators, caps=caps)
        top._chain, top._seeds = G.chain, G._seeds
        # every member is a join of seeds: after the pass over seed s = <r^G>
        # the members hold every join of s with the seeds before it. A member
        # of order |AS| = |A||S| / |A n S| that holds A and S is AS, so only a
        # new member is closed
        members = {}  # {order: masks}
        for m, order in {1: 1, (1 << len(table)) - 1: G.order, **seeds}.items():
            members.setdefault(order, []).append(m)
        for s, s_order in seeds.items():
            r = table.reps[masks.index(s)]
            for a, a_order in [(a, order) for order, found in members.items() for a in found]:
                order = a_order * s_order // _size(table, a & s)
                same = members.setdefault(order, [])
                if not any((a | s) & ~m == 0 for m in same):
                    same.append(_close(table, a | s, r, masks, order))
        orders = {m: order for order, found in members.items() for m in found}
        G._lattice = NormalLattice(top, orders, caps)
    return G._lattice


# ---------------------------------------------------------------------------
# cores, residuals, Fitting machinery


def pi_core(G: PermGroup, pi, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """O_pi(G): the largest normal pi-subgroup.

    An element lies in O_pi exactly when its normal closure is a pi-group,
    so O_pi is the join of the pi-group class seeds.
    """
    pi = set(pi)
    return _normal_group(G, _seed_join(G, lambda order: set(prime_factors(order)) <= pi, caps), caps)


def pi_residual(G: PermGroup, pi, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """O^pi(G): the smallest normal subgroup with a pi-group quotient, which
    is the normal closure of the Sylow q-subgroups for the primes q not in pi."""
    gens = []
    for q in prime_factors(G.order):
        if q not in pi:
            gens.extend(sylow(G, q, caps=caps).generators)
    return normal_closure(G, gens, caps=caps)


def is_soluble(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    return derived_series(G, caps=caps)[-1].is_trivial()


def is_simple(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    """A nontrivial G is simple when every class seed is G."""
    return G.order > 1 and all(order == G.order for order in _class_seeds(G, caps=caps)[1].values())


def is_quasisimple(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    """Perfect with simple central quotient. For a nontrivial perfect G, G/Z(G)
    is simple iff <c^G> = G for every class c outside Z(G), the union of the
    one-element classes: then Z(G)<c^G> = G, and G/<c^G>, a quotient of the
    abelian Z(G), is trivial as G is perfect."""
    if G.order == 1 or derived_subgroup(G, caps=caps).order < G.order:
        return False
    table, seeds, masks = _class_seeds(G, caps=caps)
    return all(seeds[masks[c]] == G.order for c, size in enumerate(table.sizes) if size > 1)


def components(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    """The subnormal quasisimple subgroups of G, read off the minimal
    non-soluble normal subgroups only (Aschbacher, *Finite Group Theory*, sec. 31).
    For a component K, K^G is one of them: a normal N inside K^G holds K or
    centralizes its conjugates and lies in the soluble Z(K^G). So distinct
    minimal members hold disjoint sets of components. If G is its own only one,
    K^G = G is the central product of the conjugates of K, each then normal, so
    K = G is quasisimple. A member N is soluble iff the largest member B properly
    inside it is and |N:B| is a prime power, as N/B is a chief factor.
    """
    if is_soluble(G, caps=caps):
        return []
    if is_quasisimple(G, caps=caps):
        return [G]
    lat = normal_lattice(G, caps=caps)
    soluble = {}  # in order of size, so B is decided before N
    for m, order in lat._orders.items():
        b = max((x for x in soluble if x & ~m == 0), key=lat._orders.get, default=None)
        soluble[m] = b is None or soluble[b] and len(prime_factors(order // lat._orders[b])) == 1
    bad = [m for m, ok in soluble.items() if not ok]
    minimal = [a for a in bad if not any(a != b and b & ~a == 0 for b in bad)]
    return [] if minimal == [lat._full] else [K for m in minimal for K in components(lat.group(m), caps=caps)]


def _fitting_mask(G: PermGroup, caps: Caps) -> int:
    return _seed_join(G, lambda order: len(prime_factors(order)) == 1, caps)


def fitting(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """F(G): the largest nilpotent normal subgroup, the join of the class seeds of prime-power order."""
    return _normal_group(G, _fitting_mask(G, caps), caps)


def layer(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """E(G): join of the components."""
    return PermGroup(G.degree, [g for Q in components(G, caps=caps) for g in Q.generators], caps=caps)


def generalized_fitting(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """F*(G) = F(G) E(G)."""
    return _fitting_product(fitting(G, caps=caps), layer(G, caps=caps), caps)


def _fitting_product(F: PermGroup, E: PermGroup, caps: Caps) -> PermGroup:
    """F*(G) from F = F(G) and E = E(G); one of them when the other is trivial."""
    if F.is_trivial() or E.is_trivial():
        return E if F.is_trivial() else F
    return PermGroup(F.degree, F.generators + E.generators, caps=caps)


# ---------------------------------------------------------------------------
# Frattini-type subgroups


def frattini_normal(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The intersection of the maximal normal subgroups (G itself if none)."""
    lat = normal_lattice(G, caps=caps)
    proper = [m for m in lat._orders if m != lat._full]
    return lat.group(lat._meet(a for a in proper if not any(a != b and a & ~b == 0 for b in proper)))


def frattini_pgroup(S: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Phi(S) = S' S^p for a p-group S."""
    primes = prime_factors(S.order)
    if len(primes) > 1:
        raise ValueError("frattini_pgroup requires a p-group")
    if not primes:
        return PermGroup.trivial(S.degree, caps=caps)
    return _derived_agemo(S, primes[0], caps)


def pgroup_rank(S: PermGroup, caps: Caps = DEFAULT_CAPS) -> int:
    """d(S) for a p-group: the rank of S/Phi(S)."""
    primes = prime_factors(S.order)
    if not primes:
        return 0
    return p_valuation(S.order // frattini_pgroup(S, caps=caps).order, primes[0])


def phi_lhd_height(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of normal-Frattini iterations needed to reach the trivial group."""
    height = 0
    H = G
    while H.order > 1:
        nxt = frattini_normal(H, caps=caps)
        if nxt.order == H.order:
            raise ValueError("normal Frattini series does not descend (infinite height)")
        H = nxt
        height += 1
    return height


# ---------------------------------------------------------------------------
# oblique cores and generalized obliquity


def intersection_of_small_normals(G: PermGroup, n: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """I_n(G): meet of the normal subgroups of index at most n."""
    lat = normal_lattice(G, caps=caps)
    return lat.group(lat._small_normals(n))


def oblique_core(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Ob_G(H): H meet all normal subgroups of G not contained in H.

    The empty family has meet G, so Ob_G(G) = G.
    """
    if not H.is_subgroup_of(G):
        raise NotASubgroup("oblique_core requires H <= G")
    lat = normal_lattice(G, caps=caps)
    if H.is_normal_in(G):
        return lat.group(lat._oblique(lat._mask(H)))
    above = lat._meet(m for m, N in zip(lat._orders, lat.members) if not N.is_subgroup_of(H))
    return intersection(H, lat.group(above), caps=caps)


def all_subgroups(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> dict:
    """Every subgroup of G, as {mask over G's element table: group}, breadth
    first by one-generator extensions <H, e> over e in ``G.element_tuples()``
    order, each with the generators of its first discovery. Bounded by the
    ``aut`` cap.

    <H, e> is closed as a mask: the union of the right cosets Hx reached from
    He by right multiplication with the generators. An e in a right coset He'
    already tried is skipped, as <H, e> = <H, e'>.
    """
    caps.check("aut", G.order)
    table = _element_table(G)
    elems, index = table.elements, table.index
    found, queue = {1: ()}, [1]  # found: mask -> generators, as element indices
    for h in queue:  # grows while it is read: breadth first
        members, gens, tried = [elems[i] for i in _bits(h)], [elems[i] for i in found[h]], h
        for e in G.element_tuples():
            if tried >> index[e] & 1:
                continue
            he = sum(1 << index[_compose(m, e)] for m in members)
            k, reps, k_gens, tried = h | he, [e], gens + [e], tried | he
            for w in reps:  # grows while it is read
                for x in [_compose(w, g) for g in k_gens]:
                    if not k >> index[x] & 1:
                        k |= sum(1 << index[_compose(m, x)] for m in members)
                        reps.append(x)
            if k not in found:
                found[k] = found[h] + (index[e],)
                queue.append(k)
    return {k: PermGroup(G.degree, [Permutation(elems[i]) for i in g], caps=caps) for k, g in found.items()}


def strong_oblique_core(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Ob*_G(H): H meet all H-normalized subgroups of G not contained in H.

    Each such subgroup holds some x outside H, so it holds <x^H>, the closure
    of x's H-class, which is itself H-normalized and not inside H. So Ob*_G(H)
    is H meet <x^H> for one x per H-class outside H: an ``&`` of masks over
    G's element table, whose size the ``ob_star`` cap bounds."""
    if not H.is_subgroup_of(G):
        raise NotASubgroup("strong_oblique_core requires H <= G")
    caps.check("ob_star", G.order)
    table = _element_table(G)
    out = done = table.mask(H.element_tuples())
    conj = [(g.images, _inverse(g.images)) for g in H.generators]
    for i, x in enumerate(table.elements):
        if not done >> i & 1:
            cls = [x]  # x's H-class, grown while it is read
            for y in cls:
                cls += {_conj(y, g, g_inv) for g, g_inv in conj}.difference(cls)
            done |= table.mask(cls)
            out &= table.mask(_generated(G.degree, [], map(Permutation, cls), caps).element_tuples())
    return _subgroup_of(G.degree, [table.elements[i] for i in _bits(out)], caps)


def ob_function(G: PermGroup, n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """ob_G(n) = |G : Ob_G(I_n(G))|."""
    return G.order // normal_lattice(G, caps=caps)._orders[_ob_core(G, n, caps)]


def _ob_core(G: PermGroup, n: int, caps: Caps) -> int:
    """Ob_G(I_n(G)) as a class mask."""
    lat = normal_lattice(G, caps=caps)
    return lat._oblique(lat._small_normals(n))


def ob_star_function(G: PermGroup, n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """ob*_G(n) = |G : Ob*_G(I_n(G))|, computed once per distinct I_n(G) and
    kept on G's lattice; the ``ob_star`` cap is checked on every call."""
    lat = normal_lattice(G, caps=caps)
    h = lat._small_normals(n)
    caps.check("ob_star", G.order)
    if h not in lat._ob_star:
        lat._ob_star[h] = G.order // strong_oblique_core(G, lat.group(h), caps=caps).order
    return lat._ob_star[h]


# ---------------------------------------------------------------------------
# transfer control (Tate) and p'-normality


@dataclass(frozen=True)
class TateCheck:
    """The four equivalent transfer-control conditions, reported separately."""

    derived: bool            # G' n S == K' n S
    frattini_quotient: bool  # (G'G^p) n S == (K'K^p) n S
    mixed: bool              # (G' O^p(G)) n S == (K' O^p(K)) n S
    p_residual: bool         # O^p(G) n S == O^p(K) n S

    def as_tuple(self):
        return (self.derived, self.frattini_quotient, self.mixed, self.p_residual)

    def all_agree(self):
        return len(set(self.as_tuple())) == 1

    def controls_transfer(self):
        return all(self.as_tuple())


def _derived_agemo(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """G'G^p: the smallest normal subgroup with elementary abelian p-quotient."""
    gens = [a.commutator(b) for i, a in enumerate(G.generators) for b in G.generators[i + 1 :]]
    gens += [g**p for g in G.generators]
    return normal_closure(G, gens, caps=caps)


def tate_check(G: PermGroup, K: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> TateCheck:
    """Evaluate the four transfer-control conditions for S <= K <= G.

    S is a Sylow p-subgroup of K, which must also be one of G. Each condition
    compares X(G) n S with X(K) n S; a subgroup K of G with G's order is G, so
    then all four hold by definition and nothing is computed.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not K.is_subgroup_of(G):
        raise NotASubgroup("tate_check requires K <= G")
    if p_part(K.order, p) != p_part(G.order, p):
        raise NotASubgroup("K does not contain a Sylow p-subgroup of G")
    if K.order == G.order:
        return TateCheck(True, True, True, True)
    S = sylow(K, p, caps=caps)
    s_elems = S.element_set()

    def sides(H: PermGroup):
        """H', H'H^p, H'O^p(H) and O^p(H), each met with S."""
        dH, opH = derived_subgroup(H, caps=caps), pi_residual(H, {p}, caps=caps)
        mixed = PermGroup(H.degree, dH.generators + opH.generators, caps=caps)
        groups = (dH, _derived_agemo(H, p, caps=caps), mixed, opH)
        return [frozenset(e for e in s_elems if X.chain.contains(e)) for X in groups]

    return TateCheck(*(a == b for a, b in zip(sides(G), sides(K))))


def is_p_prime_normal(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff G has a normal p-complement (normal p'-Hall subgroup)."""
    return p_prime_part(G.order, p) in normal_lattice(G, caps=caps).orders()


# ---------------------------------------------------------------------------
# automorphisms of small groups, the c-invariant from the invariant subgroups
# above Phi(S)


@dataclass
class AutGroup:
    """All automorphisms of a small group.

    ``elements`` lists the group's elements in sorted order; each entry of
    ``maps`` is an automorphism as a permutation of element indices, and
    ``action`` is the group they generate (index 0, the identity, is fixed).
    """

    group: PermGroup
    elements: list
    maps: list
    action: PermGroup

    @property
    def order(self):
        return len(self.maps)


def _reduced_generators(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    return list(_generated(G.degree, [], sorted(G.generators, key=lambda x: x.images), caps).generators)


def aut_group_small(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> AutGroup:
    """Aut(G) by exhaustive generator-image search (small groups only)."""
    caps.check("aut", G.order)
    table = _element_table(G)
    elems, index, n = table.elements, table.index, len(table.elements)
    gen_tuples = [g.images for g in _reduced_generators(G, caps)]
    # the Cayley graph's edges (i, j, i g_j) from its nodes in breadth-first
    # order, so that the first edge into a node spans a tree from the identity
    bfs, seen = [0], {0}
    for i in bfs:  # grows while it is read
        for gt in gen_tuples:
            k = index[_compose(elems[i], gt)]
            if k not in seen:
                seen.add(k)
                bfs.append(k)
    if len(bfs) != n:
        raise AssertionError("generator reduction lost the group")
    edges = [(i, j, index[_compose(elems[i], gt)]) for i in bfs for j, gt in enumerate(gen_tuples)]
    orders = [Permutation(t).order() for t in elems]
    candidates = [[t for t, o in zip(elems, orders) if o == Permutation(gt).order()] for gt in gen_tuples]
    maps = []
    for images in itertools.product(*candidates):
        # phi is set along the tree edges and checked on all the others
        phi = [elems[0]] + [None] * (n - 1)
        for i, j, k in edges:
            y = _compose(phi[i], images[j])
            if phi[k] is None:
                phi[k] = y
            elif phi[k] != y:
                break
        else:
            if len(set(phi)) == n:
                maps.append(tuple(index[t] for t in phi))
    action = _generated(n, [], (Permutation(m) for m in maps), caps)
    if action.order != len(maps):
        raise AssertionError("automorphism action order mismatch")
    return AutGroup(G, [Permutation(t) for t in elems], maps, action)


def c_invariant(S: PermGroup, caps: Caps = DEFAULT_CAPS) -> int:
    """Largest dimension of a composition factor of S/Phi(S) under Aut(S).

    The Aut(S)-submodules of S/Phi(S) are the Aut(S)-invariant subgroups
    between Phi(S) and S. From M = Phi(S), each step moves M up to the
    smallest invariant subgroup generated by M and one more element, trying
    one x per cyclic class <x>M. That subgroup is minimal over M, so its
    index is p^k for k the dimension of a composition factor; by
    Jordan-Hoelder the largest k over the steps does not depend on the choices.
    """
    primes = prime_factors(S.order)
    if len(primes) != 1:
        raise ValueError("c_invariant is defined for nontrivial p-groups")
    p = primes[0]
    phi = frattini_pgroup(S, caps=caps)
    d = p_valuation(S.order // phi.order, p)
    if d > 8:
        raise ValueError(f"Frattini quotient rank {d} exceeds 8")
    aut = aut_group_small(S, caps=caps)
    elems, index = _element_table(S).elements, _element_table(S).index
    auts = [a.images for a in aut.action.generators]

    def cosets(H, y):
        """H y^k for 0 < k < p, as element indices."""
        out, power = [], elems[y]
        for _ in range(1, p):
            out.extend(index[_compose(elems[h], power)] for h in H)
            power = _compose(power, elems[y])
        return out

    def close(M, x):
        """The smallest invariant subgroup holding M and x. A subgroup H above
        Phi(S) is normal and holds y^p, so H<y> is H and its cosets H y^k."""
        H, todo = set(M), [x]
        while todo:
            y = todo.pop()
            if y not in H:
                H.update(cosets(H, y))
                todo.extend(a[y] for a in auts)
        return H

    M = {index[g] for g in phi.element_tuples()}
    c = 0
    while len(M) < len(elems):
        best, tried = None, set(M)
        for x in range(len(elems)):
            if x in tried:
                continue
            tried.update(cosets(M, x))
            H = close(M, x)
            if best is None or len(H) < len(best):
                best = H
                if len(H) == p * len(M):
                    break
        k = p_valuation(len(best) // len(M), p)
        if k == 0 or p**k * len(M) != len(best):
            raise AssertionError("an invariant subgroup step is not a p-power index")
        c, M = max(c, k), best
    return c


# ---------------------------------------------------------------------------
# component orbits and digit sums


def component_orbit_check(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS):
    """(number of Sylow-p orbits on Comp_p(G), d(S), orbit count <= d(S))."""
    comps = [Q for Q in components(G, caps=caps) if Q.order % p == 0]
    S = sylow(G, p, caps=caps)
    unvisited = {Q.element_set() for Q in comps}
    orbit_count = 0
    for Q in comps:
        if Q.element_set() in unvisited:
            orbit_count += 1
            unvisited.difference_update(_conjugation_walk(S, Q, caps=caps))
    bound = pgroup_rank(S, caps=caps)
    return orbit_count, bound, orbit_count <= max(bound, 0) or orbit_count == 0
