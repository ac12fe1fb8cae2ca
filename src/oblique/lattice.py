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
    _generated,
    center,
    derived_series,
    derived_subgroup,
    intersection,
    normal_closure,
    quotient_action,
    sylow,
)
from .perm import Permutation, _compose


class NormalLattice:
    """The complete set of normal subgroups of an ambient group.

    A normal subgroup is a union of conjugacy classes, so each member is an
    int mask over ``conjugacy_classes(ambient)``: bit i is set when it holds
    the representative of class i (bit 0 is the identity class). Meets, joins
    and containment tests are integer operations on masks. A mask alone is no
    proof of membership (in S4, <(1 2),(3 4)> has the order of V4 but is not
    normal), so ``index_of`` checks the one candidate it names by ``same_group``.
    """

    def __init__(self, ambient: PermGroup, members):
        self.ambient = ambient
        self.members = sorted(members.values(), key=lambda m: m.order)  # members: {mask: group}
        self._by_mask = members
        self._masks = {m: mask for mask, m in members.items()}
        self._index = {self._masks[m]: i for i, m in enumerate(self.members)}
        self._classes = _class_seeds(ambient)[0]
        self._full = (1 << len(self._classes)) - 1

    def __len__(self):
        return len(self.members)

    def orders(self):
        return [m.order for m in self.members]

    def index_of(self, H: PermGroup):
        i = self._index.get(_class_mask(H, self._classes)) if H.degree == self.ambient.degree else None
        if i is None or not self.members[i].same_group(H):
            raise NotASubgroup("subgroup is not a member of the normal lattice")
        return i

    def _mask_of(self, H: PermGroup) -> int:
        if H not in self._masks:
            H = self.members[self.index_of(H)]
        return self._masks[H]

    def _meet_masks(self, masks) -> PermGroup:
        out = self._full
        for mask in masks:
            out &= mask
        return self._by_mask[out]

    def join(self, A: PermGroup, B: PermGroup) -> PermGroup:
        """The meet of every member that contains both (the lattice is complete)."""
        union = self._mask_of(A) | self._mask_of(B)
        return self._meet_masks(m for m in self._index if union & ~m == 0)

    def meet(self, A: PermGroup, B: PermGroup) -> PermGroup:
        return self._meet_masks((self._mask_of(A), self._mask_of(B)))

    def meet_all(self, groups) -> PermGroup:
        """Meet of a family of members; the empty meet is the ambient group."""
        return self._meet_masks(self._mask_of(H) for H in groups)

    def maximal_members(self):
        """Maximal proper normal subgroups."""
        proper = [m for m in self._index if m != self._full]
        return [self._by_mask[a] for a in proper if not any(a != b and a & ~b == 0 for b in proper)]

    def minimal_members(self):
        """Minimal nontrivial normal subgroups."""
        nontrivial = [m for m in self._index if m != 1]
        return [self._by_mask[a] for a in nontrivial if not any(a != b and b & ~a == 0 for b in nontrivial)]


def _class_mask(H: PermGroup, classes) -> int:
    return sum(1 << i for i, (rep, _) in enumerate(classes) if H.chain.contains(rep))


def _class_seeds(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    """(classes, seeds, class_of, masks), cached: :func:`_class_table`'s
    classes and class_of, each class's normal closure <c^G> as a class mask
    (:func:`_close`), and the distinct closures (the seeds) by mask, in the
    order of their first class. Every normal subgroup is a join of seeds, a
    pi-core of some. A chain is built only per seed. Callers that need the
    lattice cap check it first.
    """
    if G._seeds is None:
        classes, class_of = _class_table(G, caps)
        masks, seeds = [1], {}
        for c in range(1, len(classes)):
            mask = _close(classes, class_of, 1 | 1 << c, classes[c][0], masks)
            masks.append(mask)
            if mask not in seeds:
                seeds[mask] = _checked(normal_closure(G, [Permutation(classes[c][0])], caps=caps), classes, mask)
        G._seeds = (classes, seeds, class_of, masks)
    return G._seeds


def _checked(N: PermGroup, classes, mask) -> PermGroup:
    """N, once its order is checked to be the summed size of the classes in ``mask``."""
    size = sum(len(classes[i][1]) for i in _bits(mask))
    if N.order != size:
        raise AssertionError(f"normal subgroup has order {N.order}, its class mask {size}")
    return N


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(classes, class_of, mask, r, known):
    """The smallest normal subgroup holding the classes in ``mask`` and r, as a
    class mask. ``mask`` holds the identity class and r's class, and lies in
    M<r^G> for a normal subgroup M whose classes it holds (M = 1 for a seed).

    The union N of the classes reached from ``mask`` by a -> the classes of
    K_a r is closed under conjugation and right multiplication by r, so by
    every conjugate of r, and N = M<r^G> (Hulpke, "Computing normal subgroups",
    ISSAC 1998). k r needs only k's base images, its key: (k r)[b] = r[k[b]].
    Shortcuts: a union larger than |G|/q, for q the least prime dividing |G|,
    closes to G; and if a class a is found whose known closure ``known[a]`` =
    <a^G> holds ``mask``, then N = <a^G>.
    """
    limit = len(class_of) // min(prime_factors(len(class_of)))
    start, todo = mask, list(_bits(mask))
    size = sum(len(classes[a][1]) for a in todo)
    while todo:
        for k in classes[todo.pop()][1]:
            a = class_of[_compose(k, r)]
            if mask >> a & 1:
                continue
            if a < len(known) and start & ~known[a] == 0:
                return known[a]
            mask |= 1 << a
            size += len(classes[a][1])
            if size > limit:
                return (1 << len(classes)) - 1
            todo.append(a)
    return mask


def normal_lattice(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> NormalLattice:
    if G._lattice is None:
        caps.check("lattice", G.order)
        classes, seeds, class_of, masks = _class_seeds(G, caps=caps)
        # top is a copy of G: a cycle G -> G._lattice -> G would outlive G until a full gc
        top = PermGroup(G.degree, G.generators, caps=caps)
        top._chain, top._seeds = G.chain, G._seeds
        members = {1: PermGroup.trivial(G.degree, caps=caps), (1 << len(classes)) - 1: top}
        for mask, s in seeds.items():
            members.setdefault(mask, s)
        # every member is a join of seeds, so join each member with each seed; a join
        # depends only on the masks' union, and gets a group only if it is new
        reps = {s: classes[masks.index(s)][0] for s in seeds}  # seed s = <r^G>
        known = set(members)  # unions whose join has been found
        frontier = list(members)
        while frontier:
            new = []
            for a in frontier:
                for s, r in reps.items():
                    if a | s in known:
                        continue
                    mask = _close(classes, class_of, a | s, r, masks)
                    known.update((a | s, mask))
                    if mask not in members:
                        j = PermGroup(G.degree, members[a].generators + seeds[s].generators, caps=caps)
                        members[mask] = _checked(j, classes, mask)
                        new.append(mask)
            frontier = new
        G._lattice = NormalLattice(top, members)
    return G._lattice


# ---------------------------------------------------------------------------
# cores, residuals, Fitting machinery


def pi_core(G: PermGroup, pi, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """O_pi(G): the largest normal pi-subgroup.

    An element lies in O_pi exactly when its normal closure is a pi-group,
    so O_pi is the join of the pi-group class seeds.
    """
    caps.check("lattice", G.order)
    pi = set(pi)
    gens = []
    for s in _class_seeds(G, caps=caps)[1].values():
        if set(prime_factors(s.order)) <= pi:
            gens.extend(s.generators)
    return PermGroup(G.degree, gens, caps=caps)


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
    if G.order == 1:
        return False
    return all(s.order == G.order for s in _class_seeds(G, caps=caps)[1].values())


def is_quasisimple(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> bool:
    """Perfect with simple central quotient."""
    if G.order == 1 or derived_subgroup(G, caps=caps).order < G.order:
        return False
    Z = center(G, caps=caps)
    if Z.is_trivial():
        return is_simple(G, caps=caps)
    Q, _ = quotient_action(G, Z, caps=caps)
    return is_simple(Q, caps=caps)


def components(G: PermGroup, caps: Caps = DEFAULT_CAPS):
    """The subnormal quasisimple subgroups of G.

    Recursion over the normal lattice; soluble subgroups are pruned since
    they contain no perfect nontrivial subgroup. Memoised by element set
    within this ambient group only.
    """
    return _components(G, {}, caps)


def _components(H: PermGroup, memo, caps: Caps):
    # not a closure: a recursive closure keeps its memo in a reference cycle
    key = (H.order, H.element_set())
    if key in memo:
        return memo[key]
    if H.order == 1 or is_soluble(H, caps=caps):
        out = []
    elif is_quasisimple(H, caps=caps):
        out = [H]
    else:
        out = []
        seen = set()
        for N in normal_lattice(H, caps=caps).members:
            if N.order in (1, H.order):
                continue
            for Q in _components(N, memo, caps):
                qkey = (Q.order, Q.element_set())
                if qkey not in seen:
                    seen.add(qkey)
                    out.append(Q)
    memo[key] = out
    return out


def fitting(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """F(G): join of the p-cores over primes dividing |G|."""
    gens = [g for p in prime_factors(G.order) for g in pi_core(G, {p}, caps=caps).generators]
    return PermGroup(G.degree, gens, caps=caps)


def layer(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """E(G): join of the components."""
    gens = []
    for Q in components(G, caps=caps):
        gens.extend(Q.generators)
    return PermGroup(G.degree, gens, caps=caps)


def generalized_fitting(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """F*(G) = F(G) E(G)."""
    return _fitting_product(fitting(G, caps=caps), layer(G, caps=caps), caps)


def _fitting_product(F: PermGroup, E: PermGroup, caps: Caps) -> PermGroup:
    """F*(G) from F = F(G) and E = E(G)."""
    return PermGroup(F.degree, F.generators + E.generators, caps=caps)


# ---------------------------------------------------------------------------
# Frattini-type subgroups


def frattini_normal(G: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """The intersection of the maximal normal subgroups (G itself if none)."""
    lat = normal_lattice(G, caps=caps)
    return lat.meet_all(lat.maximal_members())


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
    return lat.meet_all(m for m in lat.members if G.order // m.order <= n)


def oblique_core(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Ob_G(H): H meet all normal subgroups of G not contained in H.

    The empty family has meet G, so Ob_G(G) = G.
    """
    lat = normal_lattice(G, caps=caps)
    h = lat._masks.get(H)
    if h is not None:
        return lat._meet_masks([h] + [m for m in lat._index if m & ~h])
    return intersection(H, lat.meet_all(m for m in lat.members if not m.is_subgroup_of(H)), caps=caps)


def all_subgroups(G: PermGroup, caps: Caps = DEFAULT_CAPS, cap_name: str = "ob_star"):
    """Every subgroup of G, by closing under one-generator extensions.

    The list is computed once and cached on G; the cap is checked on every call.
    """
    caps.check(cap_name, G.order)
    if G._subgroups is None:
        elems = G.element_tuples()
        trivial = PermGroup.trivial(G.degree, caps=caps)
        found = {trivial.element_set(): trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for H in frontier:
                for e in elems:
                    if H.chain.contains(e):
                        continue
                    K = PermGroup(G.degree, H.generators + (Permutation(e),), caps=caps)
                    key = K.element_set()
                    if key not in found:
                        found[key] = K
                        nxt.append(K)
            frontier = nxt
        G._subgroups = list(found.values())
    return G._subgroups


def strong_oblique_core(G: PermGroup, H: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Ob*_G(H): H meet all H-normalized subgroups of G not contained in H."""
    out = G
    for K in all_subgroups(G, caps=caps):
        if not H.normalizes(K):
            continue
        if K.is_subgroup_of(H):
            continue
        out = intersection(out, K, caps=caps)
    return intersection(H, out, caps=caps)


def ob_function(G: PermGroup, n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """ob_G(n) = |G : Ob_G(I_n(G))|."""
    core = oblique_core(G, intersection_of_small_normals(G, n, caps=caps), caps=caps)
    return G.order // core.order


def ob_star_function(G: PermGroup, n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """ob*_G(n) = |G : Ob*_G(I_n(G))|."""
    core = strong_oblique_core(G, intersection_of_small_normals(G, n, caps=caps), caps=caps)
    return G.order // core.order


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

    S is a Sylow p-subgroup of K, which must also be one of G.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not K.is_subgroup_of(G):
        raise NotASubgroup("tate_check requires K <= G")
    if p_part(K.order, p) != p_part(G.order, p):
        raise NotASubgroup("K does not contain a Sylow p-subgroup of G")
    S = sylow(K, p, caps=caps)
    s_elems = S.element_set()

    def inter_s(H: PermGroup):
        return frozenset(e for e in s_elems if H.chain.contains(e))

    dG, dK = derived_subgroup(G, caps=caps), derived_subgroup(K, caps=caps)
    opG, opK = pi_residual(G, {p}, caps=caps), pi_residual(K, {p}, caps=caps)
    agG, agK = _derived_agemo(G, p, caps=caps), _derived_agemo(K, p, caps=caps)
    mixG = PermGroup(G.degree, dG.generators + opG.generators, caps=caps)
    mixK = PermGroup(K.degree, dK.generators + opK.generators, caps=caps)
    return TateCheck(
        derived=inter_s(dG) == inter_s(dK),
        frattini_quotient=inter_s(agG) == inter_s(agK),
        mixed=inter_s(mixG) == inter_s(mixK),
        p_residual=inter_s(opG) == inter_s(opK),
    )


def is_p_prime_normal(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """True iff G has a normal p-complement (normal p'-Hall subgroup)."""
    target = p_prime_part(G.order, p)
    lat = normal_lattice(G, caps=caps)
    return any(m.order == target for m in lat.members)


# ---------------------------------------------------------------------------
# automorphisms of small groups, the c-invariant from the invariant subgroups
# above Phi(S)


@dataclass
class AutGroup:
    """All automorphisms of a small group.

    ``elements`` lists the group's elements in sorted order; each entry of
    ``maps`` is an automorphism as a permutation of element indices.
    ``action`` is the same data as a PermGroup on the nontrivial elements.
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
    elems = sorted(G.element_tuples())
    n = len(elems)
    index = {t: i for i, t in enumerate(elems)}
    gens = _reduced_generators(G, caps)
    if not gens:
        action = PermGroup.trivial(1, caps=caps)
        return AutGroup(G, [Permutation(t) for t in elems], [(0,) * 1 if n == 1 else tuple(range(n))], action)
    gen_tuples = [g.images for g in gens]
    # BFS word tree over the reduced generators
    parent = {0: None}
    gen_of = {}
    order_bfs = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j, gt in enumerate(gen_tuples):
                k = index[_compose(elems[i], gt)]
                if k not in parent:
                    parent[k] = i
                    gen_of[k] = j
                    order_bfs.append(k)
                    nxt.append(k)
        frontier = nxt
    if len(order_bfs) != n:
        raise AssertionError("generator reduction lost the group")
    mul = [[index[_compose(elems[i], gt)] for gt in gen_tuples] for i in range(n)]
    orders = [Permutation(t).order() for t in elems]
    candidates = [
        [elems[i] for i in range(n) if orders[i] == Permutation(gt).order()] for gt in gen_tuples
    ]
    maps = []
    for images in itertools.product(*candidates):
        phi = [None] * n
        phi[0] = elems[0]
        ok = True
        for i in order_bfs[1:]:
            phi[i] = _compose(phi[parent[i]], images[gen_of[i]])
        if len(set(phi)) != n:
            continue
        for i in range(n):
            for j in range(len(gen_tuples)):
                if phi[mul[i][j]] != _compose(phi[i], images[j]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            maps.append(tuple(index[t] for t in phi))
    # as a permutation group on the nontrivial elements
    action = _generated(max(n - 1, 1), [], (Permutation(tuple(v - 1 for v in m[1:])) for m in maps), caps)
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
    elems = [g.images for g in aut.elements]
    index = {t: i for i, t in enumerate(elems)}
    # the generators of Aut(S) on element indices (index 0 is the identity)
    auts = [(0,) + tuple(v + 1 for v in a.images) for a in aut.action.generators]

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
            unvisited -= _conjugation_walk(S, Q, caps=caps).keys()
    bound = pgroup_rank(S, caps=caps)
    return orbit_count, bound, orbit_count <= max(bound, 0) or orbit_count == 0
