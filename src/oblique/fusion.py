"""p-local fusion analysis.

Subgroup classes of a Sylow p-subgroup, fusion in the ambient group with
conjugator witnesses, automizer groups N_G(P)/C_G(P), an executable
Alperin-factorization verifier, and invariance of automizers under
quotients by normal p'-subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arith import p_valuation, prime_factors
from .caps import DEFAULT_CAPS, Caps
from .group import (
    NotASubgroup,
    PermGroup,
    _conjugating_elements,
    _generated,
    centralizer,
    normalizer,
    quotient_action,
    sylow,
)
from .lattice import all_subgroups, pi_core
from .perm import Permutation, _conj, _inverse


@dataclass
class Automizer:
    """N_G(P)/C_G(P) as a group of automorphisms of P.

    ``generators`` lists (conjugator, index permutation of P's sorted
    elements) pairs; the index permutations generate ``action``.
    """

    subgroup: PermGroup
    order: int
    generators: list
    action: PermGroup
    elements: list  # sorted elements of P, the action's points


@dataclass
class SClass:
    """An S-conjugacy class of subgroups of S."""

    rep_id: int
    member_ids: list
    s_witnesses: dict  # member id -> element of S conjugating rep to member


@dataclass
class FusionTable:
    ambient: PermGroup
    p: int
    sylow: PermGroup
    subgroups: list  # every subgroup of sylow, deterministically ordered
    s_classes: list  # SClass entries
    class_of_subgroup: dict  # subgroup id -> s-class id
    g_fusion: dict = field(default_factory=dict)  # (class i, class j) -> witness or None
    fusion_class_of: list = field(default_factory=list)  # class id -> fusion class id
    fully_normalized: list = field(default_factory=list)  # per fusion class: subgroup id
    automizers: list = field(default_factory=list)  # per s-class
    completed: bool = False
    _normalizers: dict = field(default_factory=dict, init=False, repr=False)  # subgroup id -> N_G(P)

    def ambient_normalizer(self, sid: int, caps: Caps = DEFAULT_CAPS) -> PermGroup:
        """N_G(P) for the subgroup with id ``sid``, computed once per table."""
        if sid not in self._normalizers:
            self._normalizers[sid] = normalizer(self.ambient, self.subgroups[sid], caps=caps)
        return self._normalizers[sid]

    def fused(self, i: int, j: int) -> bool:
        return self.fusion_class_of[i] == self.fusion_class_of[j]

    def witness(self, i: int, j: int):
        return self.g_fusion.get((min(i, j), max(i, j)))

    def fusion_classes(self):
        out = {}
        for cid, fid in enumerate(self.fusion_class_of):
            out.setdefault(fid, []).append(cid)
        return [out[f] for f in sorted(out)]


def _subgroup_key(H: PermGroup):
    return (H.order, tuple(sorted(H.element_set())))


def subgroup_classes_of_sylow(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> FusionTable:
    """All subgroups of a Sylow p-subgroup, up to S-conjugacy."""
    S = sylow(G, p, caps=caps)
    subgroups = sorted(all_subgroups(S, caps=caps, cap_name="aut"), key=_subgroup_key)
    by_set = {H.element_set(): i for i, H in enumerate(subgroups)}
    s_gens = [(g, g.images, _inverse(g.images)) for g in S.generators]
    assigned = {}
    s_classes = []
    for i, H in enumerate(subgroups):
        if i in assigned:
            continue
        cid = len(s_classes)
        witnesses = {i: S.identity()}
        assigned[i] = cid
        frontier = [i]
        while frontier:
            nxt = []
            for j in frontier:
                K = subgroups[j].element_tuples()
                for g, g_img, g_inv in s_gens:
                    img = by_set[frozenset(_conj(x, g_img, g_inv) for x in K)]
                    if img not in assigned:
                        assigned[img] = cid
                        witnesses[img] = witnesses[j] * g
                        nxt.append(img)
            frontier = nxt
        s_classes.append(SClass(rep_id=i, member_ids=sorted(witnesses), s_witnesses=witnesses))
    return FusionTable(
        ambient=G,
        p=p,
        sylow=S,
        subgroups=subgroups,
        s_classes=s_classes,
        class_of_subgroup=assigned,
    )


def automizer(G: PermGroup, P: PermGroup, caps: Caps = DEFAULT_CAPS) -> Automizer:
    """The automorphisms of P induced by N_G(P), a group of order |N_G(P) : C_G(P)|.

    C_G(P) lies in N_G(P), so it is searched for in N_G(P) rather than in G.
    """
    if not P.is_subgroup_of(G):
        raise NotASubgroup("automizer requires P <= G")
    return _automizer(P, normalizer(G, P, caps=caps), caps)


def _automizer(P: PermGroup, N: PermGroup, caps: Caps) -> Automizer:
    """The automizer of P, given N = N_G(P)."""
    order = N.order // centralizer(N, P, caps=caps).order
    elems = sorted(P.element_tuples())
    index = {t: i for i, t in enumerate(elems)}
    npoints = max(len(elems), 1)
    perms = []
    for n in N.generators:
        n_inv = _inverse(n.images)
        perms.append(Permutation(tuple(index[_conj(t, n.images, n_inv)] for t in elems)))
    action = _generated(npoints, [], perms, caps)
    conjugator = dict(zip(reversed(perms), reversed(N.generators)))  # the first n giving each perm
    gens = [(conjugator[perm], perm) for perm in action.generators]
    if action.order != order:
        raise AssertionError("automizer action order mismatch")
    return Automizer(
        subgroup=P,
        order=order,
        generators=gens,
        action=action,
        elements=[Permutation(t) for t in elems],
    )


def g_fusion(G: PermGroup, table: FusionTable, caps: Caps = DEFAULT_CAPS) -> FusionTable:
    """Complete a skeleton: fusion witnesses, fully normalized representatives,
    and automizers."""
    reps = [table.subgroups[c.rep_id] for c in table.s_classes]
    k = len(reps)
    for i in range(k):
        later = [j for j in range(i + 1, k) if reps[j].order == reps[i].order]
        if not later:
            continue
        found = _conjugating_elements(G, reps[i], [reps[j] for j in later], caps=caps)
        for j, w in zip(later, found):
            if w is not None:
                if not reps[i].conjugated(w, caps=caps).same_group(reps[j]):
                    raise AssertionError("fusion witness failed verification")
                table.g_fusion[(i, j)] = w
    # union-find over direct witnesses (transitivity gives the full relation)
    fid = list(range(k))

    def find(a):
        while fid[a] != a:
            fid[a] = fid[fid[a]]
            a = fid[a]
        return a

    for (i, j) in table.g_fusion:
        fid[find(j)] = find(i)
    roots = sorted({find(i) for i in range(k)})
    renumber = {r: n for n, r in enumerate(roots)}
    table.fusion_class_of = [renumber[find(i)] for i in range(k)]
    # fully normalized representative per fusion class: maximal |N_S(P)|
    table.fully_normalized = [None] * len(roots)
    for fclass in table.fusion_classes():
        candidates = [m for cid in fclass for m in table.s_classes[cid].member_ids]
        best, best_norm = None, -1
        for m in sorted(candidates):
            nsize = normalizer(table.sylow, table.subgroups[m], caps=caps).order
            if nsize > best_norm:
                best, best_norm = m, nsize
        fidx = table.fusion_class_of[table.class_of_subgroup[best]]
        table.fully_normalized[fidx] = best
        # Sylow's theorem guarantees some conjugate has N_S(P) Sylow in N_G(P)
        ng = table.ambient_normalizer(best, caps=caps)
        if p_valuation(ng.order, table.p) != p_valuation(best_norm, table.p):
            raise AssertionError("no fully normalized representative found")
    table.automizers = [
        _automizer(table.subgroups[c.rep_id], table.ambient_normalizer(c.rep_id, caps=caps), caps)
        for c in table.s_classes
    ]
    table.completed = True
    return table


def fusion_table(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> FusionTable:
    return g_fusion(G, subgroup_classes_of_sylow(G, p, caps=caps), caps=caps)


@dataclass
class LocalMove:
    """One p-local step: conjugation by ``element``.

    kind "s-conj" conjugates by an element of S; kind "automizer" conjugates
    by an element of N_G(R) for the fully normalized subgroup R (identified
    by ``fusion_class``), restricted to a subgroup of R.
    """

    kind: str
    element: Permutation
    source_id: int
    target_id: int
    fusion_class: int = -1
    generator_index: int = -1


def alperin_closure_check(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS, table=None):
    """Verify that S-conjugations plus automizer restrictions generate fusion.

    Returns (ok, chains, table): ok is True iff the reachability closure of
    the p-local moves equals G-fusion on the subgroups of S; chains maps each
    fused pair of S-class ids to a verified sequence of LocalMoves taking the
    first representative to the second.
    """
    if table is None:
        table = fusion_table(G, p, caps=caps)
    if not table.completed:
        table = g_fusion(G, table, caps=caps)
    subgroups = table.subgroups
    by_set = {H.element_set(): i for i, H in enumerate(subgroups)}
    moves = {i: [] for i in range(len(subgroups))}  # source id -> LocalMoves

    def add_move(kind, element, src, fusion_class=-1, gen_index=-1):
        g_inv = _inverse(element.images)
        tgt = by_set[frozenset(_conj(t, element.images, g_inv) for t in subgroups[src].element_tuples())]
        moves[src].append(LocalMove(kind, element, src, tgt, fusion_class, gen_index))

    for cls in table.s_classes:
        for m in cls.member_ids:
            for g in table.sylow.generators:
                add_move("s-conj", g, m)
    locals_sources = set(table.fully_normalized)
    locals_sources.add(by_set[table.sylow.element_set()])
    for rid in sorted(locals_sources):
        R = subgroups[rid]
        fcls = table.fusion_class_of[table.class_of_subgroup[rid]]
        N = table.ambient_normalizer(rid, caps=caps)
        for gi, n in enumerate(N.generators):
            for qid, Q in enumerate(subgroups):
                if Q.is_subgroup_of(R):
                    add_move("automizer", n, qid, fusion_class=fcls, gen_index=gi)
    # closure: connected components under the moves (inverses exist, so the
    # directed reachability relation is symmetric on finite orbits)
    comp = {}
    for start in range(len(subgroups)):
        if start in comp:
            continue
        comp[start] = start
        frontier = [start]
        while frontier:
            nxt = []
            for i in frontier:
                for mv in moves[i]:
                    if mv.target_id not in comp:
                        comp[mv.target_id] = start
                        nxt.append(mv.target_id)
            frontier = nxt
    ok = True
    for i in range(len(subgroups)):
        for j in range(len(subgroups)):
            local_fused = comp[i] == comp[j]
            g_fused = table.fused(
                table.class_of_subgroup[i], table.class_of_subgroup[j]
            )
            if local_fused != g_fused:
                ok = False
    # factorization chains between fused S-class representatives
    chains = {}
    for fclass in table.fusion_classes():
        base = table.s_classes[fclass[0]].rep_id
        paths = {base: []}
        frontier = [base]
        while frontier:
            nxt = []
            for i in frontier:
                for mv in moves[i]:
                    if mv.target_id not in paths:
                        paths[mv.target_id] = paths[i] + [mv]
                        nxt.append(mv.target_id)
            frontier = nxt
        for cid in fclass[1:]:
            rep = table.s_classes[cid].rep_id
            if rep not in paths:
                if ok:
                    raise AssertionError("closure marked complete but no chain found")
                continue
            chain = paths[rep]
            total = G.identity()
            for mv in chain:
                total = total * mv.element
            if not subgroups[base].conjugated(total, caps=caps).same_group(subgroups[rep]):
                raise AssertionError("factorization chain failed verification")
            chains[(fclass[0], cid)] = chain
    return ok, chains, table


def p_prime_kernel_invariance(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Automizer orders are unchanged modulo the p'-core."""
    pi = set(prime_factors(G.order)) - {p}
    K = pi_core(G, pi, caps=caps)
    table = subgroup_classes_of_sylow(G, p, caps=caps)
    if K.is_trivial():
        return True
    Q, hom = quotient_action(G, K, caps=caps)
    for cls in table.s_classes:
        P = table.subgroups[cls.rep_id]
        here = automizer(G, P, caps=caps).order
        there = automizer(Q, hom.image_of_group(P), caps=caps).order
        if here != there:
            return False
    return True
