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
    _conjugation_walk,
    _element_table,
    _generated,
    _orbit_normalizer,
    centralizer,
    normalizer,
    quotient_action,
    sylow,
)
from .lattice import _bits, all_subgroups, pi_core
from .perm import Permutation, _conj, _inverse


@dataclass
class Automizer:
    """N_G(P)/C_G(P) as a group of automorphisms of P: ``action`` permutes
    the indices of P's sorted elements."""

    subgroup: PermGroup
    order: int
    action: PermGroup


@dataclass
class SClass:
    """An S-conjugacy class of subgroups of S."""

    rep_id: int
    member_ids: list


@dataclass
class FusionTable:
    ambient: PermGroup
    p: int
    sylow: PermGroup
    subgroups: list  # every subgroup of sylow, by order, then by sorted elements
    masks: list  # per subgroup: its mask over the sylow's element table
    s_classes: list  # SClass entries
    class_of_subgroup: dict  # subgroup id -> s-class id
    g_fusion: dict = field(default_factory=dict)  # (class i, class j) -> witness or None
    fusion_class_of: list = field(default_factory=list)  # class id -> fusion class id
    fully_normalized: list = field(default_factory=list)  # per fusion class: subgroup id
    automizers: list = field(default_factory=list)  # per s-class
    normalizers: list = field(default_factory=list)  # per s-class: N_G(P) of its representative P

    def fused(self, i: int, j: int) -> bool:
        return self.fusion_class_of[i] == self.fusion_class_of[j]

    def fusion_classes(self):
        out = {}
        for cid, fid in enumerate(self.fusion_class_of):
            out.setdefault(fid, []).append(cid)
        return [out[f] for f in sorted(out)]


def subgroup_classes_of_sylow(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> FusionTable:
    """All subgroups of a Sylow p-subgroup, up to S-conjugacy, sorted by their
    masks over S's element table: by popcount, then set bits. As index order is
    tuple order, that is by order, then sorted elements."""
    S = sylow(G, p, caps=caps)
    found, table = all_subgroups(S, caps=caps, cap_name="aut"), _element_table(S)
    ranked = sorted(zip(table.masks, found), key=lambda mH: (mH[0].bit_count(), tuple(_bits(mH[0]))))
    masks, subgroups = [m for m, _ in ranked], [H for _, H in ranked]
    by_mask = {m: i for i, m in enumerate(masks)}
    assigned = {}
    s_classes = []
    for i, H in enumerate(subgroups):
        if i in assigned:
            continue
        cid = len(s_classes)
        members = sorted(by_mask[table.mask(k)] for k in _conjugation_walk(S, H, caps=caps))
        assigned.update(dict.fromkeys(members, cid))
        s_classes.append(SClass(rep_id=i, member_ids=members))
    return FusionTable(
        ambient=G, p=p, sylow=S, subgroups=subgroups, masks=masks, s_classes=s_classes, class_of_subgroup=assigned
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
    elems, index = _element_table(P).elements, _element_table(P).index
    perms = []
    for n in N.generators:
        n_inv = _inverse(n.images)
        perms.append(Permutation(tuple(index[_conj(t, n.images, n_inv)] for t in elems)))
    action = _generated(len(elems), [], perms, caps)
    if action.order != order:
        raise AssertionError("automizer action order mismatch")
    return Automizer(subgroup=P, order=order, action=action)


def _fuse(G: PermGroup, table: FusionTable, caps: Caps) -> FusionTable:
    """Complete a skeleton: fusion witnesses, normalizers, fully normalized
    representatives, and automizers.

    One full conjugation walk from each nontrivial S-class representative P
    gives both its witnesses to the later representatives it is fused with
    and N_G(P), by orbit-stabilizer (:func:`_orbit_normalizer`), at every
    order of G; the walk is dropped once both are taken.
    """
    reps = [table.subgroups[c.rep_id] for c in table.s_classes]
    sets = [H.element_set() for H in reps]
    k = len(reps)
    table.normalizers = [G] * k
    for i, H in enumerate(reps):
        if H.is_trivial():  # the only subgroup of its order, and N_G(1) = G
            continue
        later = [j for j in range(i + 1, k) if reps[j].order == H.order]
        walked, table.normalizers[i] = _orbit_normalizer(G, H, caps)
        for j in later:
            w = walked.get(sets[j])
            if w is not None:
                if not H.conjugated(w, caps=caps).same_group(reps[j]):
                    raise AssertionError("fusion witness failed verification")
                table.g_fusion[(i, j)] = w
    # a walk finds every later representative fused with its start, so each
    # one has a witness from the first representative of its fusion class
    first = list(range(k))
    for i, j in table.g_fusion:
        first[j] = min(first[j], i)
    renumber = {r: n for n, r in enumerate(sorted(set(first)))}
    table.fusion_class_of = [renumber[r] for r in first]
    # fully normalized representative per fusion class: maximal |N_S(P)|,
    # which is |S| over the size of P's S-class (orbit-stabilizer)
    table.fully_normalized = []
    for fclass in table.fusion_classes():
        smallest = min(fclass, key=lambda cid: (len(table.s_classes[cid].member_ids), cid))
        best = table.s_classes[smallest].rep_id
        best_norm = table.sylow.order // len(table.s_classes[smallest].member_ids)
        table.fully_normalized.append(best)
        # Sylow's theorem guarantees some conjugate has N_S(P) Sylow in N_G(P)
        if p_valuation(table.normalizers[smallest].order, table.p) != p_valuation(best_norm, table.p):
            raise AssertionError("no fully normalized representative found")
    table.automizers = [_automizer(P, N, caps) for P, N in zip(reps, table.normalizers)]
    return table


def fusion_table(G: PermGroup, p: int, caps: Caps = DEFAULT_CAPS) -> FusionTable:
    return _fuse(G, subgroup_classes_of_sylow(G, p, caps=caps), caps)


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
    subgroups, masks, s_table = table.subgroups, table.masks, _element_table(table.sylow)
    by_mask = {m: i for i, m in enumerate(masks)}
    moves = {i: [] for i in range(len(subgroups))}  # source id -> LocalMoves

    def induced(element, mask):
        """The conjugation by ``element`` on the table indices of mask's bits."""
        g, g_inv = element.images, _inverse(element.images)
        return {i: s_table.index[_conj(s_table.elements[i], g, g_inv)] for i in _bits(mask)}

    def add_move(kind, element, perm, src, fusion_class=-1, gen_index=-1):
        tgt = by_mask[sum(1 << perm[i] for i in _bits(masks[src]))]
        moves[src].append(LocalMove(kind, element, src, tgt, fusion_class, gen_index))

    full = (1 << table.sylow.order) - 1
    s_perms = [(g, induced(g, full)) for g in table.sylow.generators]
    for cls in table.s_classes:
        for m in cls.member_ids:
            for g, perm in s_perms:
                add_move("s-conj", g, perm, m)
    locals_sources = set(table.fully_normalized)
    locals_sources.add(by_mask[full])
    for rid in sorted(locals_sources):
        fcls = table.fusion_class_of[table.class_of_subgroup[rid]]
        N = table.normalizers[table.class_of_subgroup[rid]]
        for gi, n in enumerate(N.generators):
            perm = induced(n, masks[rid])
            for qid, q in enumerate(masks):
                if q & ~masks[rid] == 0:
                    add_move("automizer", n, perm, qid, fusion_class=fcls, gen_index=gi)
    # closure: connected components under the moves (inverses exist, so the
    # directed reachability relation is symmetric on finite orbits), each
    # walked from its lowest id; paths[i] holds the moves from there to i
    comp, paths = {}, {}
    for start in range(len(subgroups)):
        if start in comp:
            continue
        comp[start], paths[start] = start, []
        queue = [start]
        for i in queue:  # grows while it is read: breadth first
            for mv in moves[i]:
                if mv.target_id not in comp:
                    comp[mv.target_id] = start
                    paths[mv.target_id] = paths[i] + [mv]
                    queue.append(mv.target_id)
    # local fusion equals G-fusion iff the two partitions of the ids coincide
    fusion_of = [table.fusion_class_of[table.class_of_subgroup[i]] for i in range(len(subgroups))]
    pairs = {(comp[i], fusion_of[i]) for i in range(len(subgroups))}
    ok = len(pairs) == len(set(comp.values())) == len(set(fusion_of))
    # factorization chains between fused S-class representatives; moves are
    # G-conjugations, so a fusion class's lowest id, its first rep, starts
    # the component of every rep it reaches
    chains = {}
    for fclass in table.fusion_classes():
        base = table.s_classes[fclass[0]].rep_id
        for cid in fclass[1:]:
            rep = table.s_classes[cid].rep_id
            if comp[rep] != comp[base]:
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
    reps = (table.subgroups[cls.rep_id] for cls in table.s_classes)
    return all(
        automizer(G, P, caps=caps).order == automizer(Q, hom.image_of_group(P), caps=caps).order for P in reps
    )
