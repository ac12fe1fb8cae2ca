import gc
import weakref

from oblique import (
    PermGroup,
    Permutation,
    alperin_closure_check,
    automizer,
    centralizer,
    direct_product,
    fusion_table,
    intersection,
    normalizer,
    p_prime_kernel_invariance,
    subgroup_classes_of_sylow,
    sylow,
    wreath_imprimitive,
)
from oblique import group
from oblique import fusion as fusion_module
from oblique.arith import prime_factors

from conftest import brute_all_subgroups


def perm(text, degree=None):
    p = Permutation.parse(text)
    return p if degree is None else p.extended(degree)


def _conjugate_set(elements, g):
    g_inv = g.inv()
    return frozenset((g_inv * Permutation(x) * g).images for x in elements)


# ---------------------------------------------------------------------------
# subgroup classes of a Sylow subgroup


def test_s4_subgroup_classes():
    G = PermGroup.symmetric(4)
    table = subgroup_classes_of_sylow(G, 2)
    assert len(table.subgroups) == 10
    assert len(table.s_classes) == 8
    # each class is the S-orbit of its representative, by brute conjugation
    S = [Permutation(s) for s in table.sylow.element_tuples()]
    sets = [H.element_set() for H in table.subgroups]
    for cls in table.s_classes:
        orbit = {_conjugate_set(sets[cls.rep_id], s) for s in S}
        assert cls.member_ids == sorted(i for i, X in enumerate(sets) if X in orbit)


def test_s_classes_form_no_witnesses(monkeypatch):
    # S-classes are read off the walks' keys; no conjugating element is formed
    calls = []
    witness = group._Walk.witness

    def counting_witness(walk, n):
        calls.append(n)
        return witness(walk, n)

    monkeypatch.setattr(group._Walk, "witness", counting_witness)
    table = subgroup_classes_of_sylow(PermGroup.symmetric(6), 2)
    assert len(table.s_classes) > 1
    assert calls == []


def test_subgroup_enumeration_matches_brute_force():
    for G in (PermGroup.symmetric(4), PermGroup.symmetric(6)):
        table = subgroup_classes_of_sylow(G, 2)
        assert {H.element_set() for H in table.subgroups} == brute_all_subgroups(table.sylow)
    assert len(table.subgroups) == 35


# ---------------------------------------------------------------------------
# G-fusion


def test_s4_fusion_classes():
    G = PermGroup.symmetric(4)
    table = fusion_table(G, 2)
    by_order = {}
    for cls in table.fusion_classes():
        key = table.subgroups[table.s_classes[cls[0]].rep_id].order
        by_order.setdefault(key, []).append(cls)
    # conjugation preserves cycle type, so <(1 3)> (a transposition) and
    # <(1 2)(3 4)> (a double transposition) are NOT fused in Sym(4)
    assert len(by_order[2]) == 2
    # the three S-classes of order-4 subgroups stay in separate fusion
    # classes too: the normal Klein group has only double transpositions,
    # the other Klein group contains transpositions, the third is cyclic
    assert sorted(len(c) for c in by_order[4]) == [1, 1, 1]


def test_fusion_witnesses_verify():
    for G, p in (
        (PermGroup.symmetric(4), 2),
        (PermGroup.alternating(5), 2),
        (PermGroup.symmetric(3), 3),
    ):
        table = fusion_table(G, p)
        for (i, j), g in table.g_fusion.items():
            assert G.contains(g)
            rep_i = table.subgroups[table.s_classes[i].rep_id]
            rep_j = table.subgroups[table.s_classes[j].rep_id]
            assert rep_i.conjugated(g).same_group(rep_j)


def test_fusion_classes_partition_s_classes(corpus):
    for name in ("S4", "A5", "S3wrC2", "A6"):
        G = corpus[name]
        table = fusion_table(G, 2)
        covered = sorted(i for cls in table.fusion_classes() for i in cls)
        assert covered == list(range(len(table.s_classes)))
        # S-conjugate subgroups land in the same fusion class
        for i, H in enumerate(table.subgroups):
            cid = table.class_of_subgroup[i]
            rid = table.class_of_subgroup[table.s_classes[cid].rep_id]
            assert table.fused(cid, rid)


def test_a6_fusion_matches_brute_conjugation():
    G = PermGroup.alternating(6)
    table = fusion_table(G, 2)
    group_elements = [Permutation(t) for t in G.element_tuples()]
    reps = [table.subgroups[c.rep_id] for c in table.s_classes]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i].order != reps[j].order:
                continue
            target = reps[j].element_set()
            source = reps[i].element_set()
            brute_fused = any(
                _conjugate_set(source, g) == target for g in group_elements
            )
            assert table.fused(i, j) == brute_fused, (i, j)


def test_one_g_walk_per_representative_serves_fusion_and_normalizers(monkeypatch):
    G = PermGroup.symmetric(6)
    walks, enumerated = [], []
    walk, element_tuples = group._conjugation_walk, group.StabilizerChain.element_tuples

    def counting_walk(ambient, A, *args, **kwargs):
        if ambient is G:
            walks.append(A.element_set())
        return walk(ambient, A, *args, **kwargs)

    def counting_element_tuples(chain):
        out = element_tuples(chain)
        enumerated.append(len(out))
        return out

    monkeypatch.setattr(group, "_conjugation_walk", counting_walk)
    monkeypatch.setattr(fusion_module, "_conjugation_walk", counting_walk)
    monkeypatch.setattr(group.StabilizerChain, "element_tuples", counting_element_tuples)
    table = fusion_table(G, 2)
    ok, _, table = alperin_closure_check(G, 2, table=table)
    assert ok
    reps = [table.subgroups[c.rep_id] for c in table.s_classes]
    assert len(walks) == len(set(walks)) == len(reps) - 1 == 26
    assert set(walks) == {P.element_set() for P in reps if not P.is_trivial()}
    # the normalizers filter G's one cached element list, and nothing else
    # enumerates as many elements
    assert enumerated.count(G.order) == 1 and max(enumerated) == G.order
    assert G._table is None


def test_fusion_conjugates_each_element_once_per_generator(monkeypatch):
    # each (element, generator) pair of a group is conjugated once, into that
    # group's memo; the Sylow subgroup is found first, so that only the walks
    # are counted
    G = PermGroup.symmetric(6)
    S = sylow(G, 2)
    monkeypatch.setattr(fusion_module, "sylow", lambda *args, **kwargs: S)
    calls, conj = [], group._conj
    monkeypatch.setattr(group, "_conj", lambda x, g, g_inv: calls.append((x, g)) or conj(x, g, g_inv))
    fusion_table(G, 2)
    bound = len(G._memo.elements) * len(G.generators) + len(S._memo.elements) * len(S.generators)
    assert 0 < len(calls) <= bound


def test_conjugation_memo_leaves_no_reference_cycle():
    G = PermGroup.symmetric(6)
    table = fusion_table(G, 2)
    memos = [G._memo, table.sylow._memo]
    # a memo holds only lists, dicts and tuples of ints: no group, and no
    # object that could lead back to one
    seen, todo = set(), [vars(m) for m in memos]
    while todo:
        obj = todo.pop()
        assert type(obj) in (int, tuple, list, dict, str, type(None)), type(obj)
        if id(obj) not in seen:
            seen.add(id(obj))
            todo.extend(gc.get_referents(obj))
    # so dropping the table frees G and both memos without a collection
    refs = [weakref.ref(obj) for obj in (G, table.sylow, *memos)]
    gc.collect()
    gc.disable()
    try:
        del G, table, memos
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# automizers


def test_automizer_examples():
    G = PermGroup.symmetric(4)
    V4 = PermGroup(4, [perm("(1 2)(3 4)"), perm("(1 3)(2 4)")])
    assert automizer(G, V4).order == 6
    T = PermGroup(4, [perm("(1 2)", 4)])
    assert automizer(G, T).order == 1
    assert automizer(G, PermGroup.trivial(4)).order == 1


def test_s_class_size_is_the_index_of_the_s_normalizer(corpus):
    for name, G in corpus.items():
        for p in prime_factors(G.order):
            table = subgroup_classes_of_sylow(G, p)
            S = table.sylow
            if S.order > 64:
                continue
            for cls in table.s_classes:
                for m in cls.member_ids:
                    assert normalizer(S, table.subgroups[m]).order * len(cls.member_ids) == S.order, (name, p, m)


def test_automizer_order_constraints():
    for G, p in ((PermGroup.symmetric(4), 2), (PermGroup.alternating(5), 2)):
        table = fusion_table(G, p)
        S = table.sylow
        for i, aut in enumerate(table.automizers):
            P = table.subgroups[table.s_classes[i].rep_id]
            NG = normalizer(G, P)
            CG = centralizer(G, P)
            assert aut.order == NG.order // intersection(NG, CG).order
            NS = normalizer(S, P)
            CS = centralizer(S, P)
            s_automizer = NS.order // intersection(NS, CS).order
            assert aut.order % s_automizer == 0


# ---------------------------------------------------------------------------
# Alperin factorization


def test_alperin_holds_on_corpus_instances(corpus):
    cases = [
        ("S4", 2),
        ("S5", 2),
        ("A5", 2),
        ("A6", 2),
        ("S3wrC2", 2),
        ("S3wrC2", 3),
        ("A4xC2", 2),
        ("D6", 2),
    ]
    for name, p in cases:
        G = corpus[name]
        ok, chains, table = alperin_closure_check(G, p)
        assert ok, (name, p)
        # every produced chain composes to a verified fusion witness
        for (i, j), moves in chains.items():
            total = G.identity()
            for move in moves:
                total = total * move.element
            base = table.subgroups[table.s_classes[i].rep_id]
            rep = table.subgroups[table.s_classes[j].rep_id]
            assert base.conjugated(total).same_group(rep), (name, p, i, j)


def test_alperin_fails_with_only_the_sylow_normalizer(corpus):
    # N_G(S) alone controls fusion in A5 (its Sylow 2-subgroup is abelian)
    # but not in S4 or S5, where fusion of subgroups of order 2 needs the
    # automizer of a smaller fully normalized subgroup
    for name, p, holds in (("S4", 2, False), ("S5", 2, False), ("A5", 2, True)):
        table = fusion_table(corpus[name], p)
        s_id = next(i for i, H in enumerate(table.subgroups) if H.order == table.sylow.order)
        table.fully_normalized = [s_id] * len(table.fully_normalized)
        assert alperin_closure_check(corpus[name], p, table=table)[0] == holds, name


def test_alperin_trivial_when_sylow_normal():
    G = PermGroup.dihedral(6)  # the Sylow 3-subgroup is normal
    ok, chains, table = alperin_closure_check(G, 3)
    assert ok
    assert len(table.fusion_classes()) == len(table.s_classes)


# ---------------------------------------------------------------------------
# p'-kernel invariance


def test_p_prime_kernel_invariance_examples():
    S3 = PermGroup.symmetric(3)
    assert p_prime_kernel_invariance(S3, 2)  # kernel is Alt(3)
    G = direct_product(PermGroup.symmetric(3), PermGroup.cyclic(3))
    assert p_prime_kernel_invariance(G, 2)
    # trivial kernel: nothing to quotient, invariance is immediate
    assert p_prime_kernel_invariance(PermGroup.symmetric(4), 2)
    assert p_prime_kernel_invariance(
        wreath_imprimitive(PermGroup.symmetric(3), 2, PermGroup.cyclic(2)), 2
    )
