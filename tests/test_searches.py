"""Centralizers, normalizers, intersections and conjugation walks against the
raw-tuple oracles.

The conjugation walk steps on element indices; a walk on image tuples kept
here is its reference.

Centralizers and intersections of groups of order at most 5000 filter the
group's element list. A normalizer is read off the conjugation walk at every
order, and its elements are sorted into G's element order without listing
G. Besides the element set, each answer's generators must be the greedy
sequence over ``G.element_tuples()``: every passing element that is not
generated by the ones kept before it. Report bytes depend on that sequence.
Hypothesis draws groups on at most 7 points; ``derandomize=True`` makes every
run draw the same examples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oblique import (
    CapExceeded,
    Caps,
    PermGroup,
    Permutation,
    centralizer,
    conjugacy_classes,
    conjugating_element,
    fusion_table,
    intersection,
    normalizer,
    sylow,
)
from oblique import group
from oblique.group import _conjugation_walk

from conftest import _compose, brute_all_subgroups, brute_closure

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=30)
CAP_FACTORS = (1, 2, 5, 10**6)  # node caps, as multiples of |A|


def _inverse(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def _conj(x, g):
    return _compose(_compose(_inverse(g), x), g)


def greedy_generators(degree, elements):
    """Each element that is not in the closure of the ones kept before it."""
    kept, closure = [], {tuple(range(degree))}
    for e in elements:
        if e not in closure:
            kept.append(e)
            closure = brute_closure(degree, kept)
    return kept


def assert_filtered(found, G, passing):
    """``found`` holds exactly the elements of G that pass, with greedy generators."""
    want = [e for e in G.element_tuples() if passing(e)]
    assert found.order == len(want)
    assert set(found.element_tuples()) == set(want)
    assert [g.images for g in found.generators] == greedy_generators(G.degree, want)


def check_searches(G, H, x):
    """normalizer, centralizer (of H and of x) and intersection against set oracles."""
    g_elems = brute_closure(G.degree, [g.images for g in G.generators])
    h_elems = brute_closure(G.degree, [g.images for g in H.generators])
    h_gens = [g.images for g in H.generators]
    if H.is_trivial():  # no search: the answer is G itself
        assert normalizer(G, H) is G and centralizer(G, H) is G
    else:
        assert_filtered(normalizer(G, H), G, lambda e: all(_conj(h, e) in h_elems for h in h_gens))
        assert_filtered(centralizer(G, H), G, lambda e: all(_compose(e, h) == _compose(h, e) for h in h_elems))
    assert_filtered(centralizer(G, Permutation(x)), G, lambda e: _compose(e, x) == _compose(x, e))
    # intersection filters the smaller group's elements by the larger's chain
    C = PermGroup(G.degree, [Permutation(x)])
    c_elems = brute_closure(G.degree, [x])
    for A, B in ((H, C), (C, H)):
        small = A if A.order <= B.order else B
        found = intersection(A, B)
        assert set(found.element_tuples()) == h_elems & c_elems
        assert_filtered(found, small, lambda e: e in h_elems and e in c_elems)
    assert g_elems >= set(normalizer(G, H).element_tuples()) >= h_elems


@st.composite
def group_subgroup_element(draw, max_degree=7):
    n = draw(st.integers(2, max_degree))
    perms = st.permutations(range(n)).map(tuple)
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    elems = sorted(brute_closure(n, gens))
    pick = st.sampled_from(elems)
    h_gens = draw(st.lists(pick, min_size=1, max_size=2))
    return PermGroup(n, [Permutation(g) for g in gens]), PermGroup(n, [Permutation(h) for h in h_gens]), draw(pick)


@SETTINGS
@given(group_subgroup_element())
def test_searches_match_set_oracles(case):
    check_searches(*case)


def test_searches_match_set_oracles_on_corpus(corpus):
    for name, G in corpus.items():
        if G.order > 720:
            continue
        for p in (2, 3):
            S = sylow(G, p)
            check_searches(G, S, G.generators[0].images)
            # every subgroup Q of S: small Qs have long G-orbits, and many
            # have N_G(Q) > Q
            for q_elems in brute_all_subgroups(S):
                q_gens = greedy_generators(G.degree, sorted(q_elems))
                Q = PermGroup(G.degree, [Permutation(q) for q in q_gens])
                if Q.is_trivial():
                    assert normalizer(G, Q) is G
                    continue
                assert_filtered(normalizer(G, Q), G, lambda e: all(_conj(q, e) in q_elems for q in q_gens))


S7_SUBGROUPS = [
    ["(1 2)"],
    ["(1 2 3)"],
    ["(1 2)(3 4)", "(1 3)(2 4)"],
    ["(1 2 3 4)", "(1 3)"],
    ["(1 2 3)", "(3 4 5)"],
    ["(1 2 3 4 5 6 7)"],
    ["(1 2)(3 4 5)", "(6 7)"],
]


def test_normalizers_above_the_search_limit_are_those_of_the_element_filter(monkeypatch):
    """S7 has more than ``_BRUTE_SEARCH_LIMIT`` elements; its normalizers are
    still read off the conjugation walk, with no sympy call and without listing
    S7, and have the element filter's element list and greedy generators."""
    calls = []
    monkeypatch.setattr(group, "_backend", lambda *args: calls.append(args))
    G = PermGroup.symmetric(7)
    assert G.order > group._BRUTE_SEARCH_LIMIT
    found = []
    for cycles in S7_SUBGROUPS:
        h_gens = [Permutation.parse(c, 7).images for c in cycles]
        found.append((normalizer(G, PermGroup(7, [Permutation(h) for h in h_gens])), h_gens))
    assert calls == [] and G._elements is None
    for N, h_gens in found:
        h_elems = brute_closure(7, h_gens)

        def passing(e):
            return all(_conj(h, e) in h_elems for h in h_gens)

        assert N.element_tuples() == [e for e in G.element_tuples() if passing(e)]
        assert_filtered(N, G, passing)


def test_element_filter_generators_are_those_of_extending_by_every_element(corpus):
    """The element filter stops extending its chain once the chain holds every
    kept element; the generators are still those of extending it by each kept
    element in turn, for the centralizer of every class representative and
    the normalizer of the cyclic subgroup it generates."""
    for name, G in corpus.items():
        if G.order > 720:
            continue
        for rep, _ in conjugacy_classes(G)[1:]:
            for found in (centralizer(G, rep), normalizer(G, PermGroup(G.degree, [rep]))):
                chain = group.StabilizerChain(G.degree, [])
                assert [g.images for g in found.generators] == [e for e in found._elements if chain.extend(e)], name


def test_normalizer_lists_no_element_of_g_and_caps_the_elements_of_n(monkeypatch):
    def H():
        return PermGroup(6, [Permutation.parse("(1 2)", 6)])

    G = PermGroup.symmetric(6)
    assert normalizer(G, H()).order == 48 and G._elements is None
    # the cap is checked against |N| once the walk has found it, before N's
    # elements are listed
    listed, element_tuples = [], group.StabilizerChain.element_tuples
    monkeypatch.setattr(
        group.StabilizerChain, "element_tuples", lambda chain: listed.append(chain.order) or element_tuples(chain)
    )
    with pytest.raises(CapExceeded) as err:
        normalizer(PermGroup.symmetric(6), H(), Caps(order_enum=47))
    assert str(err.value) == "cap order_enum=47 exceeded (needed 48)"
    assert listed == [2]  # H's elements, for the walk


# ---------------------------------------------------------------------------
# conjugation walks


def pairwise_walk(G, A, B, caps=Caps()):
    """The one-target walk as a separate reference: BFS over the G-orbit of
    A's element set, returning at the first discovery of B's."""
    start = frozenset(A.element_tuples())
    target = frozenset(B.element_tuples())
    if start == target:
        return G.identity()
    node_cap = max(1, caps.order_enum // max(1, A.order))
    witnesses = {start: G.identity()}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for g in G.generators:
                image = frozenset(_conj(x, g.images) for x in node)
                if image not in witnesses:
                    witnesses[image] = witnesses[node] * g
                    if image == target:
                        return witnesses[image]
                    if len(witnesses) > node_cap:
                        raise CapExceeded("order_enum", caps.order_enum, len(witnesses) * A.order)
                    nxt.append(image)
        frontier = nxt
    return None


@pytest.mark.parametrize("name, p", [("S4", 2), ("A5", 2), ("S5", 2), ("S3wrC2", 3), ("C2wrS3", 2), ("A6", 3)])
def test_fusion_walk_matches_brute_fusion_and_pairwise_witnesses(corpus, name, p):
    G = corpus[name]
    table = fusion_table(G, p)
    reps = [table.subgroups[c.rep_id] for c in table.s_classes]
    sets = [frozenset(r.element_tuples()) for r in reps]
    g_elems = brute_closure(G.degree, [g.images for g in G.generators])
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if reps[i].order != reps[j].order:
                assert (i, j) not in table.g_fusion
                continue
            fused = any(frozenset(_conj(x, g) for x in sets[i]) == sets[j] for g in g_elems)
            assert ((i, j) in table.g_fusion) == fused, (name, i, j)
            w = table.g_fusion.get((i, j))
            assert w == conjugating_element(G, reps[i], reps[j]) == pairwise_walk(G, reps[i], reps[j])


def test_walk_node_cap_matches_pairwise_reference():
    G = PermGroup.symmetric(6)
    subgroups = [PermGroup(6, [Permutation.parse(t, 6)]) for t in ("(1 2)", "(5 6)", "(3 4)", "(1 6)", "(1 2)(3 4)")]
    A, targets = subgroups[0], subgroups[1:]
    for order_enum in (2, 6, 10, 16, 30, 40, 10**6):
        caps = Caps(order_enum=order_enum)
        want = []
        for B in targets:
            try:
                want.append(pairwise_walk(G, A, B, caps))
            except CapExceeded as err:
                want.append(str(err))
            try:
                got = conjugating_element(G, A, B, caps)
            except CapExceeded as err:
                got = str(err)
            assert got == want[-1], (order_enum, B)
        # one walk for all targets raises exactly when some one-target walk does
        errors = [w for w in want if isinstance(w, str)]
        try:
            walked = _conjugation_walk(G, A, [B.element_set() for B in targets], caps)
            got = [walked.get(B.element_set()) for B in targets]
        except CapExceeded as err:
            got = str(err)
        assert got == (errors[0] if errors else want), order_enum


def test_walk_without_targets_is_the_brute_orbit(corpus):
    for name, G in corpus.items():
        if G.order > 720:
            continue
        g_elems = brute_closure(G.degree, [g.images for g in G.generators])
        for A in (sylow(G, 2), sylow(G, 3), PermGroup(G.degree, [G.generators[0]])):
            start = frozenset(A.element_tuples())
            walked = _conjugation_walk(G, A)
            assert set(walked) == {frozenset(_conj(x, g) for x in start) for g in g_elems}, name
            for image, w in walked.items():
                assert frozenset(_conj(x, w.images) for x in start) == image, name


def reference_walk(G, A, targets=None, caps=Caps()):
    """The conjugation walk on image tuples: ``({element set: witness images},
    edges)``, keys in the order found, each edge (witness images of the node,
    generator images, element set reached) for a step to a known key."""
    start = frozenset(A.element_tuples())
    witnesses = {start: tuple(range(G.degree))}
    missing = None if targets is None else set(targets) - {start}
    node_cap = max(1, caps.order_enum // max(1, A.order))
    edges = []
    queue = [start] if missing is None or missing else []
    for node in queue:
        w = witnesses[node]
        for g in G.generators:
            image = frozenset(_conj(x, g.images) for x in node)
            if image in witnesses:
                edges.append((w, g.images, image))
                continue
            witnesses[image] = _compose(w, g.images)
            if missing is not None:
                missing.discard(image)
                if not missing:
                    return witnesses, edges
            if len(witnesses) > node_cap:
                raise CapExceeded("order_enum", caps.order_enum, len(witnesses) * A.order)
            queue.append(image)
    return witnesses, edges


def assert_walk_matches_reference(G, A, targets=None):
    """Keys in walk order, witnesses, non-tree edges in order, and the node-cap
    raise point all equal the tuple walk's."""
    gens = [g.images for g in G.generators]
    for factor in CAP_FACTORS:
        caps = Caps(order_enum=max(1, factor * A.order))
        try:
            want, want_edges = reference_walk(G, A, targets, caps)
        except CapExceeded as err:
            with pytest.raises(CapExceeded) as got:
                _conjugation_walk(G, A, targets, caps, edges=[])
            assert str(got.value) == str(err)
            continue
        edges = []
        walked = _conjugation_walk(G, A, targets, caps, edges=edges)
        keys = list(walked)
        assert keys == list(want)
        assert [w.images for _, w in walked.items()] == list(want.values())
        assert [(walked.witness(n), gens[k], keys[m]) for n, k, m in edges] == want_edges
        if targets is not None:
            assert [walked.get(t) for t in targets] == [
                None if want.get(t) is None else Permutation(want[t]) for t in targets
            ]


@SETTINGS
@given(group_subgroup_element())
def test_index_walk_matches_tuple_walk(case):
    G, H, x = case
    X = PermGroup(G.degree, [Permutation(x)])
    assert_walk_matches_reference(G, H)
    assert_walk_matches_reference(G, X)
    assert_walk_matches_reference(G, X, [H.element_set()] + [X.conjugated(g).element_set() for g in G.generators[-1:]])


def test_index_walk_matches_tuple_walk_on_corpus(corpus):
    for name, G in corpus.items():
        if G.order > 720:
            continue
        subgroups = [sylow(G, 2), sylow(G, 3), PermGroup(G.degree, [G.generators[0]])]
        for A in subgroups:
            assert_walk_matches_reference(G, A)
            assert_walk_matches_reference(G, A, [B.element_set() for B in subgroups if B.order == A.order])


def test_conjugating_element_into_a_set_outside_the_group_is_none():
    A4 = PermGroup.alternating(4)
    A = PermGroup(4, [Permutation.parse("(1 2)(3 4)", 4)])
    outside = PermGroup(4, [Permutation.parse("(1 2)", 4)])
    assert conjugating_element(A4, A, outside) is None
    # the walk gave the outside elements indices; later walks are unaffected
    B = PermGroup(4, [Permutation.parse("(1 3)(2 4)", 4)])
    w = conjugating_element(A4, A, B)
    assert A.conjugated(w).same_group(B)
    assert conjugating_element(A4, A, outside) is None
