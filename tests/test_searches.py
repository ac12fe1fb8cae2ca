"""Centralizers, normalizers, intersections and conjugation walks against the
raw-tuple oracles.

Groups of order at most 5000 are searched by filtering their element list
(a normalizer is found on the conjugation walk first, and the filter looks
elements up in it). Besides the element set, each answer's generators must
be the greedy sequence over ``G.element_tuples()``: every passing element
that is not generated by the ones kept before it. Report bytes depend on
that sequence.
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


def test_normalizer_checks_the_enumeration_cap_before_walking(monkeypatch):
    G = PermGroup.symmetric(6)
    H = PermGroup(6, [Permutation.parse("(1 2)", 6)])
    walks = []
    monkeypatch.setattr(group, "_conjugation_walk", lambda *args, **kwargs: walks.append(args))
    try:
        normalizer(G, H, Caps(order_enum=719))
    except CapExceeded as err:
        assert str(err) == "cap order_enum=719 exceeded (needed 720)"
    else:
        raise AssertionError("no CapExceeded")
    assert walks == []


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
