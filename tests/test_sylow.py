"""Sylow subgroups against the raw-tuple oracles.

Groups of order at most 5000 get their Sylow subgroups from the in-house
growth in ``group._grow_sylow``; larger ones from the sympy backend. Either
way the answer must be a p-subgroup of full p-part, and must not depend on
any random state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oblique.group
from oblique import PermGroup, affine_semidirect, sylow
from oblique.arith import p_part
from oblique.perm import Permutation

from conftest import _compose, brute_closure

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def is_p_element(x, p):
    """Whether the order of x, found by repeated multiplication, is a power of p."""
    ident = tuple(range(len(x)))
    order, y = 1, x
    while y != ident:
        y = _compose(y, x)
        order += 1
    while order % p == 0:
        order //= p
    return order == 1


def assert_sylow(G, p, S):
    elements = brute_closure(G.degree, [g.images for g in G.generators])
    gens = [g.images for g in S.generators]
    assert all(g in elements for g in gens)
    closure = brute_closure(G.degree, gens)
    assert len(closure) == S.order == p_part(len(elements), p)
    assert all(is_p_element(x, p) for x in closure)


def cycle_matrix(n):
    return [[int(r == (c + 1) % n) for c in range(n)] for r in range(n)]


@pytest.fixture
def backend_calls(monkeypatch):
    calls = []
    real = oblique.group._backend

    def recording(sgroup, method, *args):
        calls.append(method)
        return real(sgroup, method, *args)

    monkeypatch.setattr(oblique.group, "_backend", recording)
    return calls


@st.composite
def group_and_prime(draw, max_degree=7, max_gens=3):
    n = draw(st.integers(1, max_degree))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=max_gens))
    order = len(brute_closure(n, gens))
    p = draw(st.sampled_from([q for q in (2, 3, 5, 7) if order % q == 0] or [2]))
    return n, gens, p


@SETTINGS
@given(group_and_prime())
def test_sylow_is_a_full_p_subgroup(case):
    n, gens, p = case
    G = PermGroup(n, [Permutation(g) for g in gens])
    assert_sylow(G, p, sylow(G, p))


@SETTINGS
@given(group_and_prime(), st.integers(0, 2**32))
def test_sylow_ignores_the_global_random_state(case, seed):
    n, gens, p = case
    found = []
    for state in (seed, seed + 1):
        random.seed(state)
        found.append(sylow(PermGroup(n, [Permutation(g) for g in gens]), p).generators)
    assert found[0] == found[1]


def test_sylow_of_corpus_groups(corpus, backend_calls):
    for name, G in corpus.items():
        for p in (2, 3, 5, 7):
            if G.order % p == 0:
                assert_sylow(G, p, sylow(G, p))
    assert backend_calls == []


@pytest.mark.parametrize("p, d", [(2, 6), (3, 4)])
def test_sylow_of_affine_groups_is_in_house(p, d, backend_calls):
    G = affine_semidirect(p, d, [cycle_matrix(d)])
    S = sylow(G, p)
    assert_sylow(G, p, S)
    assert backend_calls == []
    assert S.generators == sylow(affine_semidirect(p, d, [cycle_matrix(d)]), p).generators


def test_sylow_above_the_limit_uses_the_backend_deterministically(backend_calls):
    G = PermGroup.symmetric(7)
    assert G.order == 5040 > oblique.group._BRUTE_SEARCH_LIMIT
    found = []
    for state in (0, 1):
        random.seed(state)
        S = sylow(PermGroup.symmetric(7), 2)
        assert_sylow(G, 2, S)
        found.append(S.generators)
    assert backend_calls == ["sylow_subgroup", "sylow_subgroup"]
    assert found[0] == found[1]
