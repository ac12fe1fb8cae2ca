"""The incremental stabilizer chain against the raw-tuple oracles.

Hypothesis draws small generator sets (at most 6 points, so Sym(n) can be
listed in full); ``derandomize=True`` makes every run draw the same examples.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from oblique import PermGroup, normal_closure
from oblique.group import StabilizerChain
from oblique.perm import Permutation

from conftest import _compose, brute_closure

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def _perms(n):
    return st.permutations(range(n)).map(tuple)


@st.composite
def generator_sets(draw, max_degree=6, max_gens=4):
    n = draw(st.integers(1, max_degree))
    return n, draw(st.lists(_perms(n), max_size=max_gens))


def _inverse(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


@SETTINGS
@given(generator_sets(), st.data())
def test_extend_one_generator_at_a_time_matches_brute_closure(gens_on, data):
    n, gens = gens_on
    shuffled = data.draw(st.permutations(gens))
    chain = StabilizerChain(n, [])
    added = []
    for g in shuffled:
        already = g in brute_closure(n, added)
        assert chain.extend(g) is not already
        added.append(g)
    closure = brute_closure(n, gens)
    assert chain.order == len(closure) == StabilizerChain(n, gens).order
    assert set(chain.element_tuples()) == closure
    outside = []
    for x in itertools.permutations(range(n)):
        assert chain.contains(x) == (x in closure)
        if x in closure:
            assert chain.extend(x) is False
        else:
            outside.append(x)
    assert chain.order == len(closure)
    if outside:
        assert chain.extend(outside[0]) is True
        assert chain.order == len(brute_closure(n, gens + [outside[0]]))


@SETTINGS
@given(generator_sets(), st.data())
def test_cached_inverses_invert_the_transversals(gens_on, data):
    n, gens = gens_on
    chain = StabilizerChain(n, data.draw(st.permutations(gens)))
    ident = tuple(range(n))
    for b, t, inv in zip(chain.base, chain.transversals, chain.inverses):
        assert t.keys() == inv.keys()
        for p, u in t.items():
            assert u[b] == p
            assert _compose(u, inv[p]) == ident


@SETTINGS
@given(generator_sets(max_degree=5), st.data())
def test_normal_closure_matches_closure_of_conjugates(gens_on, data):
    n, gens = gens_on
    G = PermGroup(n, [Permutation(g) for g in gens])
    elements = sorted(brute_closure(n, gens))
    x = data.draw(st.sampled_from(elements))
    conjugates = {_compose(_compose(_inverse(g), x), g) for g in elements}
    N = normal_closure(G, [Permutation(x)])
    assert N.element_set() == brute_closure(n, sorted(conjugates))
    assert N.chain.order == N.order == len(N.element_set())


@SETTINGS
@given(generator_sets(), st.data())
def test_forced_prefix_begins_the_base(gens_on, data):
    n, gens = gens_on
    prefix = data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, n))]
    chain = StabilizerChain(n, gens, forced_prefix=prefix)
    assert chain.base[: len(prefix)] == list(prefix)
    assert chain.order == len(brute_closure(n, gens))


@SETTINGS
@given(generator_sets(max_degree=5))
def test_graph_chain_has_only_domain_base_points(gens_on):
    """The graph of the sign map G -> S2 moves a domain point in every
    non-identity element, and domain points come first, so the default chain
    (first moved point) has domain base points only, which
    ``GroupHom.apply`` relies on."""
    n, gens = gens_on

    def sign_image(g):
        odd = sum(1 for i in range(n) for j in range(i + 1, n) if g[i] > g[j]) % 2
        return (n + 1, n) if odd else (n, n + 1)

    pairs = [g + sign_image(g) for g in gens]
    chain = StabilizerChain(n + 2, pairs)
    assert chain.order == len(brute_closure(n, gens))
    assert all(b < n for b in chain.base)
