import re
from itertools import product

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oblique import (
    GroupHom,
    NotAHomomorphism,
    PermGroup,
    Permutation,
    direct_product,
    quotient_action,
)
from oblique.group import StabilizerChain

from conftest import _compose, brute_closure, chain_fields


def perm(text, degree=None):
    p = Permutation.parse(text)
    return p if degree is None else p.extended(degree)


def sign_hom():
    S3 = PermGroup.symmetric(3)
    C2 = PermGroup.cyclic(2)
    flip = C2.generators[0]
    # generators of Sym(3): (1 2) and (1 2 3); sign sends them to -1, +1
    images = []
    for g in S3.generators:
        images.append(flip if g.cycle_type() == (2,) else Permutation.identity(2))
    return GroupHom(S3, C2, images)


def test_certificate_rejects_non_homomorphism():
    S3 = PermGroup.symmetric(3)
    C2 = PermGroup.cyclic(2)
    flip = C2.generators[0]
    with pytest.raises(NotAHomomorphism):
        GroupHom(S3, C2, [flip for _ in S3.generators])


def test_apply_and_kernel_of_sign():
    hom = sign_hom()
    assert hom.apply(perm("(1 2)", 3)) == PermGroup.cyclic(2).generators[0]
    assert hom.apply(perm("(1 2 3)")).is_identity()
    K = hom.kernel()
    assert K.order == 3
    assert K.same_group(PermGroup.alternating(3))
    assert hom.is_surjective()


def test_image_and_lift():
    hom = sign_hom()
    flip = PermGroup.cyclic(2).generators[0]
    x = hom.lift(flip)
    assert hom.apply(x) == flip
    assert hom.image().order == 2


def test_lift_outside_image_raises():
    S3 = PermGroup.symmetric(3)
    C6 = PermGroup.cyclic(6)
    # embed the sign into C6 (image has order 2)
    g = C6.generators[0] ** 3
    images = [g if h.cycle_type() == (2,) else Permutation.identity(6) for h in S3.generators]
    hom = GroupHom(S3, C6, images)
    assert not hom.is_surjective()
    with pytest.raises(ValueError):
        hom.lift(C6.generators[0])


def test_preimage_group():
    S4 = PermGroup.symmetric(4)
    V4 = PermGroup(4, [perm("(1 2)(3 4)"), perm("(1 3)(2 4)")])
    Q, hom = quotient_action(S4, V4)
    full = hom.preimage_group(Q)
    assert full.same_group(S4)
    back = hom.preimage_group(PermGroup.trivial(Q.degree))
    assert back.same_group(V4)


def test_image_of_group():
    S4 = PermGroup.symmetric(4)
    A4 = PermGroup.alternating(4)
    Q, hom = quotient_action(S4, A4)
    assert hom.image_of_group(A4).order == 1
    assert hom.image_of_group(S4).order == 2


def test_composition():
    S4 = PermGroup.symmetric(4)
    A4 = PermGroup.alternating(4)
    V4 = PermGroup(4, [perm("(1 2)(3 4)"), perm("(1 3)(2 4)")])
    _, to_s3 = quotient_action(S4, V4)
    Q3, to_c2 = quotient_action(to_s3.codomain, to_s3.image_of_group(A4))
    both = GroupHom(S4, to_c2.codomain, [to_c2.apply(to_s3.apply(g)) for g in S4.generators])
    assert both.kernel().same_group(A4)
    assert Q3.order == 2


def test_apply_agrees_on_random_products():
    hom = sign_hom()
    S3 = [Permutation(x) for x in PermGroup.symmetric(3).element_tuples()]
    for a in S3:
        for b in S3:
            assert hom.apply(a * b) == hom.apply(a) * hom.apply(b)


# ---------------------------------------------------------------------------
# the certificate against a raw-tuple oracle


def extends_to_hom(G, codomain_degree, image_tuples):
    """Whether g_i -> y_i extends to a homomorphism, on raw tuples: walk G's
    Cayley graph from 1 -> 1, sending x g_i to f(x) y_i, and report whether
    an element is ever reached with two different images."""
    f = {tuple(range(G.degree)): tuple(range(codomain_degree))}
    frontier = list(f)
    while frontier:
        nxt = []
        for x in frontier:
            for g, y in zip(G.generators, image_tuples):
                xg, fy = _compose(x, g.images), _compose(f[x], y)
                if xg not in f:
                    f[xg] = fy
                    nxt.append(xg)
                elif f[xg] != fy:
                    return False
        frontier = nxt
    return True


def _check_certificate(G, H, image_tuples):
    """GroupHom accepts exactly the assignments the oracle extends, and its
    refusal names the graph order and the domain order."""
    images = [Permutation(y) for y in image_tuples]
    if extends_to_hom(G, H.degree, image_tuples):
        hom = GroupHom(G, H, images)
        for g, y in zip(G.generators, images):
            assert hom.apply(g) == y
        return True
    dG = G.degree
    pairs = [g.images + tuple(dG + q for q in y) for g, y in zip(G.generators, image_tuples)]
    graph_order = len(brute_closure(dG + H.degree, pairs))
    with pytest.raises(NotAHomomorphism) as err:
        GroupHom(G, H, images)
    domain_order = len(brute_closure(dG, [g.images for g in G.generators]))
    assert re.search(rf"graph order {graph_order} != domain order {domain_order}\)$", str(err.value))
    return False


SMALL_CODOMAINS = {
    "C2": PermGroup.cyclic(2),
    "C3": PermGroup.cyclic(3),
    "C4": PermGroup.cyclic(4),
    "S3": PermGroup.symmetric(3),
    "C2xC2": direct_product(PermGroup.cyclic(2), PermGroup.cyclic(2)),
}


@pytest.fixture(scope="module")
def small_domains(corpus):
    return sorted((name, G) for name, G in corpus.items() if G.order <= 240)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_certificate_agrees_with_the_extension_oracle(small_domains, data):
    name, G = data.draw(st.sampled_from(small_domains), label="domain")
    H = SMALL_CODOMAINS[data.draw(st.sampled_from(sorted(SMALL_CODOMAINS)), label="codomain")]
    elements = sorted(H.element_tuples())
    image_tuples = [data.draw(st.sampled_from(elements)) for _ in G.generators]
    # a fresh copy, so an accepted map also sets the domain's chain
    G = PermGroup(G.degree, G.generators)
    event(str(_check_certificate(G, H, image_tuples)))


def test_certificate_on_every_assignment_into_small_codomains():
    """Every generator assignment of S3, C4, C2xC2 and D4 into S3, C4 and C2xC2;
    each domain has homomorphisms and non-homomorphisms among them."""
    domains = [PermGroup.symmetric(3), PermGroup.cyclic(4), SMALL_CODOMAINS["C2xC2"], PermGroup.dihedral(4)]
    for D in domains:
        outcomes = set()
        for H in (SMALL_CODOMAINS["S3"], SMALL_CODOMAINS["C4"], SMALL_CODOMAINS["C2xC2"]):
            for image_tuples in product(sorted(H.element_tuples()), repeat=len(D.generators)):
                G = PermGroup(D.degree, D.generators)
                outcomes.add(_check_certificate(G, H, image_tuples))
        assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the domain chain is the graph chain, cut


def test_certificate_sets_the_domain_chain_to_the_cut_graph_chain():
    S4 = PermGroup.symmetric(4)
    flip = PermGroup.cyclic(2).generators[0]
    G = PermGroup(4, S4.generators)
    hom = GroupHom(G, PermGroup.cyclic(2), [flip, flip])  # (1 2) and (1 2 3 4) are odd: the sign
    assert G._chain is not None
    assert chain_fields(G._chain) == chain_fields(StabilizerChain(4, [g.images for g in G.generators]))
    assert all(b < G.degree for b in hom._dom_chain.base)


def test_quotient_action_keeps_the_domain_chain_built_before():
    S4 = PermGroup.symmetric(4)
    V4 = PermGroup(4, [perm("(1 2)(3 4)"), perm("(1 3)(2 4)")])
    chain = S4.chain
    fields = chain_fields(chain)
    Q, hom = quotient_action(S4, V4)
    assert S4._chain is chain and chain_fields(chain) == fields
    assert hom.kernel().same_group(V4) and Q.order == 6
    # a non-homomorphism out of a group with a built chain is still refused
    flip = PermGroup.cyclic(2).generators[0]
    with pytest.raises(NotAHomomorphism, match=r"graph order 48 != domain order 24\)$"):
        GroupHom(S4, PermGroup.cyclic(2), [flip, Permutation.identity(2)])
    assert S4._chain is chain
