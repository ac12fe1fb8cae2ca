import pytest

from oblique import (
    CapExceeded,
    Caps,
    DegreeMismatch,
    NotASubgroup,
    NotNormal,
    PermGroup,
    Permutation,
    affine_semidirect,
    center,
    centralizer,
    conjugacy_classes,
    conjugating_element,
    derived_series,
    derived_subgroup,
    direct_product,
    intersection,
    is_nilpotent,
    lower_central_series,
    normal_closure,
    normalizer,
    quotient_action,
    sylow,
    wreath_imprimitive,
)
from oblique.arith import legendre_factorial_valuation, p_part

from conftest import brute_closure


def perm(text, degree=None):
    p = Permutation.parse(text)
    return p if degree is None else p.extended(degree)


# ---------------------------------------------------------------------------
# stabilizer chain vs brute force


def test_chain_order_matches_brute_closure(corpus):
    for name, G in corpus.items():
        if G.order > 5000:
            continue
        closure = brute_closure(G.degree, [g.images for g in G.generators])
        assert G.order == len(closure), name


def test_element_enumeration_is_exact(corpus):
    for name, G in corpus.items():
        if G.order > 400:
            continue
        elems = G.element_tuples()
        assert len(elems) == len(set(elems)) == G.order, name
        assert set(elems) == brute_closure(G.degree, [g.images for g in G.generators]), name


def test_membership(corpus):
    for name, G in corpus.items():
        if G.order > 2000:
            continue
        elements = G.element_tuples()
        for x in elements[:: max(1, len(elements) // 5)]:
            assert G.contains(Permutation(x)), name
        outside = Permutation.identity(G.degree + 1)
        with pytest.raises(DegreeMismatch):
            G.contains(outside)


def test_named_group_orders():
    assert PermGroup.symmetric(6).order == 720
    assert PermGroup.alternating(6).order == 360
    assert PermGroup.cyclic(12).order == 12
    assert PermGroup.dihedral(7).order == 14  # order 2n on n points
    assert PermGroup.trivial(3).order == 1


def test_lagrange_for_all_produced_subgroups(corpus):
    for name, G in corpus.items():
        for p in (2, 3, 5):
            assert G.order % sylow(G, p).order == 0, name
        D = derived_subgroup(G)
        assert G.order % D.order == 0, name


# ---------------------------------------------------------------------------
# conjugacy classes


def test_conjugacy_classes_of_sym4():
    sizes = sorted(size for _, size in conjugacy_classes(PermGroup.symmetric(4)))
    assert sizes == [1, 3, 6, 6, 8]


def test_conjugacy_classes_partition(corpus):
    for name, G in corpus.items():
        if G.order > 1000:
            continue
        classes = conjugacy_classes(G)
        assert sum(size for _, size in classes) == G.order, name
        for rep, _ in classes:
            assert G.contains(rep), name


def test_class_count_abelian_is_order():
    G = PermGroup.cyclic(12)
    assert len(conjugacy_classes(G)) == 12


# ---------------------------------------------------------------------------
# normal closure, derived and central series


def test_normal_closure_examples():
    S4 = PermGroup.symmetric(4)
    V4 = normal_closure(S4, [perm("(1 2)(3 4)", 4)])
    assert V4.order == 4
    S5 = PermGroup.symmetric(5)
    assert normal_closure(S5, [perm("(1 2 3)", 5)]).order == 60
    assert normal_closure(S5, [perm("(1 2)", 5)]).order == 120


def test_derived_series_sym4():
    orders = [H.order for H in derived_series(PermGroup.symmetric(4))]
    assert orders == [24, 12, 4, 1]


def test_lower_central_series_and_nilpotency():
    D8 = PermGroup.dihedral(4)
    assert is_nilpotent(D8)
    assert not is_nilpotent(PermGroup.symmetric(3))
    assert [H.order for H in lower_central_series(D8)] == [8, 2, 1]


# ---------------------------------------------------------------------------
# centralizer / normalizer / center


def test_centralizer_examples():
    S4 = PermGroup.symmetric(4)
    C = centralizer(S4, perm("(1 2)(3 4)", 4))
    assert C.order == 8
    assert all((g * perm("(1 2)(3 4)", 4)) == (perm("(1 2)(3 4)", 4) * g) for g in C.generators)


def test_normalizer_examples():
    S4 = PermGroup.symmetric(4)
    C4 = PermGroup(4, [perm("(1 2 3 4)")])
    N = normalizer(S4, C4)
    assert N.order == 8
    for g in N.generators:
        assert C4.conjugated(g).same_group(C4)


def test_normalizer_requires_subgroup():
    with pytest.raises(NotASubgroup):
        normalizer(PermGroup.alternating(4), PermGroup(4, [perm("(1 2)", 4)]))


def test_center_examples():
    assert center(PermGroup.symmetric(4)).order == 1
    assert center(PermGroup.dihedral(4)).order == 2
    assert center(PermGroup.cyclic(9)).order == 9


def test_normalizer_contains_centralizer(corpus):
    for name, G in corpus.items():
        if G.order > 500:
            continue
        S = sylow(G, 2)
        if S.is_trivial():
            continue
        N, C = normalizer(G, S), centralizer(G, S)
        assert C.is_subgroup_of(N), name


# ---------------------------------------------------------------------------
# sylow


def test_sylow_orders_match_prime_part(corpus):
    for name, G in corpus.items():
        for p in (2, 3, 5, 7):
            assert sylow(G, p).order == p_part(G.order, p), name


def test_sylow_of_symmetric_matches_legendre():
    import math

    for n in range(2, 13):
        G = PermGroup.symmetric(n)
        for p in (2, 3, 5, 7, 11):
            expected = p ** legendre_factorial_valuation(n, p)
            assert p_part(math.factorial(n), p) == expected
            assert sylow(G, p).order == expected


def test_sylow_rejects_composite():
    with pytest.raises(ValueError):
        sylow(PermGroup.symmetric(4), 6)


# ---------------------------------------------------------------------------
# quotients


def test_quotient_sym4_by_klein():
    S4 = PermGroup.symmetric(4)
    V4 = PermGroup(4, [perm("(1 2)(3 4)"), perm("(1 3)(2 4)")])
    Q, hom = quotient_action(S4, V4)
    assert Q.order == 6
    assert not Q.is_abelian()  # Sym(3)
    K = hom.kernel()
    assert K.same_group(V4)
    assert K.order * Q.order == S4.order


def test_quotient_self_and_index_two():
    S4 = PermGroup.symmetric(4)
    Q, _ = quotient_action(S4, S4)
    assert Q.order == 1
    A4 = PermGroup.alternating(4)
    Q2, _ = quotient_action(S4, A4)
    assert Q2.order == 2


def test_quotient_requires_normal():
    S4 = PermGroup.symmetric(4)
    with pytest.raises(NotNormal):
        quotient_action(S4, PermGroup(4, [perm("(1 2)", 4)]))


def test_quotient_kernel_elementwise(corpus):
    for name, G in corpus.items():
        if G.order > 500:
            continue
        N = derived_subgroup(G)
        Q, hom = quotient_action(G, N)
        assert Q.order * N.order == G.order, name
        assert hom.kernel().element_set() == N.element_set(), name


# ---------------------------------------------------------------------------
# products


def test_direct_product():
    G = direct_product(PermGroup.cyclic(2), PermGroup.cyclic(3))
    assert G.order == 6 and G.degree == 5 and G.is_abelian()


def test_wreath_product():
    W = wreath_imprimitive(PermGroup.cyclic(2), 2, PermGroup.cyclic(2))
    assert W.order == 8 and W.degree == 4
    assert not W.is_abelian()
    W2 = wreath_imprimitive(PermGroup.symmetric(3), 2, PermGroup.cyclic(2))
    assert W2.order == 72


def test_wreath_rejects_wrong_top_degree():
    with pytest.raises(DegreeMismatch):
        wreath_imprimitive(PermGroup.cyclic(2), 3, PermGroup.cyclic(2))


def test_affine_constructions():
    AGL22 = affine_semidirect(2, 2, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
    assert AGL22.order == 24 and AGL22.degree == 4
    translations_only = affine_semidirect(3, 2, [])
    assert translations_only.order == 9 and translations_only.is_abelian()


def test_affine_rejects_singular_matrix():
    with pytest.raises(ValueError, match=r"singular matrix over F_2: \[\[1, 1\], \[1, 1\]\]"):
        affine_semidirect(2, 2, [[[1, 1], [1, 1]]])


def reference_affine_generators(p, d, mats):
    """The generator image tuples of affine_semidirect(p, d, mats), identities
    dropped, by converting every point to its vector and back for every
    generator; raises as affine_semidirect does."""
    degree = p**d

    def to_vec(point):
        v = []
        for _ in range(d):
            v.append(point % p)
            point //= p
        return v

    def to_point(v):
        return sum((v[i] % p) * p**i for i in range(d))

    gens = []
    for i in range(d):
        images = []
        for pt in range(degree):
            v = to_vec(pt)
            v[i] = (v[i] + 1) % p
            images.append(to_point(v))
        gens.append(tuple(images))
    for mat in mats:
        if len(mat) != d or any(len(row) != d for row in mat):
            raise ValueError(f"matrix is not {d}x{d}: {mat}")
        images = []
        for pt in range(degree):
            v = to_vec(pt)
            images.append(to_point([sum(mat[r][c] * v[c] for c in range(d)) % p for r in range(d)]))
        if len(set(images)) != degree:
            raise ValueError(f"singular matrix over F_{p}: {mat}")
        gens.append(tuple(images))
    return [g for g in gens if g != tuple(range(degree))]


def _affine_matrices(p, d):
    """The identity, the cycle e_i -> e_(i+1), a matrix that permutes no basis
    (I + E_(0,d-1), or (p + 1) for d = 1) and minus a permutation matrix."""
    identity = [[int(r == c) for c in range(d)] for r in range(d)]
    cycle = [[int(r == (c + 1) % d) for c in range(d)] for r in range(d)]
    shear = [[int(r == c) + int((r, c) == (0, d - 1)) for c in range(d)] for r in range(d)] if d > 1 else [[p + 1]]
    negative = [[-x for x in row] for row in reversed(cycle)]
    return [identity, cycle, shear, negative] if d else [identity]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_affine_generators_match_the_vector_loops(p, d):
    mats = _affine_matrices(p, d)
    G = affine_semidirect(p, d, mats)
    assert G.degree == p**d
    assert [g.images for g in G.generators] == reference_affine_generators(p, d, mats)
    assert [g.images for g in affine_semidirect(p, d, []).generators] == reference_affine_generators(p, d, [])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_affine_singular_and_misshapen_matrices_raise_as_before(p, d):
    zero_row = [[0] * d] + [[int(r == c) for c in range(d)] for r in range(1, d)]
    multiple = [[p] * d] + _affine_matrices(p, d)[0][1:]  # first row is p times (1, ..., 1): zero mod p
    misshapen = [[1] * (d + 1)] * d
    for bad in (zero_row, multiple, misshapen):
        mats = [_affine_matrices(p, d)[1], bad]
        with pytest.raises(ValueError) as expected:
            reference_affine_generators(p, d, mats)
        with pytest.raises(ValueError) as got:
            affine_semidirect(p, d, mats)
        assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# intersections and conjugacy of subgroups


def test_intersection():
    S4 = PermGroup.symmetric(4)
    A4 = PermGroup.alternating(4)
    D8 = sylow(S4, 2)
    I = intersection(A4, D8)
    assert I.order == 4
    assert I.is_subgroup_of(A4) and I.is_subgroup_of(D8)


def test_conjugating_element_found_and_verified():
    S4 = PermGroup.symmetric(4)
    A = PermGroup(4, [perm("(1 2)", 4)])
    B = PermGroup(4, [perm("(3 4)", 4)])
    w = conjugating_element(S4, A, B)
    assert w is not None and S4.contains(w)
    assert A.conjugated(w).same_group(B)


def test_conjugating_element_certified_absent():
    S4 = PermGroup.symmetric(4)
    A = PermGroup(4, [perm("(1 2)", 4)])
    B = PermGroup(4, [perm("(1 2)(3 4)")])
    assert conjugating_element(S4, A, B) is None


# ---------------------------------------------------------------------------
# caps


def test_degree_cap():
    with pytest.raises(CapExceeded):
        PermGroup.trivial(10, caps=Caps(degree=5))


def test_cap_overrides():
    caps = Caps().with_overrides(degree=10, aut=None)
    assert caps.degree == 10 and caps.aut == 512
