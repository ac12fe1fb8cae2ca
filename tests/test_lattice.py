import itertools
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oblique.group
import oblique.lattice
from oblique import (
    CapExceeded,
    Caps,
    NotASubgroup,
    PermGroup,
    Permutation,
    affine_semidirect,
    aut_group_small,
    c_invariant,
    center,
    component_orbit_check,
    components,
    conjugacy_classes,
    derived_subgroup,
    direct_product,
    fitting,
    frattini_normal,
    frattini_pgroup,
    generalized_fitting,
    intersection_of_small_normals,
    is_p_prime_normal,
    is_quasisimple,
    is_simple,
    is_soluble,
    layer,
    normal_lattice,
    ob_function,
    ob_star_function,
    oblique_core,
    pi_core,
    pi_residual,
    quotient_action,
    strong_oblique_core,
    sylow,
    tate_check,
    wreath_imprimitive,
    wreath_tower,
)
from oblique.arith import digit_sum, prime_factors
from oblique.caps import DEFAULT_CAPS
from oblique.group import _class_table
from oblique.lattice import _class_seeds, _fitting_product, all_subgroups, phi_lhd_height, pgroup_rank
from oblique.towers import _permutation_matrices, fitting_degenerate_tower

from conftest import _compose, brute_all_subgroups, brute_closure, brute_conjugacy_classes, brute_normal_subgroups


def _tuple_inverse(g):
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[v] = i
    return tuple(out)


def _tuple_conj(x, g, g_inv):
    # g^{-1} x g under left-to-right composition
    return tuple(g[x[g_inv[i]]] for i in range(len(g)))


def perm(text, degree=None):
    p = Permutation.parse(text)
    return p if degree is None else p.extended(degree)


# ---------------------------------------------------------------------------
# the lattice itself


def test_lattice_examples():
    assert sorted(normal_lattice(PermGroup.symmetric(4)).orders()) == [1, 4, 12, 24]
    assert sorted(normal_lattice(PermGroup.alternating(5)).orders()) == [1, 60]
    assert sorted(normal_lattice(PermGroup.cyclic(6)).orders()) == [1, 2, 3, 6]


def test_lattice_members_are_normal(corpus):
    for name, G in corpus.items():
        if G.order > 300:
            continue
        for m in normal_lattice(G).members:
            assert m.is_normal_in(G), name


def test_lattice_closed_under_join_and_meet(corpus):
    for name in ("S4", "D6", "C12", "C2wrC2", "S3xS3", "A4xC2", "C3wrC2", "AGL22"):
        G = corpus[name]
        lat = normal_lattice(G)
        for a in lat.members:
            for b in lat.members:
                join, meet = lat.join(a, b), lat.meet(a, b)
                lat.index_of(join)
                lat.index_of(meet)
                assert meet.element_set() == a.element_set() & b.element_set(), name
                gens = [g.images for g in a.generators + b.generators]
                assert join.element_set() == brute_closure(G.degree, gens), name


def test_index_of_rejects_non_normal_subgroup_of_normal_order():
    lat = normal_lattice(PermGroup.symmetric(4))
    with pytest.raises(NotASubgroup):
        lat.index_of(PermGroup(4, [perm("(1 2)", 4), perm("(3 4)", 4)]))


def test_cached_lattice_leaves_no_reference_cycle():
    # a cycle back to the group would keep it, and every lattice and element
    # list hanging off it, alive until a full garbage collection
    G = PermGroup.symmetric(5)
    assert phi_lhd_height(G) == 2 and len(components(G)) == 1
    ref = weakref.ref(G)
    del G
    assert ref() is None


def test_lattice_matches_brute_force_small(corpus):
    checked = 0
    for name, G in corpus.items():
        if G.order > 200:
            continue
        try:
            expected = brute_normal_subgroups(G, max_classes=20)
        except ValueError:
            gens = [g.images for g in G.generators]
            inverses = [_tuple_inverse(g) for g in gens]

            def is_normal(sub):
                return all(
                    _tuple_conj(x, g, gi) in sub
                    for x in sub
                    for g, gi in zip(gens, inverses)
                )

            expected = {sub for sub in brute_all_subgroups(G) if is_normal(sub)}
        got = {m.element_set() for m in normal_lattice(G).members}
        assert got == expected, name
        checked += 1
    assert checked >= 20


@st.composite
def _small_groups(draw):
    """Groups on 3 to 6 points. Each generator permutes some blocks of a
    split of the points, so that direct and subdirect products, whose normal
    subgroups are joins of several seeds, come up often. The choices come
    from a seeded Random: hypothesis's own draws lean to the identity."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(3, 6)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(n))
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            if rng.random() < 0.7:
                images[lo:hi] = rng.sample(images[lo:hi], hi - lo)
        gens.append(Permutation(tuple(images)))
    return PermGroup(n, gens)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_small_groups())
def test_lattice_of_random_groups_matches_brute_normal_subgroups(G):
    """Seeds and joins are closed at class level: the members must be the
    oracle's normal subgroups, each with the order its mask names."""
    lat = normal_lattice(G)
    assert {m.element_set() for m in lat.members} == brute_normal_subgroups(G)
    sizes = [size for _, size in conjugacy_classes(G)]
    for mask, m in zip(lat._orders, lat.members):
        assert m.order == sum(size for i, size in enumerate(sizes) if mask >> i & 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_small_groups())
def test_conjugacy_classes_of_random_groups_match_brute_classes(G):
    """Each class as (its least element, its size), in the order of
    (size, representative)."""
    elements = brute_closure(G.degree, [g.images for g in G.generators])
    brute = sorted((len(c), min(c)) for c in brute_conjugacy_classes(elements))
    assert [(size, rep.images) for rep, size in conjugacy_classes(G)] == brute


def _brute_generated(degree, elements):
    """brute_closure of ``elements``, taking as generators only those not
    already generated by the earlier ones."""
    gens, closure = [], {tuple(range(degree))}
    for x in sorted(elements):
        if x not in closure:
            gens.append(x)
            closure = brute_closure(degree, gens)
    return closure


def test_class_table_and_closure_masks_match_brute_oracles(corpus):
    groups = {name: G for name, G in corpus.items() if G.order <= 720}
    for params in ((3, 5), (7, 2), (2, 11)):
        # base much shorter than the degree: classes and closures are found
        # from two of each element's 121-128 images
        top = fitting_degenerate_tower(params, 2).levels[-1]
        assert len(top.chain.base) == 2 and top.degree >= 121
        groups[f"fitting{params}"] = top
    for name, G in groups.items():
        elements = brute_closure(G.degree, [g.images for g in G.generators])
        brute = {min(c): c for c in brute_conjugacy_classes(elements)}
        got = [(size, rep.images) for rep, size in conjugacy_classes(G)]
        assert got == sorted((len(c), rep) for rep, c in brute.items()), name
        reps = [rep for _, rep in got]
        masks = _class_seeds(G)[2]
        for rep, mask in zip(reps, masks):
            closure = _brute_generated(G.degree, brute[rep])
            assert mask == sum(1 << i for i, r in enumerate(reps) if r in closure), name
        assert list(_class_seeds(G)[1]) == list(dict.fromkeys(masks[1:])), name


def _relabelled(G, rng):
    """G with its points renamed at random and its generators shuffled."""
    sigma = Permutation(rng.sample(range(G.degree), G.degree))
    gens = [g.conj(sigma) for g in G.generators]
    rng.shuffle(gens)
    return PermGroup(G.degree, gens)


def _intransitive_groups():
    """{name: (G, whether G splits as G on one orbit x G on the others)}."""
    S3, S4, A4, A5 = PermGroup.symmetric(3), PermGroup.symmetric(4), PermGroup.alternating(4), PermGroup.alternating(5)
    diagonal_s3 = PermGroup(6, [Permutation.from_cycles([[0, 1], [3, 4]], 6), Permutation.from_cycles([[0, 1, 2], [3, 4, 5]], 6)])
    # the pairs (a, b) of S4 x S4 with sgn a = sgn b
    even_pairs = PermGroup(8, direct_product(A4, A4).generators + (Permutation.from_cycles([[0, 1], [4, 5]], 8),))
    assert even_pairs.order == 288
    rng = random.Random(20)
    groups = {
        "A5xS4": (direct_product(A5, S4), True),
        "S4xS4": (direct_product(S4, S4), True),
        "S3xC2xA4": (direct_product(direct_product(S3, PermGroup.cyclic(2)), A4), True),
        "diag(S3)xC3": (direct_product(diagonal_s3, PermGroup.cyclic(3)), True),
        "diag(S3)": (diagonal_s3, False),
        "(S4xS4)^+": (even_pairs, False),
    }
    return {name: (_relabelled(G, rng), splits) for name, (G, splits) in groups.items()}


def test_class_tables_of_intransitive_groups_match_the_brute_oracle():
    """A product's table is built from its factors' tables (S3xC2xA4 from
    three; diag(S3)xC3 from a factor that does not split again), and a group
    that does not split walks its own elements. Points are relabelled so that
    the factors' points interleave. Sizes, representatives, member sets and
    class_of must be the oracle's."""
    for name, (G, splits) in _intransitive_groups().items():
        assert (oblique.group._split(G, DEFAULT_CAPS) is not None) == splits, name
        elements = brute_closure(G.degree, [g.images for g in G.generators])
        brute = {min(c): c for c in brute_conjugacy_classes(elements)}
        expected = sorted((len(c), rep) for rep, c in brute.items())
        assert [(size, rep.images) for rep, size in conjugacy_classes(G)] == expected, name
        table = _class_table(G)
        assert list(zip(table.sizes, table.reps)) == expected, name
        element_of = {tuple(x[b] for b in G.chain.base): x for x in elements}
        assert len(element_of) == table.order == len(elements), name
        for c, rep in enumerate(table.reps):
            assert {x for x in elements if table.class_of(x) == c} == brute[rep], name
            assert {table.class_of(x) for x in brute[rep]} == {c}, name


def test_class_table_queries_match_the_brute_oracle():
    """For every class c and representative r, reach(c, r) gives the classes
    of k r for k in class c, and class_of(x) gives the class of x, as the
    oracle's classes do: for products, whose factor reaches are memoized
    under r's images on the factor's support, and for groups that do not
    split."""
    for name, (G, _) in _intransitive_groups().items():
        elements = brute_closure(G.degree, [g.images for g in G.generators])
        brute = sorted(brute_conjugacy_classes(elements), key=lambda c: (len(c), min(c)))
        brute_of = {x: c for c, members in enumerate(brute) for x in members}
        table = _class_table(G)
        assert table.reps == [min(c) for c in brute], name
        assert all(table.class_of(x) == brute_of[x] for x in elements), name
        for c, members in enumerate(brute):
            for r in table.reps:
                assert set(table.reach(c, r)) == {brute_of[_compose(k, r)] for k in members}, (name, c, r)


def test_product_class_seeds_form_fewer_products_than_elements(monkeypatch):
    """The seeds of A5xA5 close classes through its factors' memoized reaches:
    fewer image tuples are multiplied than the 3600 elements of G."""
    A5 = PermGroup.alternating(5)
    G = _relabelled(direct_product(A5, A5), random.Random(21))
    calls, compose = [], oblique.group._compose

    def counting(a, b):
        calls.append(1)
        return compose(a, b)

    for module in (oblique.group, oblique.lattice):
        monkeypatch.setattr(module, "_compose", counting)
    _class_seeds(G)
    assert 0 < len(calls) < G.order == 3600


def test_products_list_none_of_their_elements():
    """ob_G(n) and F(G) of a direct product read its class table, built from
    its factors' tables: G's own elements are never listed."""
    rng = random.Random(5)
    A5, S4 = PermGroup.alternating(5), PermGroup.symmetric(4)
    G = _relabelled(direct_product(A5, A5), rng)
    ob_function(G, 3)
    assert G._elements is None
    H = _relabelled(direct_product(A5, S4), rng)
    assert fitting(H).order == 4
    assert H._elements is None


def test_order_cap_stops_a_product_before_its_factors_are_built(monkeypatch):
    built = []
    monkeypatch.setattr(oblique.group, "_restriction", lambda *args: built.append(args))
    A5 = PermGroup.alternating(5)
    with pytest.raises(CapExceeded):
        conjugacy_classes(direct_product(A5, A5), Caps(order_enum=1000))
    assert built == []


def test_lattice_finds_joins_of_three_seeds():
    """In C2^4 every subgroup is normal and every seed has order 2, so the
    subgroups of order 8 are joins of three seeds: the join loop must go on
    joining the members it has just found."""
    C2 = PermGroup.cyclic(2)
    G = direct_product(direct_product(C2, C2), direct_product(C2, C2))
    lat = normal_lattice(G)
    assert sorted(lat.orders()) == [1] + [2] * 15 + [4] * 35 + [8] * 15 + [16]
    assert {m.element_set() for m in lat.members} == brute_all_subgroups(G)


def test_cyclic_lattice_orders_are_the_divisors():
    n = 120
    assert sorted(normal_lattice(PermGroup.cyclic(n)).orders()) == [d for d in range(1, n + 1) if n % d == 0]


def _counting_close(monkeypatch):
    """Patch lattice._close to record what each call returns."""
    returned, close = [], oblique.lattice._close

    def counting(*args, **kwargs):
        returned.append(close(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(oblique.lattice, "_close", counting)
    return returned


def test_lattice_closes_only_new_members(monkeypatch):
    """A join whose order, |A||S|/|A n S|, is that of a known member holding
    A and S is that member; every other join is closed once, as a new member."""
    top = wreath_tower(2, 3).levels[-1]
    classes, seeds = _class_seeds(top)[:2]
    returned = _counting_close(monkeypatch)
    lat = normal_lattice(top)
    assert len(lat) == 28
    old = {1, (1 << len(classes)) - 1, *seeds}
    assert len(returned) == len(set(returned)) == len(lat) - len(old)
    assert set(returned) == set(lat._orders) - old


def test_order_stop_closes_to_the_same_mask(corpus):
    for name, G in corpus.items():
        table, seeds, masks = _class_seeds(G)
        for a, a_order in normal_lattice(G)._orders.items():
            for s, s_order in seeds.items():
                r = table.reps[masks.index(s)]
                meet = sum(size for i, size in enumerate(table.sizes) if a & s >> i & 1)
                order = a_order * s_order // meet
                closed = oblique.lattice._close(table, a | s, r, masks)
                assert oblique.lattice._close(table, a | s, r, masks, order) == closed, name


def test_is_quasisimple_matches_the_reference_and_closes_nothing(corpus, monkeypatch):
    for name, G in corpus.items():
        members = normal_lattice(G).members
        for N in members:
            _class_seeds(N)
        returned = _counting_close(monkeypatch)
        got = [is_quasisimple(N) for N in members]
        assert returned == [], name
        monkeypatch.undo()
        assert got == [_reference_is_quasisimple(N) for N in members], name


def test_lattice_of_the_order_32768_wreath_level():
    # 71 seeds and 228 members, 155 of them closed; closing every member with
    # every seed took 8544 closures
    assert len(normal_lattice(wreath_tower(2, 4).levels[-1])) == 228


# ---------------------------------------------------------------------------
# cores and residuals


def test_pi_core_examples():
    assert pi_core(PermGroup.symmetric(4), {2}).order == 4
    assert pi_core(PermGroup.symmetric(3), {3}).order == 3
    assert pi_core(PermGroup.symmetric(4), {5}).order == 1


def test_pi_core_checks_the_lattice_cap_before_listing_classes():
    G = PermGroup.symmetric(9)
    with pytest.raises(CapExceeded) as err:
        pi_core(G, {2}, caps=Caps(lattice=10))
    assert err.value.cap_name == "lattice"
    assert G._elements is None and getattr(G, "_seeds", None) is None


def test_pi_core_is_largest_normal_pi_subgroup(corpus):
    for name, G in corpus.items():
        if G.order > 300:
            continue
        for p in (2, 3):
            O = pi_core(G, {p})
            assert O.is_normal_in(G), name
            assert set(prime_factors(O.order)) <= {p}, name
            for m in normal_lattice(G).members:
                if set(prime_factors(m.order)) <= {p}:
                    assert m.is_subgroup_of(O), name


def test_pi_residual_examples():
    assert pi_residual(PermGroup.symmetric(4), {2}).order == 12
    S3 = PermGroup.symmetric(3)
    assert pi_residual(S3, {3}).same_group(S3)
    assert pi_residual(S3, {2, 3}).order == 1


def test_pi_residual_matches_the_meet_of_the_pi_quotient_members(corpus):
    """O^pi as first defined: the meet of the normal subgroups with a pi-group quotient."""
    for name, G in corpus.items():
        primes = prime_factors(G.order)
        lat = normal_lattice(G)
        for r in range(len(primes) + 1):
            for pi in itertools.combinations(primes, r):
                family = [m for m in lat.members if set(prime_factors(G.order // m.order)) <= set(pi)]
                assert pi_residual(G, pi).same_group(lat.meet_all(family)), (name, pi)


# ---------------------------------------------------------------------------
# Fitting, components, layer


def test_fitting_examples():
    assert fitting(PermGroup.symmetric(4)).order == 4
    assert fitting(PermGroup.symmetric(5)).order == 1
    assert fitting(PermGroup.dihedral(6)).order == 6


def test_components_examples():
    assert components(PermGroup.symmetric(4)) == []
    comp5 = components(PermGroup.symmetric(5))
    assert len(comp5) == 1 and comp5[0].order == 60
    A5A5 = direct_product(PermGroup.alternating(5), PermGroup.alternating(5))
    assert sorted(c.order for c in components(A5A5)) == [60, 60]
    assert layer(A5A5).order == 3600


def _reference_is_quasisimple(G):
    """Perfect, and G/Z(G) simple, read off the quotient action."""
    if G.order == 1 or derived_subgroup(G).order < G.order:
        return False
    Z = center(G)
    return is_simple(G if Z.is_trivial() else quotient_action(G, Z)[0])


def _reference_components(H, memo):
    """Components by recursion into every proper nontrivial normal subgroup,
    deduplicated by element set."""
    key = H.element_set()
    if key not in memo:
        if H.order == 1 or is_soluble(H):
            memo[key] = []
        elif _reference_is_quasisimple(H):
            memo[key] = [H]
        else:
            found = {}
            for N in normal_lattice(H).members:
                if N.order not in (1, H.order):
                    for Q in _reference_components(N, memo):
                        found.setdefault(Q.element_set(), Q)
            memo[key] = list(found.values())
    return memo[key]


def _sl25():
    """SL(2,5) on the 24 nonzero vectors of F_5^2."""
    vectors = [(a, b) for a in range(5) for b in range(5) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(vectors)}

    def act(m):
        images = [((m[0][0] * a + m[0][1] * b) % 5, (m[1][0] * a + m[1][1] * b) % 5) for a, b in vectors]
        return Permutation(tuple(index[v] for v in images))

    return PermGroup(24, [act([[1, 1], [0, 1]]), act([[0, 1], [4, 0]])])


def test_components_and_quasisimplicity_match_the_references():
    """SL(2,5) is quasisimple with a centre of order 2; 2^5:A5 is not soluble
    and has no components; the two components of A5 wr S2 are not normal."""
    A5 = PermGroup.alternating(5)
    SL25 = _sl25()
    assert SL25.order == 120 and center(SL25).order == 2
    groups = {
        "SL(2,5)": SL25,
        "2^5:A5": affine_semidirect(2, 5, _permutation_matrices(A5, 2)),
        "A5 wr S2": wreath_imprimitive(A5, 2, PermGroup.symmetric(2)),
    }
    expected = {"SL(2,5)": [120], "2^5:A5": [], "A5 wr S2": [60, 60]}
    for name, G in groups.items():
        got = components(G)
        assert sorted(Q.order for Q in got) == expected[name], name
        assert {Q.element_set() for Q in got} == {Q.element_set() for Q in _reference_components(G, {})}, name
        for N in normal_lattice(G).members:
            assert is_quasisimple(N) == _reference_is_quasisimple(N), name


def test_components_of_sl25_times_a5():
    SL25, A5 = _sl25(), PermGroup.alternating(5)
    G = direct_product(SL25, A5)
    shifted = [Permutation(tuple(range(24)) + tuple(24 + p for p in g.images)) for g in A5.generators]
    factors = [PermGroup(29, [g.extended(29) for g in SL25.generators]), PermGroup(29, shifted)]
    got = sorted(components(G), key=lambda Q: -Q.order)
    assert len(got) == 2 and all(Q.same_group(F) for Q, F in zip(got, factors))
    assert all(is_quasisimple(Q) for Q in got)


def test_groups_are_built_only_on_demand(monkeypatch):
    """Seeds, joins, meets and orders are read off class masks: ob needs no
    group, and F(S4 x C3) = V4 x C3 is built once."""
    calls = []
    closure = oblique.lattice.normal_closure

    def counting(*args, **kwargs):
        calls.append(args)
        return closure(*args, **kwargs)

    monkeypatch.setattr(oblique.lattice, "normal_closure", counting)
    A5A5 = direct_product(PermGroup.alternating(5), PermGroup.alternating(5))
    assert [ob_function(A5A5, n) for n in (1, 59, 60, 3600)] == [1, 1, 3600, 3600]
    assert calls == []
    assert fitting(direct_product(PermGroup.symmetric(4), PermGroup.cyclic(3))).order == 12
    assert len(calls) == 1


def test_generalized_fitting_spot_values():
    assert generalized_fitting(PermGroup.symmetric(4)).order == 4
    assert generalized_fitting(PermGroup.symmetric(5)).order == 60


def test_fitting_product_with_a_trivial_factor_is_the_other_factor():
    # F*(C_n) = F(C_n): no second chain is built for the product
    F, E = fitting(PermGroup.cyclic(12)), layer(PermGroup.cyclic(12))
    assert E.is_trivial() and _fitting_product(F, E, Caps()) is F
    A5 = PermGroup.alternating(5)
    trivial = PermGroup.trivial(5)
    assert _fitting_product(trivial, A5, Caps()) is A5
    assert _fitting_product(F, PermGroup.trivial(12), Caps()) is F


def test_simplicity_and_quasisimplicity():
    assert is_simple(PermGroup.alternating(5))
    assert not is_simple(PermGroup.symmetric(4))
    assert not is_simple(PermGroup.trivial(3))
    assert is_quasisimple(PermGroup.alternating(6))
    assert not is_quasisimple(PermGroup.symmetric(5))
    assert is_soluble(PermGroup.symmetric(4))
    assert not is_soluble(PermGroup.alternating(5))


def test_is_simple_matches_the_lattice(corpus):
    for name, G in corpus.items():
        assert is_simple(G) == (len(normal_lattice(G)) == 2), name


def test_is_simple_does_not_check_the_lattice_cap():
    assert is_simple(PermGroup.alternating(5), caps=Caps(lattice=10))


def test_fstar_criterion_when_g_equals_fstar(corpus):
    from oblique import is_nilpotent

    for name, G in corpus.items():
        if G.order > 500:
            continue
        Fstar = generalized_fitting(G)
        if not Fstar.same_group(G):
            continue
        Q, _ = quotient_action(G, fitting(G))
        assert derived_subgroup(Q).same_group(Q), name  # G/F perfect
        QE, _ = quotient_action(G, layer(G))
        assert is_nilpotent(QE), name  # G/E nilpotent


# ---------------------------------------------------------------------------
# Frattini subgroups


def test_frattini_normal_examples():
    assert frattini_normal(PermGroup.symmetric(3)).order == 3
    assert frattini_normal(PermGroup.alternating(5)).order == 1
    assert frattini_normal(PermGroup.cyclic(4)).order == 2


def test_frattini_normal_monotone_under_normality(corpus):
    for name, G in corpus.items():
        if G.order > 300:
            continue
        phi_g = frattini_normal(G)
        for H in normal_lattice(G).members:
            assert frattini_normal(H).is_subgroup_of(phi_g), name


def test_trivial_normal_frattini_gives_product_of_simples(corpus):

    for name, G in corpus.items():
        if G.order > 2000 or G.order == 1:
            continue
        if frattini_normal(G).order > 1:
            continue
        lat = normal_lattice(G)
        minimal = lat.minimal_members()
        # the minimal normal subgroups generate G and are products of simples
        socle = PermGroup.trivial(G.degree)
        for m in minimal:
            socle = lat.join(socle, m)
            assert is_simple(m) or all(
                is_simple(c) for c in _direct_factors(m)
            ), name
        assert socle.same_group(G), name


def _direct_factors(M):
    # a minimal normal subgroup is a product of isomorphic simples; for the
    # corpus it is either simple or a product of two copies of Alt(5)
    comps = components(M)
    if comps:
        return comps
    return [M]


def test_frattini_pgroup_examples():
    D8 = PermGroup.dihedral(4)
    phi = frattini_pgroup(D8)
    assert phi.order == 2
    assert pgroup_rank(D8) == 2
    assert frattini_pgroup(PermGroup.cyclic(8)).order == 4
    with pytest.raises(ValueError):
        frattini_pgroup(PermGroup.symmetric(3))


def test_phi_height():
    for k in (1, 2, 3, 4):
        assert phi_lhd_height(PermGroup.cyclic(2**k)) == k
    assert phi_lhd_height(PermGroup.symmetric(4)) == 3
    assert phi_lhd_height(PermGroup.trivial(2)) == 0


def test_schreier_rank_bound_for_pgroup_subgroups(corpus):
    # d(H) <= |G:H| (d(G)-1) + 1 for subgroups of 2-generated p-groups
    for name in ("D4", "D8", "C2wrC2", "C8", "C16", "C9xC3"):
        G = corpus.get(name) or PermGroup.dihedral(int(name[1:]))
        if len(set(G.order.bit_length() for _ in [0])) and G.order > 512:
            continue
        d_g = pgroup_rank(G)
        if d_g > 2:
            continue
        for H in all_subgroups(G).values():
            if H.order == 1:
                continue
            index = G.order // H.order
            assert pgroup_rank(H) <= index * (d_g - 1) + 1, name


# ---------------------------------------------------------------------------
# small normals, oblique cores, ob functions


def test_intersection_of_small_normals_examples():
    S4 = PermGroup.symmetric(4)
    assert intersection_of_small_normals(S4, 1).same_group(S4)
    assert intersection_of_small_normals(S4, 2).order == 12
    assert intersection_of_small_normals(S4, 6).order == 4
    assert intersection_of_small_normals(S4, 24).order == 1


def test_oblique_core_examples():
    S4 = PermGroup.symmetric(4)
    A4 = PermGroup.alternating(4)
    assert oblique_core(S4, A4).same_group(A4)
    assert oblique_core(S4, S4).same_group(S4)
    V4 = PermGroup(4, [perm("(1 2)(3 4)"), perm("(1 3)(2 4)")])
    assert oblique_core(S4, V4).order == 4


def test_oblique_core_matches_class_union_oracle(corpus):
    # Ob_G(H) = H n (meet of the normal N not inside H), for the lattice
    # members and for the non-normal cyclic subgroups <x>
    checked = 0
    for name, G in corpus.items():
        if G.order > 200:
            continue
        try:
            normals = brute_normal_subgroups(G)
        except ValueError:
            continue
        candidates = list(normal_lattice(G).members)
        for x in G.generators + tuple(rep for rep, _ in conjugacy_classes(G)):
            H = PermGroup(G.degree, [x])
            if H.element_set() not in normals:
                candidates.append(H)
        for H in candidates:
            h = frozenset(brute_closure(G.degree, [g.images for g in H.generators]))
            expected = h
            for N in normals:
                if not N <= h:
                    expected = expected & N
            assert oblique_core(G, H).element_set() == expected, name
            checked += H.element_set() not in normals
    assert checked >= 50


def test_ob_examples():
    C8 = PermGroup.cyclic(8)
    assert ob_function(C8, 5) == 4
    assert ob_function(PermGroup.symmetric(4), 2) == 2
    for name, G in (("C8", C8), ("S4", PermGroup.symmetric(4))):
        assert ob_function(G, 1) == 1, name


def test_ob_monotone_and_star_dominates(corpus):
    for name in ("C8", "C12", "S4", "D6", "C2wrC2", "S3"):
        G = corpus[name]
        prev = 0
        for n in range(1, min(G.order, 16) + 1):
            ob = ob_function(G, n)
            assert ob >= prev, name
            assert ob >= G.order // intersection_of_small_normals(G, n).order, name
            assert ob_star_function(G, n) >= ob, name
            prev = ob


def test_ob_quotient_monotonicity(corpus):
    for name in ("S4", "D6", "C12", "C2wrC2"):
        G = corpus[name]
        for N in normal_lattice(G).members:
            if N.order == G.order:
                continue
            Q, hom = quotient_action(G, N)
            for n in (2, 3, 4, 6):
                oi_g = oblique_core(G, intersection_of_small_normals(G, n))
                oi_q = oblique_core(Q, intersection_of_small_normals(Q, n))
                assert hom.image_of_group(oi_g).is_subgroup_of(oi_q), name


def test_all_subgroups_and_ob_star_check_their_caps():
    G = PermGroup.symmetric(4)
    first = all_subgroups(G)
    assert len(first) == 30
    with pytest.raises(CapExceeded, match="ob_star"):
        ob_star_function(G, 2, caps=Caps(ob_star=10))
    with pytest.raises(CapExceeded, match="aut"):
        all_subgroups(G, caps=Caps(aut=10))
    assert all_subgroups(G, caps=Caps(aut=24)).keys() == first.keys()


def test_cached_subgroups_leave_no_reference_cycle():
    G = PermGroup.symmetric(4)
    assert len(all_subgroups(G)) == 30
    ref = weakref.ref(G)
    del G
    assert ref() is None


def test_oblique_cores_reject_a_non_subgroup():
    A4 = PermGroup.alternating(4)
    H = PermGroup(4, [perm("(1 2)", 4)])
    with pytest.raises(NotASubgroup):
        oblique_core(A4, H)
    with pytest.raises(NotASubgroup):
        strong_oblique_core(A4, H)


def test_strong_oblique_core_matches_subgroup_set_oracle(corpus):
    # Ob*_G(H) = H n (meet of the K <= G normalized by H and not inside H),
    # with every subgroup and every conjugation done on raw element sets
    for G in [corpus[name] for name in ("S4", "D4", "A4", "D6", "C2xC4", "C3wrC2", "C2wrC3", "S3xS3")]:
        subgroups = brute_all_subgroups(G)
        for h in subgroups:
            expected = h
            for k in subgroups:
                conj = {_tuple_conj(x, g, _tuple_inverse(g)) for g in h for x in k}
                if conj <= k and not k <= h:
                    expected = expected & k
            H = PermGroup(G.degree, [Permutation(t) for t in h])
            assert strong_oblique_core(G, H).element_set() == expected, (G, sorted(h))


def test_ob_star_cap_error_names_the_cap():
    G = PermGroup.symmetric(4)
    with pytest.raises(CapExceeded) as err:
        ob_star_function(G, 2, caps=Caps(ob_star=10))
    assert "ob_star" in str(err.value)


# ---------------------------------------------------------------------------
# Tate conditions and p'-normality


def test_tate_examples():
    S4 = PermGroup.symmetric(4)
    rec = tate_check(S4, sylow(S4, 2), 2)
    assert rec.as_tuple() == (False, False, False, False)
    S3 = PermGroup.symmetric(3)
    rec = tate_check(S3, sylow(S3, 2), 2)
    assert rec.as_tuple() == (True, True, True, True)
    rec = tate_check(S4, S4, 2)
    assert rec.as_tuple() == (True, True, True, True)


def test_tate_with_k_equal_to_g_computes_nothing(monkeypatch):
    """A K <= G of G's order is G, so all four conditions hold by definition:
    no Sylow subgroup and no residual is computed, whether K is G itself or
    an equal group built separately."""
    calls = []

    def counting(name):
        real = getattr(oblique.lattice, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("sylow", "pi_residual"):
        monkeypatch.setattr(oblique.lattice, name, counting(name))
    S4 = PermGroup.symmetric(4)
    for K in (S4, PermGroup.symmetric(4)):
        assert tate_check(S4, K, 3).as_tuple() == (True, True, True, True)
    assert calls == []


def test_tate_requires_full_sylow():
    S4 = PermGroup.symmetric(4)
    with pytest.raises(NotASubgroup):
        tate_check(S4, PermGroup.alternating(4), 2)


def test_p_prime_normality_examples():
    assert is_p_prime_normal(PermGroup.symmetric(3), 2)
    assert not is_p_prime_normal(PermGroup.symmetric(4), 2)
    assert is_p_prime_normal(PermGroup.dihedral(4), 2)  # p-group


def test_p_prime_normality_matches_tate(corpus):

    for name, G in corpus.items():
        if G.order > 300:
            continue
        for p in prime_factors(G.order):
            rec = tate_check(G, sylow(G, p), p)
            assert rec.controls_transfer() == is_p_prime_normal(G, p), (name, p)


# ---------------------------------------------------------------------------
# automorphisms and the c-invariant


def test_aut_orders():
    assert aut_group_small(PermGroup.cyclic(8)).order == 4
    assert aut_group_small(PermGroup.symmetric(3)).order == 6
    V4 = direct_product(PermGroup.cyclic(2), PermGroup.cyclic(2))
    assert aut_group_small(V4).order == 6
    E9 = direct_product(PermGroup.cyclic(3), PermGroup.cyclic(3))
    assert aut_group_small(E9).order == 48  # |GL(2,3)|


def test_aut_action_acts_on_every_element_index():
    C3 = PermGroup.cyclic(3)
    for G in (PermGroup.dihedral(4), direct_product(C3, C3), PermGroup.trivial(1)):
        aut = aut_group_small(G)
        assert aut.action.degree == len(aut.elements)
        assert aut.action.order == aut.order
        assert all(a.images[0] == 0 for a in aut.action.generators)


def test_aut_maps_are_automorphisms():
    G = PermGroup.dihedral(4)
    aut = aut_group_small(G)
    assert aut.order == 8
    elems = [g.images for g in aut.elements]
    index = {t: i for i, t in enumerate(elems)}
    for m in aut.maps:
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                ab = tuple(b[x] for x in a)
                assert m[index[ab]] == _mul(elems[m[i]], elems[m[j]], index), "not a homomorphism"


def _mul(a, b, index):
    return index[tuple(b[x] for x in a)]


def test_c_invariant_values():
    for p in (2, 3):
        C = PermGroup.cyclic
        assert c_invariant(C(p)) == 1
        assert c_invariant(direct_product(C(p), C(p))) == 2
        assert c_invariant(direct_product(C(p * p), C(p))) == 1
        assert c_invariant(C(p**3)) == 1
    assert c_invariant(PermGroup.dihedral(4)) == 1


def test_c_invariant_checks_only_the_given_caps(monkeypatch):
    # aut_group_small and the Frattini quotient build groups of their own
    D8, caps = PermGroup.dihedral(4), Caps(degree=4000)
    seen = []
    check = Caps.check

    def recording(self, cap_name, needed):
        seen.append((self, cap_name))
        return check(self, cap_name, needed)

    monkeypatch.setattr(Caps, "check", recording)
    assert c_invariant(D8, caps=caps) == 1
    assert seen and [name for c, name in seen if c is not caps] == []


def test_c_invariant_requires_p_group():
    with pytest.raises(ValueError):
        c_invariant(PermGroup.symmetric(3))


def test_c_invariant_rejects_frattini_rank_above_8():
    C2_9 = PermGroup.cyclic(2)
    for _ in range(8):
        C2_9 = direct_product(C2_9, PermGroup.cyclic(2))
    assert pgroup_rank(C2_9) == 9
    with pytest.raises(ValueError, match="rank 9"):
        c_invariant(C2_9)


# ---------------------------------------------------------------------------
# component orbits and digit sums


def test_component_orbit_examples():
    A5wrC2 = wreath_imprimitive(PermGroup.alternating(5), 2, PermGroup.cyclic(2))
    orbits, bound, ok = component_orbit_check(A5wrC2, 2)
    assert orbits == 1 and bound >= 1 and ok
    A5A5 = direct_product(PermGroup.alternating(5), PermGroup.alternating(5))
    orbits, bound, ok = component_orbit_check(A5A5, 2)
    assert orbits == 2 and ok


def test_digit_sums():
    assert digit_sum(5, 2) == 2
    assert digit_sum(9, 3) == 1
    assert digit_sum(0, 7) == 0
    assert digit_sum(255, 16) == 30
