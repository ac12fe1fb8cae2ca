import weakref

import pytest

from oblique import (
    CapExceeded,
    Caps,
    NotASubgroup,
    PermGroup,
    Permutation,
    aut_group_small,
    c_invariant,
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
    sylow,
    tate_check,
    wreath_imprimitive,
)
from oblique.arith import digit_sum
from oblique.lattice import all_subgroups, phi_lhd_height, pgroup_rank

from conftest import brute_all_subgroups, brute_closure, brute_normal_subgroups


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
    from oblique.arith import prime_factors

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


def test_generalized_fitting_spot_values():
    assert generalized_fitting(PermGroup.symmetric(4)).order == 4
    assert generalized_fitting(PermGroup.symmetric(5)).order == 60


def test_simplicity_and_quasisimplicity():
    assert is_simple(PermGroup.alternating(5))
    assert not is_simple(PermGroup.symmetric(4))
    assert not is_simple(PermGroup.trivial(3))
    assert is_quasisimple(PermGroup.alternating(6))
    assert not is_quasisimple(PermGroup.symmetric(5))
    assert is_soluble(PermGroup.symmetric(4))
    assert not is_soluble(PermGroup.alternating(5))


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
    from oblique.arith import prime_factors

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
        for H in all_subgroups(G):
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


def test_all_subgroups_is_cached_and_still_checks_caps():
    G = PermGroup.symmetric(4)
    first = all_subgroups(G)
    assert len(first) == 30 and all_subgroups(G) is first
    with pytest.raises(CapExceeded, match="ob_star"):
        ob_star_function(G, 2, caps=Caps(ob_star=10))
    with pytest.raises(CapExceeded, match="aut"):
        all_subgroups(G, caps=Caps(aut=10), cap_name="aut")
    assert all_subgroups(G, caps=Caps(aut=24), cap_name="aut") is first


def test_cached_subgroups_leave_no_reference_cycle():
    G = PermGroup.symmetric(4)
    assert len(all_subgroups(G)) == 30
    ref = weakref.ref(G)
    del G
    assert ref() is None


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


def test_tate_requires_full_sylow():
    S4 = PermGroup.symmetric(4)
    with pytest.raises(NotASubgroup):
        tate_check(S4, PermGroup.alternating(4), 2)


def test_p_prime_normality_examples():
    assert is_p_prime_normal(PermGroup.symmetric(3), 2)
    assert not is_p_prime_normal(PermGroup.symmetric(4), 2)
    assert is_p_prime_normal(PermGroup.dihedral(4), 2)  # p-group


def test_p_prime_normality_matches_tate(corpus):
    from oblique.arith import prime_factors

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
