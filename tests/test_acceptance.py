"""End-to-end acceptance suite: cross-checked invariants with pinned budgets.

Every test here asserts an exact mathematical value or an equality against
an independent oracle, plus a wall-clock budget.
"""

import io
import json
import time

from oblique import (
    PermGroup,
    Permutation,
    alperin_closure_check,
    aut_group_small,
    c_invariant,
    centralizer,
    components,
    conjugacy_classes,
    conjugating_element,
    direct_product,
    fitting,
    fitting_degenerate_tower,
    frattini_pgroup,
    generalized_fitting,
    component_orbit_check,
    layer,
    normal_lattice,
    sylow,
    tate_check,
    tower_fitting_sequence,
    wreath_tower,
)
from oblique.arith import legendre_factorial_valuation, prime_factors
from oblique.cli import main
from oblique.lattice import all_subgroups

from conftest import brute_all_subgroups, brute_closure, brute_normal_subgroups


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def test_obliquity_formula_for_cyclic_prime_power_groups():
    started = time.perf_counter()
    for p, k in ((2, 6), (3, 4), (5, 3)):
        top = p**k
        report = run_cli("ob-table", f"cyclic({top})", "--max-n", str(top))
        for row in report["ob_table"]:
            n = row["n"]
            s = 0
            while p ** (s + 1) <= min(n, top):
                s += 1
            assert row["ob"] == p**s, (p, k, n)
    assert time.perf_counter() - started < 5.0


def test_sylow_of_symmetric_is_iterated_wreath():
    started = time.perf_counter()
    G = PermGroup.symmetric(8)
    S = sylow(G, 2)
    assert S.order == 128
    W = wreath_tower(2, 3).levels[2]
    assert W.order == 128 and W.degree == 8
    witness = conjugating_element(G, S, W)
    assert witness is not None
    assert S.conjugated(witness).same_group(W)
    for n in range(2, 13):
        Sn = PermGroup.symmetric(n)
        for p in (2, 3, 5, 7, 11):
            if p > n:
                continue
            assert sylow(Sn, p).order == p ** legendre_factorial_valuation(n, p), (n, p)
    assert time.perf_counter() - started < 10.0


def test_transfer_conditions_are_equivalent(corpus):
    started = time.perf_counter()
    instances = 0
    for name, G in sorted(corpus.items()):
        if G.order > 2000:
            continue
        for p in prime_factors(G.order):
            S = sylow(G, p)
            # subgroups K with S <= K <= G: close S against each class
            # representative (S is then automatically a Sylow p-subgroup of K)
            candidates = {G.element_set(): G, S.element_set(): S}
            for rep, _ in conjugacy_classes(G):
                K = PermGroup(G.degree, S.generators + (rep,))
                candidates.setdefault(K.element_set(), K)
            for K in candidates.values():
                assert tate_check(G, K, p).all_agree(), (name, p, K.order)
                instances += 1
    assert instances >= 200
    assert time.perf_counter() - started < 60.0


def test_generalized_fitting_is_self_centralizing(corpus):
    started = time.perf_counter()
    for name, G in corpus.items():
        Fstar = generalized_fitting(G)
        assert centralizer(G, Fstar).is_subgroup_of(Fstar), name
    assert generalized_fitting(PermGroup.symmetric(4)).order == 4
    assert generalized_fitting(PermGroup.symmetric(5)).order == 60
    A5A5 = direct_product(PermGroup.alternating(5), PermGroup.alternating(5))
    assert generalized_fitting(A5A5).order == 3600
    assert time.perf_counter() - started < 30.0


def test_component_structure(corpus):
    started = time.perf_counter()
    bearing = 0
    for name, G in corpus.items():
        comps = components(G)
        F = fitting(G)
        E = layer(G)
        # distinct components commute elementwise
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                for a in comps[i].generators:
                    for b in comps[j].generators:
                        assert a.commutator(b).is_identity(), name
        # [E, F] = 1
        for a in E.generators:
            for b in F.generators:
                assert a.commutator(b).is_identity(), name
        if comps:
            bearing += 1
            for p in prime_factors(G.order):
                orbits, bound, ok = component_orbit_check(G, p)
                assert ok, (name, p, orbits, bound)
    assert bearing >= 3
    assert time.perf_counter() - started < 30.0


def test_fitting_degeneracy_witness():
    started = time.perf_counter()
    tower = fitting_degenerate_tower((2, 3, 2), 3)
    seq = tower_fitting_sequence(tower)
    assert seq == [1, 2, 18]
    assert all(a < b for a, b in zip(seq[1:], seq[2:])) and seq[1] > seq[0]
    assert time.perf_counter() - started < 60.0


def test_alperin_factorization_across_corpus(corpus):
    started = time.perf_counter()
    checked = 0
    for name, G in sorted(corpus.items()):
        if G.order > 2000:
            continue
        for p in prime_factors(G.order):
            if sylow(G, p).order > 64:
                continue  # keep subgroup enumeration inside budget
            ok, chains, table = alperin_closure_check(G, p)
            assert ok, (name, p)
            for (i, j), moves in chains.items():
                total = G.identity()
                for mv in moves:
                    total = total * mv.element
                base = table.subgroups[table.s_classes[i].rep_id]
                rep = table.subgroups[table.s_classes[j].rep_id]
                assert base.conjugated(total).same_group(rep), (name, p)
            checked += 1
    # the named instances must all be present
    for name in ("S4", "S5", "A5", "S3wrC2"):
        assert name in corpus
    assert checked >= 50
    assert time.perf_counter() - started < 60.0


def _oracle_max_factor_dim(S, p):
    """Independent c-invariant: scan characteristic subgroups above Phi(S).

    The subgroups of S containing Phi(S) that are invariant under every
    automorphism correspond exactly to the Aut(S)-submodules of S/Phi(S);
    the largest composition-factor dimension is the largest gap in any
    maximal chain of them (well-defined by Jordan-Hoelder).
    """
    aut = aut_group_small(S)
    elems = [g.images for g in aut.elements]
    index = {t: i for i, t in enumerate(elems)}
    phi_set = frattini_pgroup(S).element_set()
    invariant = []
    for sub in sorted(brute_all_subgroups(S), key=lambda s: (len(s), sorted(s))):
        if not phi_set <= sub:
            continue
        if all(
            frozenset(elems[m[index[t]]] for t in sub) == sub for m in aut.maps
        ):
            invariant.append(sub)
    # greedy maximal chain from Phi(S) to S through invariant subgroups
    chain = [phi_set]
    full = frozenset(S.element_tuples())
    while chain[-1] != full:
        above = [s for s in invariant if chain[-1] < s]
        nxt = min(above, key=len)
        chain.append(nxt)
    gaps = []
    for a, b in zip(chain, chain[1:]):
        ratio = len(b) // len(a)
        d = 0
        while p**d < ratio:
            d += 1
        gaps.append(d)
    return max(gaps) if gaps else 0


def test_c_invariant_matches_characteristic_subgroup_oracle():
    started = time.perf_counter()
    C = PermGroup.cyclic
    for p in (2, 3):
        cases = [
            (C(p), 1),
            (direct_product(C(p), C(p)), 2),
            (direct_product(direct_product(C(p), C(p)), C(p)), 3),
            (direct_product(C(p * p), C(p)), 1),
        ]
        for S, expected in cases:
            got = c_invariant(S)
            assert got == expected, (p, S.order)
            assert got == _oracle_max_factor_dim(S, p), (p, S.order)
    # c below d(S): a characteristic subgroup such as Omega_1(S)Phi(S) lies
    # strictly between Phi(S) and S
    D8 = PermGroup.dihedral(4)
    cases = [
        (direct_product(direct_product(C(4), C(2)), C(2)), 2, 2),
        (direct_product(D8, C(2)), 2, 1),
        (sylow(PermGroup.symmetric(6), 2), 2, 1),
        (direct_product(C(9), C(3)), 3, 1),
    ]
    for S, p, expected in cases:
        got = c_invariant(S)
        assert got == expected, (p, S.order)
        assert got == _oracle_max_factor_dim(S, p), (p, S.order)
    assert time.perf_counter() - started < 120.0


def test_lattice_and_chain_cross_validation(corpus):
    started = time.perf_counter()
    validated = 0
    for name, G in sorted(corpus.items(), key=lambda kv: kv[1].order):
        if validated >= 50 or G.order > 2000:
            continue
        try:
            expected = brute_normal_subgroups(G, max_classes=16)
        except ValueError:
            if G.order > 60:
                continue
            gens = [g.images for g in G.generators]

            def conj(x, g):
                gi = Permutation(g).inv().images
                return tuple(g[x[gi[i]]] for i in range(len(g)))

            expected = {
                sub
                for sub in brute_all_subgroups(G)
                if all(conj(x, g) in sub for x in sub for g in gens)
            }
        got = {m.element_set() for m in normal_lattice(G).members}
        assert got == expected, name
        validated += 1
    assert validated >= 50
    for name, G in corpus.items():
        if G.order <= 5000:
            closure = brute_closure(G.degree, [g.images for g in G.generators])
            assert G.order == len(closure), name
    assert time.perf_counter() - started < 120.0
