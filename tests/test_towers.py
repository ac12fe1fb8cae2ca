import io
from collections import Counter

import pytest

import oblique.cli
import oblique.towers
from oblique import (
    CapExceeded,
    Caps,
    PermGroup,
    conjugacy_classes,
    cyclic_tower,
    fitting,
    fitting_degenerate_tower,
    ji_certificate,
    normal_lattice,
    pi_core,
    tower_fitting_sequence,
    tower_ob_sequence,
    wreath_tower,
)
from oblique.arith import legendre_factorial_valuation
from oblique.cli import main
from oblique.group import StabilizerChain
from oblique.towers import _preimage

from conftest import chain_fields


# ---------------------------------------------------------------------------
# construction


def test_cyclic_tower_orders():
    t = cyclic_tower(2, 3)
    assert [G.order for G in t.levels] == [2, 4, 8]
    t = cyclic_tower(3, 2)
    assert [G.order for G in t.levels] == [3, 9]


def test_wreath_tower_orders():
    t = wreath_tower(2, 3)
    assert [G.order for G in t.levels] == [2, 8, 128]
    t = wreath_tower(3, 2)
    assert [G.order for G in t.levels] == [3, 81]


def test_wreath_levels_are_sylow_of_symmetric():
    for p, depth in ((2, 3), (3, 2)):
        t = wreath_tower(p, depth)
        for k, W in enumerate(t.levels, start=1):
            assert W.order == p ** legendre_factorial_valuation(p**k, p)
            assert W.degree == p**k


def test_fitting_tower_orders():
    t = fitting_degenerate_tower((2, 3), 2)
    assert [G.order for G in t.levels] == [2, 18]
    assert fitting(t.levels[1]).order == 9
    t = fitting_degenerate_tower((2, 3, 2), 3)
    assert [G.order for G in t.levels] == [2, 18, 2**9 * 18]


def test_tower_maps_are_surjective_and_compose():
    for t in (cyclic_tower(2, 4), wreath_tower(2, 3), fitting_degenerate_tower((2, 3), 2)):
        for hom in t.maps:
            assert hom.is_surjective()
        # the composite of all maps takes the top level onto level 0
        images = list(t.levels[-1].generators)
        for hom in reversed(t.maps):
            images = [hom.apply(g) for g in images]
        assert PermGroup(t.levels[0].degree, images).same_group(t.levels[0])


def test_cyclic_tower_is_canonical_reduction():
    t = cyclic_tower(2, 3)
    g8 = t.levels[2].generators[0]  # an 8-cycle
    g4 = t.maps[1].apply(g8)
    assert g4.order() == 4
    # reduction mod 4 of the generator is the level-2 generator
    assert g4 == t.levels[1].generators[0]


def test_tower_validation_errors():
    with pytest.raises(ValueError):
        cyclic_tower(2, 0)
    with pytest.raises(ValueError):
        fitting_degenerate_tower((2, 2), 2)
    with pytest.raises(ValueError):
        fitting_degenerate_tower((2, 3), 5)
    with pytest.raises(ValueError):
        fitting_degenerate_tower((2,), 2)


def test_fitting_tower_degree_overflow_message():
    with pytest.raises(CapExceeded) as err:
        fitting_degenerate_tower((2, 3, 2, 3), 4)
    assert "3^512" in str(err.value)


def test_fitting_tower_faithful_action():
    # the glued elementary abelian group is exactly the p-core of its level,
    # and the previous level's prime contributes no normal p-subgroup
    t = fitting_degenerate_tower((2, 3), 2)
    G2 = t.levels[1]
    assert pi_core(G2, {3}).order == 9
    assert pi_core(G2, {2}).order == 1


# ---------------------------------------------------------------------------
# ob sequences along towers


def test_ob_sequence_cyclic_2_6():
    t = cyclic_tower(2, 6)
    values, stable = tower_ob_sequence(t, 5)
    assert values == [2, 4, 4, 4, 4, 4]
    assert stable


def test_ob_sequence_cyclic_3_4():
    t = cyclic_tower(3, 4)
    values, stable = tower_ob_sequence(t, 10)
    assert values == [3, 9, 9, 9]
    assert stable


def test_ob_sequence_n1_all_trivial():
    t = cyclic_tower(2, 5)
    values, stable = tower_ob_sequence(t, 1)
    assert values == [1, 1, 1, 1, 1]
    assert stable


def test_ob_sequence_unstable_when_growing():
    # for n = p^k the cyclic tower's ob keeps growing with the level
    t = cyclic_tower(2, 4)
    values, stable = tower_ob_sequence(t, 16)
    assert values == [2, 4, 8, 16]
    assert not stable


# ---------------------------------------------------------------------------
# Fitting sequences


def test_fitting_sequence_nilpotent_towers_are_flat():
    for t in (cyclic_tower(2, 4), wreath_tower(2, 3), cyclic_tower(3, 3)):
        assert tower_fitting_sequence(t) == [1] * len(t.levels)


def test_fitting_sequence_degenerate_tower_grows():
    t = fitting_degenerate_tower((2, 3, 2), 3)
    assert tower_fitting_sequence(t) == [1, 2, 18]


def test_fitting_sequence_checks_the_lattice_cap_on_each_level():
    t = fitting_degenerate_tower((2, 3), 2)
    with pytest.raises(CapExceeded) as err:
        tower_fitting_sequence(t, caps=Caps(lattice=10))
    assert err.value.cap_name == "lattice"
    assert t.levels[-1]._seeds is None


def test_preimage_masks_match_preimage_groups():
    for t in (wreath_tower(2, 3), fitting_degenerate_tower((2, 3), 2), cyclic_tower(3, 3)):
        for k, hom in enumerate(t.maps):
            reps = [rep for rep, _ in conjugacy_classes(hom.domain)]
            lat = normal_lattice(hom.codomain)
            for mask, N in zip(lat._orders, lat.members):
                P = hom.preimage_group(N)
                expected = sum(1 << i for i, rep in enumerate(reps) if P.contains(rep))
                assert _preimage(t, k, mask, Caps()) == expected, (t.family, N.order)


# ---------------------------------------------------------------------------
# each level is built once


@pytest.mark.parametrize(
    "build",
    [
        lambda: fitting_degenerate_tower((2, 3, 2), 3),
        lambda: fitting_degenerate_tower((3, 5), 2),
        lambda: fitting_degenerate_tower((7, 2), 2),
        lambda: fitting_degenerate_tower((2, 11), 2),
        lambda: wreath_tower(2, 4),
        lambda: wreath_tower(3, 3),
        lambda: cyclic_tower(3, 4),
    ],
    ids=["fitting-2-3-2", "fitting-3-5", "fitting-7-2", "fitting-2-11", "wreath-2-4", "wreath-3-3", "cyclic-3-4"],
)
def test_level_chains_equal_fresh_chains(monkeypatch, build):
    """A level below the head gets its chain cut from its map's graph chain;
    it is field for field the chain its own generators build."""
    cuts, cut = [], StabilizerChain.cut
    monkeypatch.setattr(StabilizerChain, "cut", lambda self, k: cuts.append(k) or cut(self, k))
    t = build()
    assert cuts == [G.degree for G in t.levels[1:]]
    for G in t.levels:
        fresh = StabilizerChain(G.degree, [g.images for g in G.generators])
        assert chain_fields(G.chain) == chain_fields(fresh)


def _run_tower(*params):
    out = io.StringIO()
    assert main(["tower", "--family", "fitting", "--params", *params], stdout=out, stderr=io.StringIO()) == 0
    return out.getvalue()


def test_fitting_tower_report_builds_no_chain_of_the_top_level_degree(monkeypatch):
    """The degree-128 level of the (7, 2) tower gets its chain from the graph
    of its map (degree 135); no chain of degree 128 is built from scratch."""
    degrees, init = [], StabilizerChain.__init__

    def recording(self, degree, gen_tuples, forced_prefix=None):
        degrees.append(degree)
        init(self, degree, gen_tuples, forced_prefix)

    monkeypatch.setattr(StabilizerChain, "__init__", recording)
    _run_tower("7,2")
    assert 135 in degrees and 128 not in degrees


def test_class_representatives_go_down_once_per_map(monkeypatch):
    """`tower --family fitting --params 3,5 --max-n 4` takes preimages through
    its one map several times; each of level 2's class representatives is
    sifted through the map's graph chain (degree 125 + 3) once in all."""
    build, preimage, strip = oblique.cli.fitting_degenerate_tower, oblique.towers._preimage, StabilizerChain._strip
    towers, sifted, inside = [], Counter(), []

    def building(*args, **kwargs):
        towers.append(build(*args, **kwargs))
        return towers[-1]

    def mapping(*args, **kwargs):
        inside.append(True)
        try:
            return preimage(*args, **kwargs)
        finally:
            inside.pop()

    def recording(self, g, start=0):
        if inside and len(g) == 128:
            sifted[g[:125]] += 1
        return strip(self, g, start)

    monkeypatch.setattr(oblique.cli, "fitting_degenerate_tower", building)
    monkeypatch.setattr(oblique.towers, "_preimage", mapping)
    monkeypatch.setattr(StabilizerChain, "_strip", recording)
    _run_tower("3,5", "--max-n", "4")
    reps = oblique.towers._class_seeds(towers[0].levels[1])[0].reps
    assert len(reps) == 55
    assert sifted == Counter(reps)


# ---------------------------------------------------------------------------
# ji certificates


def test_ji_certificate_examples():
    t = cyclic_tower(2, 5)
    assert ji_certificate(t, [(5, 4)]) == [True] * 5
    assert ji_certificate(t, [(5, 2)]) == [True, False, False, False, False]
    assert ji_certificate(t, [(1, 1), (5, 4)]) == [True] * 5
    assert ji_certificate(t, []) == [True] * 5
