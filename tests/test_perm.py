import random

import pytest

from oblique import MalformedPermutation, Permutation


def test_rejects_non_bijection():
    with pytest.raises(MalformedPermutation):
        Permutation((0, 0, 1))
    with pytest.raises(MalformedPermutation):
        Permutation((1, 2, 3))


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert [e(i) for i in range(4)] == [0, 1, 2, 3]


def test_composition_is_left_to_right():
    a = Permutation.from_cycles([[0, 1]], 3)
    b = Permutation.from_cycles([[1, 2]], 3)
    # (a*b)(x) = b(a(x)): 0 -a-> 1 -b-> 2
    assert (a * b)(0) == 2
    assert (b * a)(0) == 1


def test_inverse_and_power():
    g = Permutation.from_cycles([[0, 1, 2, 3]], 5)
    assert (g * g.inv()).is_identity()
    assert (~g) == g.inv()
    assert g**4 == Permutation.identity(5)
    assert g**-1 == g.inv()
    assert g**3 == g.inv()


def test_conjugation_convention():
    x = Permutation.from_cycles([[0, 1]], 3)
    g = Permutation.from_cycles([[0, 1, 2]], 3)
    assert x.conj(g) == g.inv() * x * g
    # conjugation preserves cycle type and relabels points by g
    assert x.conj(g) == Permutation.from_cycles([[1, 2]], 3)


@pytest.mark.parametrize("degree", [1, 2, 9])
def test_kernel_matches_pointwise_definitions(degree):
    rng = random.Random(degree)
    a, g = (Permutation(rng.sample(range(degree), degree)) for _ in range(2))
    points = range(degree)
    assert (a * g).images == tuple(g(a(p)) for p in points)
    assert tuple(a.inv()(a(p)) for p in points) == tuple(points)
    assert a.conj(g).images == tuple(g(a(g.inv()(p))) for p in points)


def test_commutator():
    a = Permutation.from_cycles([[0, 1]], 3)
    b = Permutation.from_cycles([[0, 2]], 3)
    assert a.commutator(b) == a.inv() * b.inv() * a * b
    assert a.commutator(a).is_identity()


def test_cycles_and_order():
    g = Permutation.from_cycles([[0, 1, 2], [3, 4]], 6)
    assert g.cycles() == [(0, 1, 2), (3, 4)]
    assert g.cycle_type() == (3, 2)
    assert g.order() == 6
    assert g.moved_points() == [0, 1, 2, 3, 4]
    assert Permutation.identity(3).order() == 1


def test_cycle_notation_io_is_one_based():
    g = Permutation.from_cycles([[0, 1, 2], [3, 4]], 5)
    assert str(g) == "(1 2 3)(4 5)"
    assert Permutation.parse("(1 2 3)(4 5)") == g
    assert str(Permutation.identity(4)) == "()"


def test_parse_accepts_commas_and_whitespace():
    assert Permutation.parse("(1, 2, 3)") == Permutation.from_cycles([[0, 1, 2]], 3)
    assert Permutation.parse(" (1 2)  (3 4) ") == Permutation.from_cycles([[0, 1], [2, 3]], 4)
    assert Permutation.parse("()").is_identity()


def test_parse_roundtrip():
    for text in ["(1 2 3)(4 5)", "(2 4)", "()", "(1 7)(2 3 4)"]:
        assert str(Permutation.parse(text)) == text


def test_parse_rejects_garbage():
    for bad in ["", "1 2 3", "(1 2", "(0 1)", "(1 1 2)", "sym(3)"]:
        with pytest.raises(MalformedPermutation):
            Permutation.parse(bad)


def test_extended():
    g = Permutation.from_cycles([[0, 1]], 2)
    assert g.extended(5) == Permutation.from_cycles([[0, 1]], 5)
    with pytest.raises(ValueError):
        g.extended(1)


def test_from_cycles_validation():
    with pytest.raises(MalformedPermutation):
        Permutation.from_cycles([[0, 0]], 3)
    with pytest.raises(MalformedPermutation):
        Permutation.from_cycles([[0, 5]], 3)
