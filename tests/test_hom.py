import pytest

from oblique import (
    GroupHom,
    NotAHomomorphism,
    PermGroup,
    Permutation,
    quotient_action,
)


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
