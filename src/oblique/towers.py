"""Finite approximation towers and invariant sequences along them.

A Tower is a chain G_1 <- G_2 <- ... of finite groups with surjective,
certified homomorphisms pointing downward; the families built here are the
cyclic towers (approximating the p-adic integers), the iterated wreath
towers (Sylow p-subgroups of Sym(p^k)), and the Fitting-degenerate towers
whose Fitting indices grow without bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime, legendre_factorial_valuation
from .caps import DEFAULT_CAPS, Caps
from .group import PermGroup, affine_semidirect, wreath_imprimitive
from .hom import GroupHom
from .lattice import _class_seeds, _fitting_mask, _ob_core, _size, ob_function
from .perm import Permutation


@dataclass
class Tower:
    """levels[0] is the head (smallest quotient); maps[i]: levels[i+1] -> levels[i]."""

    levels: list
    maps: list
    family: str
    params: tuple

    def __post_init__(self):
        if len(self.maps) != len(self.levels) - 1:
            raise ValueError("a tower needs one map per consecutive pair of levels")
        for i, hom in enumerate(self.maps):
            if hom.domain is not self.levels[i + 1] or hom.codomain is not self.levels[i]:
                raise ValueError(f"map {i} does not connect levels {i + 1} -> {i}")
            if not hom.is_surjective():
                raise ValueError(f"tower map {i} is not surjective")

    def __len__(self):
        return len(self.levels)


def cyclic_tower(p: int, depth: int, caps: Caps = DEFAULT_CAPS) -> Tower:
    """C_p <- C_{p^2} <- ... as cycles on p^i points."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    caps.check_power("degree", p, depth)
    levels = [PermGroup.cyclic(p**i, caps=caps) for i in range(1, depth + 1)]
    maps = []
    for i in range(depth - 1):
        gen_image = levels[i].generators[0]
        maps.append(GroupHom(levels[i + 1], levels[i], [gen_image], caps=caps))
    return Tower(levels, maps, "cyclic", (p, depth))


def wreath_tower(p: int, depth: int, caps: Caps = DEFAULT_CAPS) -> Tower:
    """Iterated wreath products: level k is the Sylow p-subgroup of Sym(p^k).

    Level k is C_p wreathing level k-1 on p^{k-1} blocks of size p; the map
    to level k-1 is the action on blocks (killing the newest base).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    caps.check_power("degree", p, depth)
    levels = [PermGroup.cyclic(p, caps=caps)]
    maps = []
    for k in range(2, depth + 1):
        prev = levels[-1]
        W = wreath_imprimitive(PermGroup.cyclic(p, caps=caps), prev.degree, prev, caps=caps)
        images = []
        for g in W.generators:
            block_images = tuple(g(b * p) // p for b in range(prev.degree))
            images.append(Permutation(block_images))
        maps.append(GroupHom(W, prev, images, caps=caps))
        levels.append(W)
    for k, W in enumerate(levels, start=1):
        expected = p ** legendre_factorial_valuation(p**k, p)
        if W.order != expected:
            raise AssertionError(f"wreath tower level {k} has order {W.order}, expected {expected}")
    return Tower(levels, maps, "wreath", (p, depth))


def _permutation_matrices(G: PermGroup, p: int):
    """The generators of G as permutation matrices over F_p."""
    d = G.degree
    mats = []
    for g in G.generators:
        mats.append([[1 if g(c) == r else 0 for c in range(d)] for r in range(d)])
    return mats


def fitting_degenerate_tower(primes, depth: int, caps: Caps = DEFAULT_CAPS) -> Tower:
    """G_1 = C_{p_1}; G_{i+1} = (permutation module over F_{p_{i+1}}) : G_i.

    Each step glues an elementary abelian p_{i+1}-group on which G_i acts
    faithfully, so the Fitting index grows without bound along the tower.
    """
    primes = tuple(primes)
    if depth < 1 or depth > 4:
        raise ValueError("depth must be between 1 and 4 (degrees grow as iterated exponentials)")
    if len(primes) < depth:
        raise ValueError(f"need {depth} primes, got {len(primes)}")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    for a, b in zip(primes, primes[1:]):
        if a == b:
            raise ValueError("consecutive primes must be distinct (the action must be coprime-free)")
    levels = [PermGroup.cyclic(primes[0], caps=caps)]
    maps = []
    for i in range(1, depth):
        prev = levels[-1]
        p = primes[i]
        needs = f"fitting_degenerate_tower level {i + 1} needs degree {p}^{prev.degree}"
        caps.check_power("degree", p, prev.degree, f"{needs}, above the degree cap {caps.degree}")
        G = affine_semidirect(p, prev.degree, _permutation_matrices(prev, p), caps=caps)
        # generators: deg(prev) translations, then one matrix generator per
        # generator of the previous level; the map kills the translations
        images = [prev.identity()] * prev.degree + list(prev.generators)
        maps.append(GroupHom(G, prev, images, caps=caps))
        levels.append(G)
    return Tower(levels, maps, "fitting-degenerate", (primes[:depth], depth))


def _preimage(hom: GroupHom, mask: int, caps: Caps) -> int:
    """The class mask of the full preimage under ``hom`` of the normal subgroup of
    its codomain with class mask ``mask``: the classes whose representative maps into it."""
    class_of = _class_seeds(hom.codomain, caps=caps)[0].class_of
    images = (hom.apply(Permutation(rep)).images for rep in _class_seeds(hom.domain, caps=caps)[0].reps)
    return sum(1 << c for c, y in enumerate(images) if mask >> class_of(y) & 1)


def tower_ob_sequence(tower: Tower, n: int, caps: Caps = DEFAULT_CAPS):
    """(ob_{G_1}(n), ..., ob_{G_k}(n)) and a stability flag.

    The flag marks a limit candidate only: it is set when the last two
    values agree and the deepest oblique-core subgroup is the full preimage
    of the previous level's, certified through the tower map.
    """
    values = [ob_function(G, n, caps=caps) for G in tower.levels]
    stable = False
    if len(tower.levels) >= 2 and values[-1] == values[-2]:
        prev = _ob_core(tower.levels[-2], n, caps)
        stable = _ob_core(tower.levels[-1], n, caps) == _preimage(tower.maps[-1], prev, caps)
    return values, stable


def tower_fitting_sequence(tower: Tower, caps: Caps = DEFAULT_CAPS):
    """Indices |G_i : F_i| where F_i cuts F(G_j) back through every map. As
    preimages commute with meets, F_i is F(G_i) meet the preimage of F_{i-1}."""
    indices = []
    for i, G in enumerate(tower.levels):
        F = _fitting_mask(G, caps)
        if i:
            F &= _preimage(tower.maps[i - 1], F_prev, caps)
        indices.append(G.order // _size(_class_seeds(G)[0], F))
        F_prev = F
    return indices


def ji_certificate(tower: Tower, eta, caps: Caps = DEFAULT_CAPS):
    """Per level: all ob_{G_i}(n) <= bound over the (n, bound) pairs in eta."""
    eta = list(eta)
    out = []
    for G in tower.levels:
        out.append(all(ob_function(G, n, caps=caps) <= bound for n, bound in eta))
    return out
