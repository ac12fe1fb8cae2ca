"""Shared corpus and independent brute-force oracles.

The oracles here deliberately avoid the library's stabilizer chains: they
work on raw image tuples with set arithmetic, so they can cross-validate the
engine.
"""

from __future__ import annotations

import pytest

from oblique import PermGroup, direct_product, wreath_imprimitive, affine_semidirect


def _compose(a, b):
    return tuple(b[x] for x in a)


def chain_fields(chain):
    """Every field of a chain, dict order included."""
    return (
        chain.degree,
        chain.base,
        [list(t.items()) for t in chain.transversals],
        [list(inv.items()) for inv in chain.inverses],
        chain._gens,
        chain._orbits,
        chain._paired,
        chain._ident,
    )


def brute_closure(degree, gen_tuples):
    """All products of the generators, by plain BFS multiplication."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gen_tuples:
                f = _compose(e, g)
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return seen


def brute_conjugacy_classes(elements):
    """Partition a closed element set into conjugacy classes (raw loops)."""
    elements = list(elements)
    inverse = {e: tuple(sorted(range(len(e)), key=e.__getitem__)) for e in elements}
    remaining = set(elements)
    classes = []
    while remaining:
        x = remaining.pop()
        cls = {x}
        for g in elements:
            y = _compose(_compose(inverse[g], x), g)
            cls.add(y)
        remaining -= cls
        classes.append(frozenset(cls))
    return classes


def brute_normal_subgroups(G: PermGroup, max_classes=16):
    """Every normal subgroup, as element frozensets.

    A normal subgroup is exactly a union of conjugacy classes (containing the
    identity) that is closed under multiplication; this enumerates all such
    unions directly.
    """
    elements = set(G.element_tuples())
    classes = brute_conjugacy_classes(elements)
    ident = tuple(range(G.degree))
    id_class = next(c for c in classes if ident in c)
    rest = [c for c in classes if c is not id_class]
    if len(rest) > max_classes:
        raise ValueError(f"too many classes for the union oracle ({len(rest)})")
    out = set()
    for mask in range(1 << len(rest)):
        union = set(id_class)
        for i, c in enumerate(rest):
            if mask >> i & 1:
                union |= c
        if len(elements) % len(union):
            continue
        if all(_compose(a, b) in union for a in union for b in union):
            out.add(frozenset(union))
    return out


def brute_all_subgroups(G: PermGroup):
    """Every subgroup, as element frozensets, by one-generator extensions."""
    elements = sorted(G.element_tuples())
    ident = tuple(range(G.degree))
    found = {frozenset([ident])}
    frontier = [frozenset([ident])]
    while frontier:
        nxt = []
        for sub in frontier:
            gens = list(sub)
            for x in elements:
                if x in sub:
                    continue
                bigger = frozenset(brute_closure(G.degree, gens + [x]))
                if bigger not in found:
                    found.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return found


def _c(n):
    return PermGroup.cyclic(n)


def _s(n):
    return PermGroup.symmetric(n)


def _a(n):
    return PermGroup.alternating(n)


def _d(n):
    return PermGroup.dihedral(n)


def make_corpus():
    """Named groups of order at most 2000."""
    corpus = {}
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 20, 30):
        corpus[f"C{n}"] = _c(n)
    for n in (2, 3, 4, 5, 6):
        corpus[f"S{n}"] = _s(n)
    for n in (3, 4, 5, 6):
        corpus[f"A{n}"] = _a(n)
    for n in range(3, 13):
        corpus[f"D{n}"] = _d(n)
    corpus["C2xC2"] = direct_product(_c(2), _c(2))
    corpus["C2xC4"] = direct_product(_c(2), _c(4))
    corpus["C3xC3"] = direct_product(_c(3), _c(3))
    corpus["C9xC3"] = direct_product(_c(9), _c(3))
    corpus["S3xC2"] = direct_product(_s(3), _c(2))
    corpus["S3xS3"] = direct_product(_s(3), _s(3))
    corpus["S4xC2"] = direct_product(_s(4), _c(2))
    corpus["A4xC3"] = direct_product(_a(4), _c(3))
    corpus["A4xC2"] = direct_product(_a(4), _c(2))
    corpus["A5xC2"] = direct_product(_a(5), _c(2))
    corpus["S5xC2"] = direct_product(_s(5), _c(2))
    corpus["C2wrC2"] = wreath_imprimitive(_c(2), 2, _c(2))
    corpus["C2wrC3"] = wreath_imprimitive(_c(2), 3, _c(3))
    corpus["C3wrC2"] = wreath_imprimitive(_c(3), 2, _c(2))
    corpus["S3wrC2"] = wreath_imprimitive(_s(3), 2, _c(2))
    corpus["C2wrS3"] = wreath_imprimitive(_c(2), 3, _s(3))
    corpus["AGL12"] = affine_semidirect(2, 1, [])
    corpus["AGL15"] = affine_semidirect(5, 1, [[[2]]])
    corpus["AGL22"] = affine_semidirect(2, 2, [[[1, 1], [0, 1]], [[0, 1], [1, 0]]])
    return corpus


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()
