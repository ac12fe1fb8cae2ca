"""Permutations on {0, ..., degree-1} with 1-based cycle notation at the I/O
boundary.

Products compose left-to-right: ``(a * b)(x) == b(a(x))``, so conjugation is
``x ** g == g.inv() * x * g`` and orbits/transversals read naturally as right
actions.
"""

from __future__ import annotations

import re
from functools import reduce
from math import lcm
from operator import itemgetter


class MalformedPermutation(ValueError):
    pass


# 1-based cycle notation: parenthesised cycles whose points are separated by
# blanks or by one comma, e.g. "(1 2 3)(4, 5)"; the identity is "()"
_LITERAL = re.compile(r"(?:\(\s*(?:\d+(?:\s*,\s*\d+|\s+\d+)*)?\s*\)\s*)+")


# ---------------------------------------------------------------------------
# the kernel on image tuples (hot paths avoid Permutation objects)


def _compose(a, b):
    """(a then b) as image tuples."""
    # itemgetter of several indices returns a tuple, several times faster than
    # a Python-level loop; of a single index it returns the bare item
    return itemgetter(*a)(b) if len(a) > 1 else tuple(b[i] for i in a)


def _inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def _conj(x, g, g_inv):
    """x^g = g^-1 x g as image tuples."""
    return _compose(_compose(g_inv, x), g)


class Permutation:
    """An immutable bijection on {0, ..., degree-1}."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise MalformedPermutation(f"not a bijection on 0..{len(images) - 1}: {images}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(degree))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Permutation":
        """Build from 0-based cycles."""
        images = list(range(degree))
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise MalformedPermutation(f"repeated point in cycle {cycle}")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 0 <= a < degree:
                    raise MalformedPermutation(f"point {a} out of range for degree {degree}")
                images[a] = b
        return Permutation(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch in product")
        return Permutation(_compose(self.images, other.images))

    def inv(self) -> "Permutation":
        return Permutation(_inverse(self.images))

    def __invert__(self) -> "Permutation":
        return self.inv()

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inv() ** (-n)
        result = Permutation.identity(len(self.images))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self, g: "Permutation") -> "Permutation":
        """self ** g = g^-1 * self * g."""
        return Permutation(_conj(self.images, g.images, _inverse(g.images)))

    def commutator(self, other: "Permutation") -> "Permutation":
        return self.inv() * other.inv() * self * other

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self):
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def cycle_type(self):
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        return reduce(lcm, (len(c) for c in self.cycles()), 1)

    def moved_points(self):
        return [i for i, j in enumerate(self.images) if i != j]

    def extended(self, degree: int) -> "Permutation":
        """The same permutation acting on a larger point set."""
        if degree < len(self.images):
            raise ValueError("cannot shrink a permutation")
        return Permutation(self.images + tuple(range(len(self.images), degree)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation.parse({str(self)!r}, degree={len(self.images)})"

    @staticmethod
    def parse(text: str, degree: int | None = None) -> "Permutation":
        """Parse 1-based cycle notation, e.g. "(1 2 3)(4 5)"; identity is "()"."""
        stripped = text.strip()
        if not _LITERAL.fullmatch(stripped):
            raise MalformedPermutation(f"cannot parse permutation {text!r}")
        cycles = []
        for body in re.findall(r"\(([^()]*)\)", stripped):
            points = [int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
            if any(p < 1 for p in points):
                raise MalformedPermutation("cycle notation is 1-based; saw a point < 1")
            cycles.append([p - 1 for p in points])
        needed = max((max(c) + 1 for c in cycles if c), default=0)
        if degree is None:
            degree = needed
        elif needed > degree:
            raise MalformedPermutation(f"point {needed} exceeds degree {degree}")
        return Permutation.from_cycles(cycles, degree)
