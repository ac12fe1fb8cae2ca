"""Textual group specifications.

A spec is a constructor name and its arguments in parentheses, separated by
commas. ``_SIGNATURES`` gives each constructor's fixed arguments, then the
argument, if any, that may repeat zero or more times after them (``...``):

    spec     := cyclic(n) | sym(n) | alt(n) | dihedral(n)
              | perm(degree, permlit, ...)
              | direct(spec, spec)
              | wreath(spec, m, spec)
              | affine(p, d, matrix, ...)
              | sylow_of(spec, p)
              | quotient(spec, spec)
    n, degree, m, p, d := integer
    permlit  := one or more parenthesised cycles, e.g. (1 2 3)(4 5), with no
                point above the declared degree (the regex ``perm._LITERAL``)
    matrix   := [[integer, ...], ...]

parse -> print -> parse round-trips; errors carry line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps
from .group import (
    PermGroup,
    affine_semidirect,
    direct_product,
    quotient_action,
    sylow,
    wreath_imprimitive,
)
from .perm import _LITERAL, MalformedPermutation, Permutation


class SpecError(ValueError):
    """Syntax or semantic error in a group specification."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class GroupSpec:
    """AST node: a constructor name with integer / spec / literal arguments."""

    constructor: str
    args: tuple = ()

    def __str__(self):
        return _print_spec(self)


def _print_arg(a):
    if isinstance(a, GroupSpec):
        return _print_spec(a)
    if isinstance(a, Permutation):
        return str(a)
    if isinstance(a, tuple):  # matrix
        return "[" + ", ".join("[" + ", ".join(str(v) for v in row) + "]" for row in a) + "]"
    return str(a)


def _print_spec(s: GroupSpec) -> str:
    return f"{s.constructor}(" + ", ".join(_print_arg(a) for a in s.args) + ")"


# Each constructor's argument signature: the readers of its fixed arguments,
# then the reader of an argument that may repeat after them (or None).
_SIGNATURES = {
    "cyclic": (["integer"], None),
    "sym": (["integer"], None),
    "alt": (["integer"], None),
    "dihedral": (["integer"], None),
    "perm": (["integer"], "permutation"),
    "direct": (["spec", "spec"], None),
    "wreath": (["spec", "integer", "spec"], None),
    "affine": (["integer", "integer"], "matrix"),
    "sylow_of": (["spec", "integer"], None),
    "quotient": (["spec", "spec"], None),
}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    # -- position and diagnostics -------------------------------------------

    def _line_col(self, pos=None):
        pos = self.pos if pos is None else pos
        consumed = self.text[:pos]
        line = consumed.count("\n") + 1
        column = pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message, pos=None):
        line, col = self._line_col(pos)
        raise SpecError(message, line, col)

    # -- lexing helpers ------------------------------------------------------

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            self.error(f"expected '{ch}', got {got!r}")
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:  # a bare '-', or a digit int() rejects such as '²'
            return int(self.text[start : self.pos])
        except ValueError:
            self.error("expected an integer", start)

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.error("expected a constructor name")
        return self.text[start : self.pos]

    # -- grammar -------------------------------------------------------------

    def spec(self) -> GroupSpec:
        start = self.pos
        ctor = self.name()
        if ctor not in _SIGNATURES:
            self.error(f"unknown constructor {ctor!r} (expected one of {sorted(_SIGNATURES)})", start)
        fixed, repeated = _SIGNATURES[ctor]
        self.expect("(")
        args = [getattr(self, fixed[0])()]
        for reader in fixed[1:]:
            self.expect(",")
            args.append(getattr(self, reader)())
        while repeated and self.peek() == ",":
            self.expect(",")
            args.append(getattr(self, repeated)(args))
        self.expect(")")
        return GroupSpec(ctor, tuple(args))

    def permutation(self, args):
        """A literal of perm(); a point above the degree args[0] is refused unbuilt."""
        self.skip_ws()
        start = self.pos
        literal = _LITERAL.match(self.text, start)
        if literal is not None:
            self.pos = literal.end()
        if literal is None or self.peek() == "(":  # no cycle, or a malformed one
            self.error("expected a permutation literal such as (1 2 3)(4 5)")
        largest = max(map(int, re.findall(r"\d+", literal.group())), default=0)
        if largest > args[0]:  # Permutation.parse's message, where the literal starts
            self.error(f"point {largest} exceeds degree {args[0]}", start)
        try:
            return Permutation.parse(literal.group())
        except MalformedPermutation as exc:
            self.error(str(exc), start)

    def bracketed(self, item):
        """``[item, ...]`` as a tuple."""
        self.expect("[")
        out = [item()]
        while self.peek() == ",":
            self.expect(",")
            out.append(item())
        self.expect("]")
        return tuple(out)

    def matrix(self, _args):
        return self.bracketed(lambda: self.bracketed(self.integer))

    def parse(self) -> GroupSpec:
        out = self.spec()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected trailing input {self.text[self.pos:]!r}")
        return out


def parse_spec(text: str) -> GroupSpec:
    return _Parser(text).parse()


def build_group(spec: GroupSpec, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Construct the permutation group a spec describes."""

    def bad(msg):
        raise SpecError(msg, 1, 1)

    c, a = spec.constructor, spec.args
    if c == "cyclic":
        if a[0] < 1:
            bad(f"cyclic({a[0]}): order must be at least 1")
        return PermGroup.cyclic(a[0], caps=caps)
    if c == "sym":
        if a[0] < 1:
            bad(f"sym({a[0]}): degree must be at least 1")
        return PermGroup.symmetric(a[0], caps=caps)
    if c == "alt":
        if a[0] < 3:
            bad(f"alt({a[0]}): degree must be at least 3")
        return PermGroup.alternating(a[0], caps=caps)
    if c == "dihedral":
        if a[0] < 3:
            bad(f"dihedral({a[0]}): polygon needs at least 3 vertices")
        return PermGroup.dihedral(a[0], caps=caps)
    if c == "perm":
        degree = a[0]
        if degree < 1:
            bad(f"perm({degree}, ...): degree must be at least 1")
        caps.check("degree", degree)
        gens = []
        for lit in a[1:]:
            if lit.degree > degree:
                bad(f"permutation {lit} moves points beyond degree {degree}")
            gens.append(lit.extended(degree))
        return PermGroup(degree, gens, caps=caps)
    if c == "direct":
        return direct_product(build_group(a[0], caps), build_group(a[1], caps), caps=caps)
    if c == "wreath":
        base, m, top = build_group(a[0], caps), a[1], build_group(a[2], caps)
        if top.degree != m:
            bad(f"wreath: top group degree {top.degree} != block count {m}")
        return wreath_imprimitive(base, m, top, caps=caps)
    if c == "affine":
        try:
            return affine_semidirect(a[0], a[1], [list(map(list, m)) for m in a[2:]], caps=caps)
        except ValueError as exc:
            bad(str(exc))
    if c == "sylow_of":
        return sylow(build_group(a[0], caps), a[1], caps=caps)
    if c == "quotient":
        G = build_group(a[0], caps)
        N = build_group(a[1], caps)
        if N.degree != G.degree:
            bad(f"quotient: degrees differ ({G.degree} vs {N.degree})")
        if not N.is_subgroup_of(G) or not N.is_normal_in(G):
            bad("quotient: second spec is not a normal subgroup of the first")
        return quotient_action(G, N, caps=caps)[0]
    bad(f"unknown constructor {c!r}")
