"""Report invariants do not depend on how a group is presented.

Each report's relabel-invariant fields (``invariant_fields``, the same
function the bench checks its runs with) must agree between a spec and a
``perm(...)`` copy of the group on relabelled points with shuffled
generators, and between the brute-force and the in-house search paths.
"""

import io
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oblique.group
from oblique import Permutation, build_group, parse_spec
from oblique.arith import prime_factors
from oblique.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import invariant_fields  # noqa: E402

SPECS = [
    "sym(4)",
    "alt(5)",
    "dihedral(6)",
    "direct(sym(3), cyclic(2))",
    "wreath(cyclic(3), 2, cyclic(2))",
    "affine(2, 2, [[1, 1], [0, 1]], [[0, 1], [1, 0]])",
    "sylow_of(sym(4), 2)",
]


def _perm_spec(degree, gens):
    return f"perm({degree}" + "".join(f", {g}" for g in gens) + ")"


def _relabelled(G, rng):
    """G as a perm(...) spec on randomly relabelled points, generators shuffled."""
    points = list(range(G.degree))
    rng.shuffle(points)
    sigma = Permutation(points)
    gens = [g.conj(sigma) for g in G.generators]
    rng.shuffle(gens)
    return _perm_spec(G.degree, gens)


def _argv(cmd, spec, p):
    return {
        "invariants": ["invariants", spec],
        "ob-table": ["ob-table", spec, "--max-n", "4"],
        "tate": ["tate", spec, "--p", str(p)],
        "fusion": ["fusion", spec, "--p", str(p), "--alperin"],
    }[cmd]


def _fields(cmd, spec, p, *extra):
    out = io.StringIO()
    assert main(_argv(cmd, spec, p) + list(extra), stdout=out, stderr=io.StringIO()) == 0
    return invariant_fields(cmd, json.loads(out.getvalue()))


@pytest.fixture(scope="module")
def groups(corpus):
    named = [(spec, build_group(parse_spec(spec))) for spec in SPECS]
    return named + [(_perm_spec(G.degree, G.generators), G) for G in corpus.values()]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_report_invariants_survive_relabelling(groups, data):
    spec, G = data.draw(st.sampled_from(groups), label="group")
    cmd = data.draw(st.sampled_from(["invariants", "ob-table", "tate", "fusion"]), label="command")
    p = data.draw(st.sampled_from(prime_factors(G.order) or [2]), label="p")
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="relabel seed"))
    assert _fields(cmd, _relabelled(G, rng), p) == _fields(cmd, spec, p)


@pytest.mark.parametrize(
    "cmd, spec, p",
    [
        ("fusion", "sym(5)", 2),
        ("fusion", "sym(6)", 3),
        ("fusion", "alt(6)", 2),
        ("fusion", "direct(sym(4), sym(3))", 2),
        ("tate", "sym(5)", 2),
        ("tate", "alt(6)", 3),
    ],
)
def test_search_paths_agree_across_the_brute_search_limit(monkeypatch, cmd, spec, p):
    # K = G is answered without a Sylow search, so tate takes a proper K: a
    # Sylow subgroup, found by the same search as the S inside K
    extra = ["--K", f"sylow_of({spec}, {p})"] if cmd == "tate" else []
    brute = _fields(cmd, spec, p, *extra)
    monkeypatch.setattr(oblique.group, "_BRUTE_SEARCH_LIMIT", 1)
    assert _fields(cmd, spec, p, *extra) == brute
