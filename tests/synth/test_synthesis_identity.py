"""The optimized first-sight synthesis routines match their straightforward forms.

NPN canonicalization, ISOP and quick factoring feed every rewriting and
refactoring decision, so any difference in their output — another
transform among equal minima, another cube order, another ``Expr`` shape —
would change which fragments get built and therefore the optimized designs.
Each routine is compared output for output with the reference copy in
:mod:`oracles`.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repro.aig.npn import npn_canonical
from repro.aig.truth import table_mask
from repro.synth.factor import factor_cover
from repro.synth.isop import isop, isop_cover
from repro.synth.refactor import refactor_fragment
from repro.synth.sop import Cube


def test_npn_canonical_matches_oracle_on_all_small_tables():
    for num_vars in (0, 1, 2, 3):
        for table in range(1 << (1 << num_vars)):
            assert npn_canonical(table, num_vars) == oracles.npn_canonical(table, num_vars)


def test_npn_canonical_matches_oracle_on_seeded_4_input_tables():
    rng = random.Random(14)
    # Include the symmetric tables, where many transforms tie for the minimum.
    tables = [0, 0xFFFF, 0x6996, 0x8000, 0x7FFF, 0x8421] + [rng.getrandbits(16) for _ in range(4090)]
    for table in tables:
        assert npn_canonical(table, 4) == oracles.npn_canonical(table, 4), hex(table)


@st.composite
def bounded_functions(draw, max_vars=12):
    """``(lower, upper, num_vars)`` with ``lower ⊆ upper``; dense or sparse on-sets."""
    num_vars = draw(st.integers(min_value=2, max_value=max_vars))
    mask = table_mask(num_vars)
    table = draw(st.integers(min_value=0, max_value=mask))
    if draw(st.booleans()):
        # Sparser on-sets give the many-level covers that cones produce.
        table &= draw(st.integers(min_value=0, max_value=mask))
    upper = table | draw(st.integers(min_value=0, max_value=mask))
    return table, upper, num_vars


@settings(max_examples=60)
@given(bounded_functions())
def test_isop_and_factor_match_oracle(function):
    lower, upper, num_vars = function
    cover = isop_cover(lower, num_vars)
    assert cover == oracles.isop_cover(lower, num_vars)
    assert factor_cover(cover) == oracles.factor_cover(cover)

    widened = isop(lower, upper, num_vars)
    assert widened == oracles.isop(lower, upper, num_vars)
    assert factor_cover(widened) == oracles.factor_cover(widened)


@settings(max_examples=60)
@given(bounded_functions())
def test_refactor_fragment_matches_oracle(function):
    table, _, num_vars = function
    fragment = refactor_fragment(table, num_vars)
    expected = oracles.refactor_fragment(table, num_vars)
    assert (fragment.num_leaves, fragment.nodes, fragment.output) == (
        expected.num_leaves,
        expected.nodes,
        expected.output,
    )


@st.composite
def arbitrary_covers(draw):
    """Covers that no ISOP returns: repeated, contained and empty cubes."""
    num_vars = draw(st.integers(min_value=1, max_value=6))
    cubes = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        pos = draw(st.integers(min_value=0, max_value=(1 << num_vars) - 1))
        neg = draw(st.integers(min_value=0, max_value=(1 << num_vars) - 1)) & ~pos
        cubes.append(Cube(pos, neg))
    return cubes


@given(arbitrary_covers())
def test_factor_matches_oracle_on_arbitrary_covers(cover):
    assert factor_cover(cover) == oracles.factor_cover(cover)


def test_factor_keeps_constant_quotients():
    # x0 + x0 x1 + x2 + x2 x3: both quotients contain the empty cube, which
    # quick factoring keeps as a constant-1 operand rather than absorbing.
    cover = [Cube(0b0001, 0), Cube(0b0011, 0), Cube(0b0100, 0), Cube(0b1100, 0)]
    expr = factor_cover(cover)
    assert expr == oracles.factor_cover(cover)
    assert str(expr) == "((x0 & 1) | (x2 & 1))"
