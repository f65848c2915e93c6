"""Irredundant sum-of-products (ISOP) computation.

The Minato–Morreale algorithm computes an irredundant cover of an incompletely
specified function given as a pair of truth tables ``(lower, upper)`` with
``lower ⊆ f ⊆ upper`` (for a completely specified function ``lower == upper``).
Refactoring uses it to re-express the function of a large cut as a compact SOP
before algebraic factoring.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.aig.truth import cached_table_var, table_mask
from repro.synth.sop import Cover, Cube, cover_truth_table

#: Per ``num_vars``: one ``(shift, high, low)`` triple per variable, where
#: ``high``/``low`` select the minterms with the variable at 1/0 and
#: ``shift`` moves one half onto the other.
_SPLIT_MASKS: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}


def _split_masks(num_vars: int) -> Tuple[Tuple[int, int, int], ...]:
    masks = _SPLIT_MASKS.get(num_vars)
    if masks is None:
        full = table_mask(num_vars)
        masks = tuple(
            (1 << var, cached_table_var(var, num_vars), full ^ cached_table_var(var, num_vars))
            for var in range(num_vars)
        )
        _SPLIT_MASKS[num_vars] = masks
    return masks


def isop(lower: int, upper: int, num_vars: int) -> Cover:
    """Return an irredundant cover ``C`` with ``lower ⊆ C ⊆ upper``.

    Raises ``ValueError`` when ``lower`` is not contained in ``upper``.
    """
    mask = table_mask(num_vars)
    lower &= mask
    upper &= mask
    if lower & ~upper:
        raise ValueError("lower bound is not contained in the upper bound")
    return [Cube(pos, neg) for pos, neg in isop_cubes(lower, upper, num_vars)]


def isop_cover(table: int, num_vars: int) -> Cover:
    """Return an irredundant cover of the completely specified function ``table``."""
    return isop(table, table, num_vars)


def isop_cubes(lower: int, upper: int, num_vars: int) -> List[Tuple[int, int]]:
    """Minato–Morreale ISOP of ``lower ⊆ f ⊆ upper`` as ``(pos, neg)`` pairs.

    Expects both bounds already masked to ``num_vars`` inputs with
    ``lower ⊆ upper``.  Each step splits on the top-most variable either
    bound depends on and recurses on three subproblems: minterms only the
    negative branch can cover, those only the positive branch can cover,
    and what is left for cubes free of the variable.  Cofactors and
    dependence tests are shift-and-mask operations on the whole table; the
    cube prefix travels down the recursion, so cubes come out in final
    order without re-wrapping at every level.
    """
    mask = table_mask(num_vars)
    masks = _split_masks(num_vars)
    cubes: List[Tuple[int, int]] = []
    emit = cubes.append

    def recurse(lower: int, upper: int, var: int, pos: int, neg: int) -> int:
        """Emit the cover of ``(lower, upper)`` under prefix ``(pos, neg)``; return its table."""
        if lower == 0:
            return 0
        if upper == mask:
            emit((pos, neg))
            return mask
        while var >= 0:
            shift, high, low = masks[var]
            if ((lower >> shift) ^ lower) & low or ((upper >> shift) ^ upper) & low:
                break
            var -= 1
        else:
            # Neither bound depends on a remaining variable and lower != 0.
            emit((pos, neg))
            return mask
        lower1 = lower & high
        lower1 |= lower1 >> shift
        upper1 = upper & high
        upper1 |= upper1 >> shift
        lower0 = lower & low
        lower0 |= lower0 << shift
        upper0 = upper & low
        upper0 |= upper0 << shift
        bit = 1 << var
        # Minterms that can only be covered in the negative / positive branch.
        table0 = recurse(lower0 & ~upper1, upper0, var - 1, pos, neg | bit)
        table1 = recurse(lower1 & ~upper0, upper1, var - 1, pos | bit, neg)
        # What remains must be covered by cubes independent of the split variable.
        table2 = recurse(
            (lower0 & ~table0) | (lower1 & ~table1), upper0 & upper1, var - 1, pos, neg
        )
        return (table0 & low) | (table1 & high) | table2

    recurse(lower, upper, num_vars - 1, 0, 0)
    return cubes


def verify_cover(cover: Sequence[Cube], table: int, num_vars: int) -> bool:
    """Return whether ``cover`` implements exactly ``table``."""
    return cover_truth_table(cover, num_vars) == (table & table_mask(num_vars))
