"""Sum-of-products (cube cover) representation.

A *cube* is a conjunction of literals over ``num_vars`` variables, stored as a
pair of bitmasks ``(pos, neg)``: bit ``i`` of ``pos`` means variable ``i``
appears positively, bit ``i`` of ``neg`` means it appears complemented.  A
*cover* is a list of cubes interpreted as their disjunction.  Covers are the
exchange format between ISOP extraction and algebraic factoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.aig.truth import cached_table_var, table_mask


@dataclass(frozen=True)
class Cube:
    """A product term: ``pos``/``neg`` bitmasks of positive/negative literals."""

    pos: int
    neg: int

    def __post_init__(self) -> None:
        if self.pos & self.neg:
            raise ValueError("a cube cannot contain both polarities of a variable")

    @property
    def num_literals(self) -> int:
        """Number of literals in the cube."""
        return bin(self.pos).count("1") + bin(self.neg).count("1")

    def literals(self) -> List[Tuple[int, bool]]:
        """Return ``(variable, is_complemented)`` pairs, sorted by variable."""
        result = []
        mask = self.pos | self.neg
        var = 0
        while mask:
            if mask & 1:
                result.append((var, bool((self.neg >> var) & 1)))
            mask >>= 1
            var += 1
        return result

    def truth_table(self, num_vars: int) -> int:
        """Return the truth table of the cube over ``num_vars`` variables."""
        table = table_mask(num_vars)
        for var, negative in self.literals():
            var_table = cached_table_var(var, num_vars)
            table &= (var_table ^ table_mask(num_vars)) if negative else var_table
        return table

    def is_tautology(self) -> bool:
        """Return whether the cube has no literals (constant true)."""
        return self.pos == 0 and self.neg == 0


Cover = List[Cube]


def cover_truth_table(cover: Sequence[Cube], num_vars: int) -> int:
    """Return the truth table of the disjunction of the cubes."""
    table = 0
    for cube in cover:
        table |= cube.truth_table(num_vars)
    return table


def cover_num_literals(cover: Sequence[Cube]) -> int:
    """Return the total literal count of the cover (the classic cost metric)."""
    return sum(cube.num_literals for cube in cover)
