"""Algebraic factoring of sum-of-products covers.

Refactoring and the rewriting library both need to turn a flat SOP cover into
a multi-level factored form with few literals.  The implementation follows the
classic *quick factoring* recipe (common-cube extraction followed by division
by the most frequent literal), which is what ABC's ``Dec_Factor`` family uses
as its workhorse.

The result is an expression tree (:class:`Expr`) that is subsequently turned
into an AIG replacement fragment (:mod:`repro.synth.fragment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.aig.truth import table_mask
from repro.synth.sop import Cover


@dataclass(frozen=True)
class Expr:
    """A node of a factored-form expression tree.

    ``kind`` is one of ``"const0"``, ``"const1"``, ``"lit"``, ``"and"`` or
    ``"or"``.  For ``"lit"`` nodes, ``var``/``negated`` identify the literal;
    for ``"and"``/``"or"`` nodes, ``children`` holds the operands.
    """

    kind: str
    var: int = -1
    negated: bool = False
    children: Tuple["Expr", ...] = field(default_factory=tuple)

    # Constructors ----------------------------------------------------- #
    @staticmethod
    def const0() -> "Expr":
        return Expr("const0")

    @staticmethod
    def const1() -> "Expr":
        return Expr("const1")

    @staticmethod
    def literal(var: int, negated: bool = False) -> "Expr":
        return Expr("lit", var=var, negated=negated)

    @staticmethod
    def and_(children: Sequence["Expr"]) -> "Expr":
        children = tuple(children)
        if not children:
            return Expr.const1()
        if len(children) == 1:
            return children[0]
        return Expr("and", children=children)

    @staticmethod
    def or_(children: Sequence["Expr"]) -> "Expr":
        children = tuple(children)
        if not children:
            return Expr.const0()
        if len(children) == 1:
            return children[0]
        return Expr("or", children=children)

    # Metrics ----------------------------------------------------------- #
    def literal_count(self) -> int:
        """Number of literal occurrences in the expression (factored-form cost)."""
        if self.kind == "lit":
            return 1
        if self.kind in ("const0", "const1"):
            return 0
        return sum(child.literal_count() for child in self.children)

    def depth(self) -> int:
        """Expression-tree depth (constants and literals have depth 0)."""
        if self.kind in ("lit", "const0", "const1"):
            return 0
        return 1 + max(child.depth() for child in self.children)

    def __str__(self) -> str:
        if self.kind == "const0":
            return "0"
        if self.kind == "const1":
            return "1"
        if self.kind == "lit":
            return f"!x{self.var}" if self.negated else f"x{self.var}"
        separator = " & " if self.kind == "and" else " | "
        return "(" + separator.join(str(child) for child in self.children) + ")"


def factor_cover(cover: Cover) -> Expr:
    """Return a factored form of the cover using quick (literal-based) factoring."""
    return factor_cubes([(cube.pos, cube.neg) for cube in cover])


def factor_cubes(cubes: Sequence[Tuple[int, int]]) -> Expr:
    """Quick factoring of a cover given as ``(pos, neg)`` bitmask pairs.

    Each step either pulls out the cube common to every product term or
    divides by the most frequent literal (the first in variable order,
    positive before negative, among those appearing more than once), and
    emits the flat SOP when neither applies.  Both moves only ever *remove*
    literals that every cube of the current subset contains, so a recursive
    call is fully described by a bitset of cube indices plus the removed
    literals.  Literal counts are popcounts of per-literal cube bitsets, and
    each call scans only the literals its subset still contains.

    Literal ``2 * var + negated`` is bit ``2 * var + negated`` of a cube's
    literal mask, so ascending bit order is variable order with the
    positive literal first.
    """
    if not cubes:
        return Expr.const0()
    literal_masks = [_spread(pos) | (_spread(neg) << 1) for pos, neg in cubes]
    # Per literal: the bitset of the cubes containing it, read off the
    # columns of the cube-by-literal bit matrix (last cube in the top row,
    # so each column parses straight into the bitset).
    width = max(max(literal_masks).bit_length(), 1)
    rows = [format(mask, "0%db" % width) for mask in reversed(literal_masks)]
    leaves = [_literal(index) for index in range(width)]
    literals = []
    for index, column in enumerate(reversed(list(zip(*rows)))):
        cubes_with = int("".join(column), 2)
        if cubes_with:
            literals.append((cubes_with, 1 << index, leaves[index]))

    def cube_expr(mask: int) -> Expr:
        if not mask & (mask - 1):
            return leaves[mask.bit_length() - 1] if mask else _CONST1
        factors = []
        while mask:
            low = mask & -mask
            factors.append(leaves[low.bit_length() - 1])
            mask ^= low
        return Expr("and", children=tuple(factors))

    def factor(subset: int, active: list, removed: int) -> Expr:
        """Factor the cubes in ``subset`` with the ``removed`` literals dropped.

        Every cube of ``subset`` contains all removed literals.  ``active``
        holds every other literal that occurs in ``subset``, possibly with
        absent or removed ones, which are skipped.
        """
        if not subset & (subset - 1):
            # One cube; with every literal removed it is the empty cube (1).
            return cube_expr(literal_masks[subset.bit_length() - 1] & ~removed)
        covered = 0
        common = 0
        kept = []
        best = None
        best_count = 1
        for entry in active:
            cubes_with, lbit, _ = entry
            inside = cubes_with & subset
            if not inside:
                continue
            if inside == subset:
                # In every cube: a common literal, or the literal that the
                # caller divided by (already removed).
                if not lbit & removed:
                    covered = subset
                    common |= lbit
                continue
            covered |= inside
            kept.append(entry)
            if inside & (inside - 1):
                count = bin(inside).count("1")
                if count > best_count:
                    best, best_count = entry, count
        if covered != subset:
            # A cube with no literal left is the constant-1 product term.
            return _CONST1
        # 1. Extract the largest common cube shared by every product term.
        if common:
            return Expr("and", children=(cube_expr(common), factor(subset, kept, removed | common)))
        # 2. Divide by the most frequent literal (when it appears more than once).
        if best is None:
            # No sharing opportunities: emit the flat SOP.
            terms = []
            while subset:
                low = subset & -subset
                terms.append(cube_expr(literal_masks[low.bit_length() - 1] & ~removed))
                subset ^= low
            return Expr("or", children=tuple(terms))
        cubes_with, lbit, expr = best
        # The literal is not in every cube, so the remainder is never empty.
        divided = Expr("and", children=(expr, factor(subset & cubes_with, kept, removed | lbit)))
        return Expr("or", children=(divided, factor(subset & ~cubes_with, kept, removed)))

    return factor((1 << len(cubes)) - 1, literals, 0)


_CONST1 = Expr.const1()
_LITERALS: Dict[int, Expr] = {}
#: ``_SPREAD_BYTE[b]`` moves bit ``i`` of byte ``b`` to bit ``2 * i``.
_SPREAD_BYTE = [sum(((byte >> i) & 1) << (2 * i) for i in range(8)) for byte in range(256)]


def _spread(mask: int) -> int:
    """Move bit ``i`` of ``mask`` to bit ``2 * i`` (variable -> literal index)."""
    spread = 0
    shift = 0
    while mask:
        spread |= _SPREAD_BYTE[mask & 255] << shift
        mask >>= 8
        shift += 16
    return spread


def _literal(index: int) -> Expr:
    """Shared leaf of literal ``2 * var + negated`` (``Expr`` is immutable)."""
    expr = _LITERALS.get(index)
    if expr is None:
        expr = _LITERALS[index] = Expr.literal(index >> 1, bool(index & 1))
    return expr


def expr_truth_table(expr: Expr, num_vars: int) -> int:
    """Evaluate the expression into a truth table (used by tests)."""
    from repro.aig.truth import cached_table_var

    mask = table_mask(num_vars)
    if expr.kind == "const0":
        return 0
    if expr.kind == "const1":
        return mask
    if expr.kind == "lit":
        table = cached_table_var(expr.var, num_vars)
        return table ^ mask if expr.negated else table
    tables = [expr_truth_table(child, num_vars) for child in expr.children]
    result = mask if expr.kind == "and" else 0
    for table in tables:
        result = (result & table) if expr.kind == "and" else (result | table)
    return result


def factor_truth_table(table: int, num_vars: int) -> Expr:
    """ISOP + quick factoring of a completely specified function."""
    from repro.synth.isop import isop_cubes

    table &= table_mask(num_vars)
    return factor_cubes(isop_cubes(table, table, num_vars))
