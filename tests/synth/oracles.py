"""Frozen reference copies of the first-sight synthesis routines.

These are the straightforward implementations of NPN canonicalization
(object-dtype matmul over all 768 transforms), Minato–Morreale ISOP (one
``cofactor`` call per bound and branch, ``Cube`` objects built per level) and
quick factoring (``Cube.literals`` scans per recursion step) that the
optimized modules replaced.  The identity tests compare the optimized
routines against them output for output: same canonical table and transform,
same cubes in the same order, same ``Expr`` trees and same fragments.
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

import numpy as np

from repro.aig.literals import lit_not
from repro.aig.npn import NpnTransform
from repro.aig.truth import cached_table_var, cofactor, depends_on, table_mask
from repro.synth.factor import Expr
from repro.synth.fragment import Fragment
from repro.synth.sop import Cover, Cube

_TRANSFORMS = {}
_MATRICES = {}


def _transforms(num_vars: int) -> List[NpnTransform]:
    transforms = _TRANSFORMS.get(num_vars)
    if transforms is None:
        transforms = []
        for permutation in itertools.permutations(range(num_vars)):
            for negation_bits in range(1 << num_vars):
                negations = tuple(bool((negation_bits >> i) & 1) for i in range(num_vars))
                for output_negation in (False, True):
                    transforms.append(NpnTransform(permutation, negations, output_negation))
        _TRANSFORMS[num_vars] = transforms
    return transforms


def _transform_matrices(num_vars: int) -> tuple:
    cached = _MATRICES.get(num_vars)
    if cached is not None:
        return cached
    transforms = _transforms(num_vars)
    num_minterms = 1 << num_vars
    sources = np.zeros((len(transforms), num_minterms), dtype=np.int64)
    negations = np.zeros(len(transforms), dtype=np.int64)
    for t_index, transform in enumerate(transforms):
        negations[t_index] = int(transform.output_negation)
        for minterm in range(num_minterms):
            source = 0
            for slot in range(num_vars):
                original = transform.permutation[slot]
                bit = (minterm >> slot) & 1
                if transform.input_negations[original]:
                    bit ^= 1
                source |= bit << original
            sources[t_index, minterm] = source
    weights = 1 << np.arange(num_minterms, dtype=np.object_)
    cached = (sources, negations, weights)
    _MATRICES[num_vars] = cached
    return cached


def npn_canonical(table: int, num_vars: int) -> Tuple[int, NpnTransform]:
    """Exhaustive NPN canonicalization through an object-dtype matmul."""
    transforms = _transforms(num_vars)
    sources, negations, weights = _transform_matrices(num_vars)
    num_minterms = 1 << num_vars
    bits = np.array([(table >> m) & 1 for m in range(num_minterms)], dtype=np.int64)
    candidates = bits[sources]
    candidates ^= negations[:, None]
    values = candidates.astype(np.object_) @ weights
    best_index = int(np.argmin(values))
    return int(values[best_index]), transforms[best_index]


def isop(lower: int, upper: int, num_vars: int) -> Cover:
    """Minato–Morreale ISOP built from ``cofactor``/``depends_on`` calls."""
    mask = table_mask(num_vars)
    lower &= mask
    upper &= mask
    if lower & ~upper & mask:
        raise ValueError("lower bound is not contained in the upper bound")
    cover, _ = _isop_recursive(lower, upper, num_vars, num_vars - 1)
    return cover


def isop_cover(table: int, num_vars: int) -> Cover:
    return isop(table, table, num_vars)


def _isop_recursive(lower: int, upper: int, num_vars: int, var: int) -> tuple:
    mask = table_mask(num_vars)
    if lower == 0:
        return [], 0
    if upper == mask:
        return [Cube(0, 0)], mask
    split = None
    for candidate in range(var, -1, -1):
        if depends_on(lower, num_vars, candidate) or depends_on(upper, num_vars, candidate):
            split = candidate
            break
    if split is None:
        return [Cube(0, 0)], mask

    lower0 = cofactor(lower, num_vars, split, 0)
    lower1 = cofactor(lower, num_vars, split, 1)
    upper0 = cofactor(upper, num_vars, split, 0)
    upper1 = cofactor(upper, num_vars, split, 1)

    cover0, table0 = _isop_recursive(lower0 & ~upper1 & mask, upper0, num_vars, split - 1)
    cover1, table1 = _isop_recursive(lower1 & ~upper0 & mask, upper1, num_vars, split - 1)
    remaining_lower = (lower0 & ~table0 & mask) | (lower1 & ~table1 & mask)
    cover2, table2 = _isop_recursive(remaining_lower, upper0 & upper1, num_vars, split - 1)

    neg_bit = 1 << split
    cover: Cover = []
    cover.extend(Cube(cube.pos, cube.neg | neg_bit) for cube in cover0)
    cover.extend(Cube(cube.pos | neg_bit, cube.neg) for cube in cover1)
    cover.extend(cover2)

    var_table = cached_table_var(split, num_vars)
    result_table = (table0 & ~var_table & mask) | (table1 & var_table) | table2
    return cover, result_table


def _literal_counts(cover: Cover, num_vars: int) -> List[List[int]]:
    counts = [[0, 0] for _ in range(num_vars)]
    for cube in cover:
        for var, negative in cube.literals():
            counts[var][1 if negative else 0] += 1
    return counts


def factor_cover(cover: Cover) -> Expr:
    """Quick factoring over ``Cube`` objects, one literal scan per step."""
    if not cover:
        return Expr.const0()
    if any(cube.is_tautology() for cube in cover):
        return Expr.const1()
    if len(cover) == 1:
        return _cube_expr(cover[0])

    common_pos = cover[0].pos
    common_neg = cover[0].neg
    for cube in cover[1:]:
        common_pos &= cube.pos
        common_neg &= cube.neg
    if common_pos or common_neg:
        common = Cube(common_pos, common_neg)
        reduced = [Cube(cube.pos & ~common_pos, cube.neg & ~common_neg) for cube in cover]
        return Expr.and_([_cube_expr(common), factor_cover(reduced)])

    num_vars = max((cube.pos | cube.neg) for cube in cover).bit_length()
    counts = _literal_counts(cover, num_vars)
    best_var, best_negative, best_count = -1, False, 1
    for var, (positive, negative) in enumerate(counts):
        if positive > best_count:
            best_var, best_negative, best_count = var, False, positive
        if negative > best_count:
            best_var, best_negative, best_count = var, True, negative
    if best_var < 0:
        return Expr.or_([_cube_expr(cube) for cube in cover])

    quotient: Cover = []
    remainder: Cover = []
    bit = 1 << best_var
    for cube in cover:
        if best_negative and cube.neg & bit:
            quotient.append(Cube(cube.pos, cube.neg & ~bit))
        elif not best_negative and cube.pos & bit:
            quotient.append(Cube(cube.pos & ~bit, cube.neg))
        else:
            remainder.append(cube)
    divided = Expr.and_([Expr.literal(best_var, best_negative), factor_cover(quotient)])
    if not remainder:
        return divided
    return Expr.or_([divided, factor_cover(remainder)])


def _cube_expr(cube: Cube) -> Expr:
    literals = [Expr.literal(var, negated) for var, negated in cube.literals()]
    if not literals:
        return Expr.const1()
    return Expr.and_(literals)


def refactor_fragment(table: int, num_vars: int) -> Fragment:
    """Factor ``table`` in both polarities and return the cheaper fragment."""
    positive = Fragment.from_expression(factor_cover(isop_cover(table, num_vars)), num_vars)
    negative = Fragment.from_expression(
        factor_cover(isop_cover(table ^ table_mask(num_vars), num_vars)), num_vars
    )
    negative.output = lit_not(negative.output)
    return positive if positive.size <= negative.size else negative
