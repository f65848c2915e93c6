"""NPN canonicalization of small Boolean functions.

Two functions belong to the same NPN class when one can be obtained from the
other by Negating inputs, Permuting inputs and/or Negating the output.  The
4-input rewriting library keys its pre-computed structures by NPN class so
that one synthesized structure serves every member of the class.

For up to four variables the canonical form is found by exhaustively applying
all ``4! * 2^4 * 2 = 768`` transformations.  A 4-input table fits in 16 bits,
so every transformed table is one row of a small int64 matrix-vector product
(tens of microseconds per call); the search is exact, and ties resolve to the
first transform in enumeration order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.aig.truth import table_mask


@dataclass(frozen=True)
class NpnTransform:
    """A transformation ``f(x) -> out_neg ^ f(perm(x) ^ input_neg)``.

    ``permutation[i]`` is the original variable that feeds canonical slot ``i``.
    ``input_negations[i]`` applies to the *original* variable ``i``.
    """

    permutation: Tuple[int, ...]
    input_negations: Tuple[bool, ...]
    output_negation: bool


def _source_minterm(transform: NpnTransform, minterm: int, num_vars: int) -> int:
    """Return the minterm of the input table that ``transform`` reads for ``minterm``."""
    source = 0
    for slot in range(num_vars):
        original = transform.permutation[slot]
        bit = (minterm >> slot) & 1
        if transform.input_negations[original]:
            bit ^= 1
        source |= bit << original
    return source


def apply_transform(table: int, num_vars: int, transform: NpnTransform) -> int:
    """Apply an NPN transform to a truth table and return the new table."""
    result = 0
    for minterm in range(1 << num_vars):
        result |= ((table >> _source_minterm(transform, minterm, num_vars)) & 1) << minterm
    if transform.output_negation:
        result ^= table_mask(num_vars)
    return result


def _all_transforms(num_vars: int) -> List[NpnTransform]:
    transforms = []
    for permutation in itertools.permutations(range(num_vars)):
        for negation_bits in range(1 << num_vars):
            negations = tuple(bool((negation_bits >> i) & 1) for i in range(num_vars))
            for output_negation in (False, True):
                transforms.append(NpnTransform(permutation, negations, output_negation))
    return transforms


_TRANSFORM_CACHE: Dict[int, List[NpnTransform]] = {}
_TRANSFORM_MATRIX_CACHE: Dict[int, tuple] = {}


def _transforms(num_vars: int) -> List[NpnTransform]:
    transforms = _TRANSFORM_CACHE.get(num_vars)
    if transforms is None:
        transforms = _all_transforms(num_vars)
        _TRANSFORM_CACHE[num_vars] = transforms
    return transforms


def _transform_matrices(num_vars: int) -> tuple:
    """Precompute int64 weights that turn a table's bits into every transformed table.

    Returns ``(weights, offsets, minterms)`` such that ``offsets + weights @
    bits`` lists the table under every transform, where ``bits[s]`` is the
    table's value on minterm ``s``.  ``weights[t, s]`` sums ``2**m`` over the
    result minterms ``m`` that transform ``t`` reads from minterm ``s``;
    for output-negated transforms it is negated and the offset is the
    all-ones mask, which gives the complement ``mask - x``.  Every value
    stays below ``2**16``, so int64 arithmetic is exact.
    """
    import numpy as np

    cached = _TRANSFORM_MATRIX_CACHE.get(num_vars)
    if cached is not None:
        return cached
    transforms = _transforms(num_vars)
    num_minterms = 1 << num_vars
    weights = np.zeros((len(transforms), num_minterms), dtype=np.int64)
    offsets = np.zeros(len(transforms), dtype=np.int64)
    for t_index, transform in enumerate(transforms):
        for minterm in range(num_minterms):
            weights[t_index, _source_minterm(transform, minterm, num_vars)] += 1 << minterm
        if transform.output_negation:
            weights[t_index] *= -1
            offsets[t_index] = table_mask(num_vars)
    cached = (weights, offsets, np.arange(num_minterms, dtype=np.int64))
    _TRANSFORM_MATRIX_CACHE[num_vars] = cached
    return cached


def npn_canonical(table: int, num_vars: int) -> Tuple[int, NpnTransform]:
    """Return the canonical representative of ``table`` and the transform to it.

    The canonical representative is the numerically smallest truth table
    reachable by any NPN transformation; among transforms reaching it, the
    first in enumeration order is returned.  The returned transform maps the
    *input* table to the canonical one (see :func:`apply_transform`).
    """
    if num_vars > 4:
        raise ValueError("exhaustive NPN canonicalization is limited to 4 variables")
    weights, offsets, minterms = _transform_matrices(num_vars)
    values = offsets + weights @ (((table & table_mask(num_vars)) >> minterms) & 1)
    best_index = int(values.argmin())
    return int(values[best_index]), _transforms(num_vars)[best_index]


def npn_class_count(num_vars: int, sample_limit: int = 1 << 16) -> int:
    """Count NPN classes among all functions of ``num_vars`` variables.

    Exhaustive for ``num_vars <= 4`` (65536 functions); provided mostly as a
    sanity utility for tests (the correct value for 4 variables is 222).
    """
    if (1 << (1 << num_vars)) > sample_limit and num_vars > 4:
        raise ValueError("too many functions to enumerate")
    seen = set()
    for table in range(1 << (1 << num_vars)):
        canonical, _ = npn_canonical(table, num_vars)
        seen.add(canonical)
    return len(seen)
