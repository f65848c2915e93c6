"""The native backend: compiled (cc) inner loops, reference-identical.

Third registered backend, layered on :class:`AcceleratedBackend`: it
overrides exactly the ops whose remaining cost is Python loop overhead —
the fused level-step simulation, the cut-merge popcount prefilter, the
exact cone-walk truth table, resub similarity ranking and the 8-combo
one-match scan, and the sweep-commit conflict screen — and compiles them
through :mod:`repro.backend.native_kernels` (a cc-built shared library
loaded via ctypes).

Degradation is **per op**: when the engine is unavailable, or an input is
under a profitability threshold, or an array fails the layout checks, the
op silently takes the inherited accelerated/reference path.  Every kernel
is exact integer arithmetic in the reference's statement order, so byte
identity holds by construction and is enforced by ``tests/backend``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.backend import native_kernels
from repro.backend.accelerated import _TABLE_VARS, AcceleratedBackend, _load_table_vars

#: Below this many divisors the inherited paths win: the reference scalar
#: loops early-exit without the table-packing overhead the compiled scan
#: needs.  Parity-gated identical either way.
_NATIVE_RESUB_MIN = 8

#: Pending-stack capacity of the compiled cone walk; a deeper reconvergent
#: cone (never seen on the benchmark set) falls back to the Python walk.
_CONE_STACK = 8192

#: Per-arity ``(leaf_tables, mask)`` for the compiled cone walk: the uint64
#: array of leaf-variable patterns plus the full-table mask.  Process-cached
#: so engine walkers can memoise the array's raw pointer by identity.
_ARITY_META: Dict[int, Tuple[np.ndarray, int]] = {}

_OP_LABELS = {
    "simulate_level_step": "fused-level-loop",
    "cut_merge_filter": "popcount-prefilter",
    "cut_table_exact": "cone-walk",
    "cut_level_merge": "whole-level-merge",
    "resub_rank_divisors": "popcount-similarity",
    "resub_one_match": "8-combo-scan",
    "sweep_commit": "bitmap-conflict-screen",
}


def _arity_meta(num_vars: int) -> Tuple[np.ndarray, int]:
    cached = _ARITY_META.get(num_vars)
    if cached is None:
        variables, mask = _TABLE_VARS.get(num_vars) or _load_table_vars(num_vars)
        cached = (np.array(variables, dtype=np.uint64), mask)
        _ARITY_META[num_vars] = cached
    return cached


class _ConeScratch:
    """Per-snapshot scratch of the compiled cone walk (epoch-stamped).

    Owns every array the walk touches plus the engine-built ``walk``
    closure, which holds raw pointers into those arrays — keeping both on
    one object guarantees the pointers cannot outlive their storage.
    """

    __slots__ = (
        "fanin0",
        "fanin1",
        "tables",
        "stamp",
        "stack",
        "leaves",
        "out",
        "epoch",
        "walk",
    )

    def __init__(self, view: Any, kernels: Any) -> None:
        self.fanin0 = np.array(view._fanin0_list, dtype=np.int64)
        self.fanin1 = np.array(view._fanin1_list, dtype=np.int64)
        slots = self.fanin0.shape[0]
        self.tables = np.zeros(slots, dtype=np.uint64)
        self.stamp = np.zeros(slots, dtype=np.uint32)
        self.stack = np.zeros(_CONE_STACK, dtype=np.int64)
        self.leaves = np.zeros(6, dtype=np.int64)
        self.out = np.zeros(1, dtype=np.uint64)
        self.epoch = 0
        self.walk = kernels.cone_walker(
            self.fanin0,
            self.fanin1,
            self.leaves,
            self.tables,
            self.stamp,
            self.stack,
            self.out,
        )

    def next_epoch(self) -> int:
        self.epoch += 1
        if self.epoch >= 0xFFFFFFFF:
            self.stamp[:] = 0
            self.epoch = 1
        return self.epoch


class NativeBackend(AcceleratedBackend):
    """Compiled-kernel backend (cc engine), reference-identical."""

    name = "native"

    def __init__(self) -> None:
        super().__init__()
        self._engine_lock = threading.Lock()
        self._engine_resolved = False
        self._engine: Optional[Any] = None
        self._engine_reason = ""

    # ------------------------------------------------------------------ #
    # Engine plumbing
    # ------------------------------------------------------------------ #
    def _kernels(self) -> Optional[Any]:
        if not self._engine_resolved:
            with self._engine_lock:
                if not self._engine_resolved:
                    self._engine, self._engine_reason = native_kernels.load_engine()
                    self._engine_resolved = True
        return self._engine

    @staticmethod
    def native_available() -> bool:
        """Whether the compiled engine (a cc build) is plausible.

        Steers ``"auto"`` selection only; a wrong True degrades per-op to
        the inherited accelerated/reference code, never to an error.
        """
        return native_kernels.engine_probable()

    def engine_name(self) -> Optional[str]:
        """The resolved compiled engine ("cc"), or None."""
        kernels = self._kernels()
        return kernels.engine if kernels is not None else None

    def prewarm(self) -> Optional[str]:
        """Build/load the engine now so the first job doesn't pay for it.

        Called from the evaluator and service worker initializers.  With the
        on-disk cache (``BOOLGEBRA_NATIVE_CACHE``) the compile is paid once
        per machine and every later process does a single dlopen.  Returns
        the engine name (None when degraded).
        """
        return self.engine_name()

    def op_support(self) -> Dict[str, str]:
        support = super().op_support()
        kernels = self._kernels()
        if kernels is None:
            reason = self._engine_reason or "no-compiled-engine"
            for op, _ in _OP_LABELS.items():
                support[op] = f"fallback:accelerated({reason})"
            return support
        for op, label in _OP_LABELS.items():
            support[op] = f"{kernels.engine}:{label}"
        return support

    # ------------------------------------------------------------------ #
    # AIG simulation / cut enumeration
    # ------------------------------------------------------------------ #
    def simulate_level_step(self, values, ids, f0v, f0m, f1v, f1m) -> None:
        kernels = self._kernels()
        if (
            kernels is None
            or values.dtype != np.uint64
            or values.ndim != 2
            or not values.flags.c_contiguous
            or ids.dtype != np.int64
            or f0v.dtype != np.int64
            or f1v.dtype != np.int64
            or f0m.dtype != np.uint64
            or f1m.dtype != np.uint64
            or f0m.size != ids.shape[0]
            or f1m.size != ids.shape[0]
            or not ids.flags.c_contiguous
            or not f0v.flags.c_contiguous
            or not f1v.flags.c_contiguous
            or not f0m.flags.c_contiguous
            or not f1m.flags.c_contiguous
        ):
            super().simulate_level_step(values, ids, f0v, f0m, f1v, f1m)
            return
        kernels.simulate_level_step(
            values, ids, f0v, f0m.reshape(-1), f1v, f1m.reshape(-1)
        )

    def cut_level_merge(self, l0, s0, g0, n0, l1, s1, g1, n1, skip, k, limit):
        """Whole-level priority-cut merge, or ``None`` when unavailable.

        Capability beyond the portable op vocabulary: the cut enumerator
        feature-detects this method and, when it returns arrays, skips its
        per-pair Python merge loop entirely.  Inputs are the padded per-row
        cut-list matrices described in the kernel; a ``None`` return (no
        compiled engine, or shapes beyond the kernel's fixed caps) sends
        the caller down the ordinary reference-identical path.
        """
        kernels = self._kernels()
        if kernels is None or k >= 64 or s0.shape[1] > 64:
            return None
        count, width = s0.shape
        out_l = np.zeros((count, width, k), np.int64)
        out_s = np.zeros((count, width), np.int64)
        out_g = np.zeros((count, width), np.uint64)
        out_n = np.zeros(count, np.int64)
        kernels.cut_level_merge(
            l0, s0, g0, n0, l1, s1, g1, n1, skip, k, limit, out_l, out_s, out_g, out_n
        )
        return out_l, out_s, out_g, out_n

    def cut_merge_filter(self, sig0, sig1, k):
        kernels = self._kernels()
        if (
            kernels is None
            or sig0.dtype != np.uint64
            or sig1.dtype != np.uint64
            or sig0.ndim != 2
            or sig0.shape != sig1.shape
        ):
            return super().cut_merge_filter(sig0, sig1, k)
        return kernels.cut_merge_filter(
            np.ascontiguousarray(sig0), np.ascontiguousarray(sig1), int(k)
        )

    # ------------------------------------------------------------------ #
    # Sweep scoring
    # ------------------------------------------------------------------ #
    def cut_table_exact(self, view, root, leaves) -> int:
        kernels = self._kernels()
        num_vars = len(leaves)
        if kernels is None or num_vars > 6:
            return super().cut_table_exact(view, root, leaves)
        try:
            scratch = view._native_scratch
            fanin_count = len(view._fanin0_list)
        except AttributeError:
            # Not a LevelizedAig snapshot (duck-typed test views): the
            # Python walk handles anything with fanin lists.
            return super().cut_table_exact(view, root, leaves)
        if scratch is None or scratch.fanin0.shape[0] != fanin_count:
            if not fanin_count:
                return super().cut_table_exact(view, root, leaves)
            scratch = _ConeScratch(view, kernels)
            view._native_scratch = scratch
        leaf_tables, mask = _arity_meta(num_vars)
        scratch.leaves[:num_vars] = leaves
        err, value = scratch.walk(
            root, num_vars, leaf_tables, mask, scratch.next_epoch()
        )
        if err:  # pragma: no cover - requires a >8k-deep reconvergent cone
            return super().cut_table_exact(view, root, leaves)
        return value

    # ------------------------------------------------------------------ #
    # Resubstitution matching
    # ------------------------------------------------------------------ #
    def resub_rank_divisors(self, divisors, tables, target, mask):
        kernels = self._kernels()
        count = len(divisors)
        if kernels is None or count < _NATIVE_RESUB_MIN or mask <= 0:
            return super().resub_rank_divisors(divisors, tables, target, mask)
        words = (mask.bit_length() + 63) // 64
        similarity = kernels.resub_similarity(
            self._pack_tables(divisors, tables, words),
            self._pack_scalar(target, words),
            self._pack_scalar(mask, words),
        )
        # Stable argsort == the reference's stable sorted(key=similarity).
        order = np.argsort(similarity, kind="stable")
        return [divisors[i] for i in order]

    def resub_one_match(self, ranked, tables, target, mask):
        kernels = self._kernels()
        count = len(ranked)
        if kernels is None or count < _NATIVE_RESUB_MIN or mask <= 0:
            return super().resub_one_match(ranked, tables, target, mask)
        words = (mask.bit_length() + 63) // 64
        found = kernels.resub_one_match(
            self._pack_tables(ranked, tables, words),
            self._pack_scalar(target, words),
            self._pack_scalar(mask, words),
        )
        if found is None:
            return None
        i, j, combo = found
        return (
            ranked[i],
            ranked[j],
            bool(combo & 4),
            bool(combo & 2),
            bool(combo & 1),
        )

    # ------------------------------------------------------------------ #
    # Commit
    # ------------------------------------------------------------------ #
    def sweep_commit(self, aig, candidates):
        kernels = self._kernels()
        if kernels is None:
            return super().sweep_commit(aig, candidates)
        from repro.aig.aig import AigError

        # The reference loop with the dirty set held as a uint8 bitmap over
        # the struct-of-arrays id space: the per-candidate footprint screen
        # and the journal merge run as compiled scans.  Decision sequence,
        # journals and the returned dirty set are identical by construction.
        order = sorted(candidates, key=lambda cand: (-cand.gain, cand.node))
        bitmap = np.zeros(max(aig.num_nodes(), 1), dtype=np.uint8)
        dirty_any = False
        applied: List[Any] = []
        conflicts = 0
        has_node = aig.has_node
        for candidate in order:
            if not has_node(candidate.node) or not aig.is_and(candidate.node):
                continue
            touched = False
            if dirty_any:
                footprint = candidate.footprint()
                ids = np.fromiter(footprint, np.int64, len(footprint))
                touched = kernels.bitmap_any(bitmap, ids)
            if touched:
                fresh_gain = candidate.revalidate(aig)
                if fresh_gain is None or fresh_gain < candidate.min_gain:
                    conflicts += 1
                    continue
            elif not all(has_node(ref) for ref in candidate.refs):
                conflicts += 1
                continue
            journal = aig.journal_begin()
            try:
                candidate.apply(aig)
            except AigError:
                # Same guard as the reference: a replacement racing into a
                # cycle is rejected cleanly and the candidate dropped.
                pass
            finally:
                aig.journal_end()
            if journal:
                ids = np.fromiter(journal, np.int64, len(journal))
                top = int(ids.max())
                if top >= bitmap.shape[0]:
                    grown = np.zeros(max(top + 1, bitmap.shape[0] * 2), np.uint8)
                    grown[: bitmap.shape[0]] = bitmap
                    bitmap = grown
                kernels.bitmap_mark(bitmap, ids)
                dirty_any = True
            if not (aig.has_node(candidate.node) and aig.is_and(candidate.node)):
                applied.append(candidate)
        dirty = set(np.flatnonzero(bitmap).tolist())
        return applied, dirty, conflicts


__all__ = ["NativeBackend"]
