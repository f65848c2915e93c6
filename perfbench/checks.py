"""Output checks that run outside the timed path.

Optimize results are compared with the values recorded in ``expected.json``,
served payloads with direct ``Engine`` runs, and the learning flow's best
candidate with an independent re-run of its decisions.  The functional check
uses its own bit-parallel simulator over the public ``Aig`` accessors
(``pis``, ``pos``, ``fanins``, ``topological_order``), so a bug in
``repro.aig.simulate`` or the backend simulation kernels cannot hide a wrong
optimization result.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

#: 64-bit words of random input patterns per simulation (64 patterns each).
WORDS = 32
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def input_patterns(num_pis: int, seed: int) -> np.ndarray:
    """Random patterns, plus all-zero and all-one in the first two columns."""
    rng = np.random.default_rng(seed)
    patterns = rng.integers(0, 2**63, size=(num_pis, WORDS), dtype=np.uint64) << np.uint64(1)
    patterns |= rng.integers(0, 2, size=(num_pis, WORDS), dtype=np.uint64)
    patterns[:, 0] = 0
    patterns[:, 1] = _ONES
    return patterns


def simulate_outputs(aig, patterns: np.ndarray) -> np.ndarray:
    """Output words of ``aig`` under ``patterns`` (one row per primary input)."""
    values: Dict[int, np.ndarray] = {0: np.zeros(patterns.shape[1], dtype=np.uint64)}
    for row, node in enumerate(aig.pis()):
        values[node] = patterns[row]

    def literal(lit: int) -> np.ndarray:
        word = values[lit >> 1]
        return word ^ _ONES if lit & 1 else word

    for node in aig.topological_order():
        fanin0, fanin1 = aig.fanins(node)
        values[node] = literal(fanin0) & literal(fanin1)
    return np.array([literal(po) for po in aig.pos()], dtype=np.uint64).reshape(
        len(aig.pos()), patterns.shape[1]
    )


class Reference:
    """Output words of one input design, computed once and reused."""

    def __init__(self, aig, seed: int = 7) -> None:
        self.num_pis = aig.num_pis()
        self.num_pos = aig.num_pos()
        self.patterns = input_patterns(self.num_pis, seed)
        self.outputs = simulate_outputs(aig, self.patterns)

    def matches(self, aig) -> bool:
        if aig.num_pis() != self.num_pis or aig.num_pos() != self.num_pos:
            return False
        return bool(np.array_equal(simulate_outputs(aig, self.patterns), self.outputs))


class CheckLog:
    """Collects failed checks; each names what differed."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        self.checked += 1
        if not condition:
            self.failures.append(message)
        return condition

    def expect_equal(self, actual, expected, what: str) -> bool:
        return self.expect(actual == expected, f"{what}: got {actual!r}, expected {expected!r}")


def expected_optimize(expected: Dict, design: str, script: str) -> Optional[List[int]]:
    """Recorded ``[ands, depth]`` of ``script`` on ``design``, if recorded."""
    return expected.get("optimize", {}).get(design, {}).get(script)


def check_optimize_output(design: str, aig, report, expected: dict, script: str, log: CheckLog, references: dict) -> None:
    """``[ands, depth]`` as recorded, and equal to the input in simulation.

    ``references`` caches one ``Reference`` per design across calls.
    """
    from repro.circuits.benchmarks import load_benchmark

    recorded = expected_optimize(expected, design, script)
    if log.expect(recorded is not None, f"{design}: no recorded result for {script!r}"):
        log.expect_equal([aig.size, aig.depth()], recorded, f"{design} [ands, depth]")
    log.expect_equal(report.size_after, aig.size, f"{design} report size")
    if design not in references:
        references[design] = Reference(load_benchmark(design))
    log.expect(references[design].matches(aig), f"{design}: output differs from input in simulation")


def check_served(served: list, expected: dict, log: CheckLog) -> None:
    """Each served payload against a direct Engine run of its spec.

    ``served`` holds one (request spec, payload of the job it was given)
    pair per request, so a request coalesced onto a job of another spec
    fails here.
    """
    from repro import Engine
    from repro.circuits.benchmarks import load_benchmark
    from repro.io.aiger import aiger_ascii, parse_aiger

    direct = {}
    for spec, payload in served:
        design, script = spec["design"], spec["options"]["script"]
        what = f"{design} {script!r}"
        if (design, script) not in direct:
            engine = Engine.load(design)
            report = engine.run(script)
            direct[design, script] = (aiger_ascii(engine.aig), report.size_after)
            recorded = expected_optimize(expected, design, script)
            if log.expect(recorded is not None, f"{what}: no recorded result"):
                log.expect_equal([report.size_after, report.depth_after], recorded, f"{what} [ands, depth]")
            reference = Reference(load_benchmark(design))
            log.expect(reference.matches(parse_aiger(payload["netlist"], name=design)), f"{what}: served netlist differs in simulation")
        netlist, size = direct[design, script]
        log.expect_equal(payload["netlist"], netlist, f"{what} served netlist vs direct Engine")
        log.expect_equal(payload["report"]["size_after"], size, f"{what} served size")


def check_flow(result: dict, state: dict, expected: dict, seed: int, log: CheckLog) -> None:
    """Recorded values on recorded seeds; an independent re-evaluation always."""
    from repro.orchestration.orchestrate import orchestrate

    flow = result["flow"]
    recorded = expected.get("learn_flow", {}).get(str(seed))
    if recorded is not None:
        log.expect_equal(flow["best_size"], recorded["best_size"], "learn_flow best size")
        log.expect_equal(round(flow["rank_corr"], 6), recorded["rank_corr"], "learn_flow rank_corr")
    log.expect(-1.0 <= flow["rank_corr"] <= 1.0, f"rank_corr {flow['rank_corr']} outside [-1, 1]")
    # The inference batch prune_and_evaluate drew, now served by the store.
    config = state["config"]
    samples = state["flow"].generate_dataset(state["infer_aig"], seed=config.seed + 1).samples
    predictions = state["flow"].predict_scores(samples)
    order = np.argsort(predictions, kind="stable")[: config.top_k]
    best = min(order, key=lambda index: samples[int(index)].size_after)
    aig = state["infer_aig"].copy()
    reference = Reference(state["infer_aig"])
    orchestrate(aig, samples[int(best)].record.decisions, params=config.operations)
    log.expect_equal(aig.size, flow["best_size"], "learn_flow best candidate re-evaluated")
    log.expect(reference.matches(aig), "learn_flow best candidate differs in simulation")
