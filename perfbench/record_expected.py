#!/usr/bin/env python3
"""Re-record ``expected.json``: the results the output checks compare with.

Run from the root of a checkout after a change that is meant to alter
optimization results or the learning flow::

    python3 perfbench/record_expected.py

It records ``[ands, depth]`` of every optimize job the workloads run, the
learn_flow best size and rank correlation on the primary and second seeds,
and the backend and engine the figures were taken with.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

PRIMARY_SEED = 1
SECOND_SEED = 2


def main() -> int:
    env = run.child_env()
    if os.environ.get("PYTHONHASHSEED") != env["PYTHONHASHSEED"]:
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    os.environ.update(env)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    os.makedirs(run.WORK, exist_ok=True)

    import workload
    from repro import Engine
    from repro.backend import get_backend, prewarm_default_backend

    engine_name = prewarm_default_backend()
    jobs = {(design, workload.SCRIPT) for design in workload.MID_DESIGNS + ("voter",)}
    jobs |= {(d, s) for d in workload.SERVED_DESIGNS for s in workload.SERVED_SCRIPTS}
    jobs |= {(spec["design"], spec["options"]["script"]) for spec in workload.CANARIES}
    optimize = {}
    for design, script in sorted(jobs):
        engine = Engine.load(design)
        report = engine.run(script)
        optimize.setdefault(design, {})[script] = [report.size_after, report.depth_after]
        print(f"{design:6s} {script:16s} {report.size_before} -> {report.size_after} ANDs")

    flows = {}
    for seed in (PRIMARY_SEED, SECOND_SEED):
        args = argparse.Namespace(seed=seed, work=run.WORK, t0=time.monotonic())
        result = {}
        workload.run_learn_flow(args, result, None)
        flows[str(seed)] = {
            "best_size": result["flow"]["best_size"],
            "rank_corr": round(result["flow"]["rank_corr"], 6),
        }
        print(f"learn_flow seed {seed}: {flows[str(seed)]}")

    for entry in os.listdir(run.WORK):
        if entry.startswith("flow-store-"):
            shutil.rmtree(os.path.join(run.WORK, entry), ignore_errors=True)
    payload = {
        "environment": {
            "backend": get_backend().name,
            "engine": engine_name,
            "primary_seed": PRIMARY_SEED,
            "second_seed": SECOND_SEED,
        },
        "optimize": optimize,
        "learn_flow": flows,
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
