"""A first run in a fresh interpreter gives the same design as a warm run.

Rewriting and refactoring synthesize their replacement structures on first
sight of a truth table and cache them process-wide (the rewrite library and
the refactoring fragment memo).  Cached entries are pure functions of the
table, so an empty cache must not change a single node of the result.
"""

import os
import subprocess
import sys

import repro
from repro import Engine, Pipeline
from repro.store.fingerprint import aig_fingerprint

SCRIPT = "rw; rf; rs; b"

_COLD_RUN = f"""
from repro import Engine, Pipeline
from repro.store.fingerprint import aig_fingerprint
from repro.synth import refactor
from repro.synth.rewrite_lib import DEFAULT_LIBRARY

assert len(DEFAULT_LIBRARY) == 0 and not refactor._FRAGMENTS, "caches are not empty"
engine = Engine.load("c880")
engine.run(Pipeline.parse({SCRIPT!r}))
print(aig_fingerprint(engine.aig))
"""


def _warm_fingerprint(design: str) -> str:
    Engine.load(design).run(Pipeline.parse(SCRIPT))  # warm-up
    engine = Engine.load(design)
    engine.run(Pipeline.parse(SCRIPT))
    return aig_fingerprint(engine.aig)


def test_cold_process_output_is_byte_identical_to_warm():
    source_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    cold = subprocess.run(
        [sys.executable, "-c", _COLD_RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.strip() == _warm_fingerprint("c880")
