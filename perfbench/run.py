#!/usr/bin/env python3
"""Benchmark entry point: set up, run one workload, check it, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload opt_mid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

Set-up builds the native compile cache into ``perfbench/.work`` and times
five fresh-interpreter set-ups (import, design load, backend prewarm).  The
workload then runs in one more fresh interpreter (``workload.py``).  Machine
speed is sampled only while every process of the program is stopped.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is 1
when an output check failed and 2 when the benchmark could not run.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("opt_mid", "opt_voter", "learn_flow", "served_zipf")
SETUP_REPEATS = 5
#: Extra fresh-interpreter first jobs; ``first_job_s`` is the median of all.
#: Only opt_mid's first job is short enough to repeat.
FIRST_JOB_PROBES = {"opt_mid": 2}
#: Reference speed: ``calibration_loop`` takes this long (see SpeedGauge).
CALIB_REF_S = 0.001
#: Every child must end by ``DEADLINE_BASE_S + DEADLINE_PER_S * --seconds``
#: after the benchmark started.  The work of every workload grows at most
#: linearly with ``--seconds``: served_zipf sends traffic for 2x
#: ``--seconds``, opt_voter runs one 6.5-9.5 s warm job per 8 s.
DEADLINE_BASE_S = 110.0
DEADLINE_PER_S = 6.0
#: A run whose speed samples (the median of each second) differ by more
#: than this factor is flagged as noisy.
NOISY_SPEED_RATIO = 1.3
STARTED = time.monotonic()

END_TO_END = {
    "setup_s": "s",
    "first_job_s": "s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "and_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, crashed child, ...)."""


# --------------------------------------------------------------------------- #
# Child processes
# --------------------------------------------------------------------------- #
def child_env() -> dict:
    """The pinned environment every benchmark interpreter runs under."""
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "BOOLGEBRA_NATIVE_CACHE": os.path.join(WORK, "native-cache"),
        "BOOLGEBRA_STORE": os.path.join(WORK, "default-store"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "NO_PROXY": "127.0.0.1,localhost",
        "no_proxy": "127.0.0.1,localhost",
    })
    for name in ("BOOLGEBRA_BACKEND", "BOOLGEBRA_PROFILE", "BOOLGEBRA_LOG_JSON"):
        env.pop(name, None)
    return env


def run_child(mode: str, speed: "SpeedGauge", deadline: float, extra=()) -> tuple:
    """Run ``workload.py <mode>``; return (its JSON output, [start, end]).

    The child leads a process group of its own, so that ``speed`` can stop
    and resume it with every process it starts.
    """
    out = os.path.join(WORK, f"{mode}-{os.getpid()}.json")
    t0 = time.monotonic()
    command = [
        sys.executable, os.path.join(HERE, "workload.py"), mode,
        "--t0", repr(t0), "--root", ROOT, "--work", WORK, "--out", out,
        *extra,
    ]
    child = subprocess.Popen(
        command,
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    speed.attach(child.pid)
    try:
        _, stderr = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:  # a timeout, SIGTERM or Ctrl-C: end the whole group
        speed.detach()
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError(f"workload.py {mode} timed out after {error.timeout:.0f}s") from None
        raise
    finally:
        speed.detach()
    interval = [t0, time.monotonic()]
    if child.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"workload.py {mode} exited {child.returncode}:\n{tail}")
    with open(out, encoding="utf-8") as handle:
        payload = json.load(handle)
    os.remove(out)
    return payload, interval


# --------------------------------------------------------------------------- #
# Machine speed
# --------------------------------------------------------------------------- #
def calibration_loop() -> int:
    """The fixed pure-Python work the speed gauge times."""
    total, table = 0, {}
    for index in range(8000):
        total += index * index % 7
        table[index & 255] = total
    return total


class SpeedGauge(threading.Thread):
    """Machine speed, sampled while the program is stopped.

    The machine this benchmark is tuned on changes speed by up to 2x, and
    back, every few seconds (shared hosts).  So every ``PERIOD_S`` this
    thread stops the running child's whole process group (SIGSTOP), times
    ``calibration_loop`` once, and resumes the group (SIGCONT).  The loop
    never runs beside the program's work, so the program's own CPU use
    cannot slow it and make the program look faster.  Each measured
    interval is then corrected twice: the pauses inside it are taken out,
    and each 50 ms slot of the rest is rescaled by the loop time at that
    slot, relative to ``CALIB_REF_S``.  A time in *reference seconds* is
    the time the interval would have taken at the reference speed.
    """

    PERIOD_S = 0.05

    def __init__(self, reference_s: float) -> None:
        super().__init__(name="perfbench-speed", daemon=True)
        self.reference_s = reference_s
        self.samples = []  # (monotonic time, loop seconds)
        self.pauses = []  # (monotonic stop, monotonic resume) of the child
        self._group = None
        self._lock = threading.Lock()
        self._halt = threading.Event()

    def attach(self, group: int) -> None:
        with self._lock:
            self._group = group

    def detach(self) -> None:
        """After this returns, no process of the child is stopped."""
        with self._lock:
            self._group = None

    def run(self) -> None:
        while not self._halt.wait(self.PERIOD_S):
            with self._lock:
                stop = time.monotonic()
                stopped = self._group is not None and self._signal(signal.SIGSTOP)
                begin = time.perf_counter()
                calibration_loop()
                loop_s = time.perf_counter() - begin
                if stopped:
                    self._signal(signal.SIGCONT)
                    self.pauses.append((stop, time.monotonic()))
            self.samples.append((stop, loop_s))

    def _signal(self, signum: int) -> bool:
        try:
            os.killpg(self._group, signum)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def stop(self) -> None:
        """End sampling and fix the slots ``seconds`` reads."""
        self._halt.set()
        self.join()
        self.edges, self.smooth = self._slots()

    def paused_s(self, start: float, end: float) -> float:
        """How long the child was stopped inside [start, end]."""
        first = max(0, bisect.bisect_left(self.pauses, (start,)) - 1)
        total = 0.0
        for a, b in self.pauses[first:]:
            if a >= end:
                break
            total += max(0.0, min(end, b) - max(start, a))
        return total

    def _slots(self) -> tuple:
        """(slot boundaries, loop time of each slot).

        Slot i reaches from halfway to sample i-1 to halfway to sample
        i+1.  Its loop time is the median of samples i-1, i and i+1, which
        drops a sample the scheduler preempted.
        """
        times = [t for t, _ in self.samples]
        loops = [d for _, d in self.samples]
        edges = [(a + b) / 2 for a, b in zip(times, times[1:])]
        smooth = [statistics.median(loops[max(0, i - 1):i + 2]) for i in range(len(loops))]
        return edges, smooth

    def seconds(self, interval) -> float:
        """Reference seconds of a [start, end] monotonic interval.

        The sum, over the slots the interval covers, of the unpaused time
        in the slot times ``CALIB_REF_S`` over the slot's loop time.  Unlike
        one median over a long interval, the sum follows a speed that
        flips between two levels inside it.
        """
        edges, smooth = self.edges, self.smooth
        start, end = interval
        total = 0.0
        slot = bisect.bisect_right(edges, start)
        low = start
        while low < end:
            high = min(end, edges[slot]) if slot < len(edges) else end
            total += (high - low - self.paused_s(low, high)) * self.reference_s / smooth[slot]
            low, slot = high, slot + 1
        return total

    def calib_s(self) -> float:
        return statistics.median(d for _, d in self.samples)

    def swing(self) -> float:
        """Slowest over fastest second of the run, by median loop time."""
        seconds = {}
        for t, d in self.samples:
            seconds.setdefault(int(t), []).append(d)
        medians = [statistics.median(v) for v in seconds.values()]
        return max(medians) / min(medians)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values, fraction: float) -> float:
    """Linearly interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_fraction(count: int) -> float:
    """The tail percentile: the highest one with ten samples beyond it.

    It is capped at p90 and never below the median, so samples of 20 or
    fewer report their median as the tail.
    """
    return min(0.9, max(0.5, 1.0 - 10.0 / count))


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def end_to_end(result: dict, setup: list, speed: SpeedGauge) -> dict:
    """Gated metrics: name -> (value, raw wall value or None, samples)."""
    jobs = [speed.seconds(job) for job in result["jobs"]]
    raw_jobs = [end - start for start, end in result["jobs"]]
    first = [speed.seconds(job) for job in result["first_job"]]
    raw_first = [end - start for start, end in result["first_job"]]
    setups = [speed.seconds(probe["interval"]) for probe in setup]
    raw_setups = [probe["interval"][1] - probe["interval"][0] for probe in setup]
    tail = tail_fraction(len(jobs))
    return {
        "setup_s": (statistics.median(setups), statistics.median(raw_setups), len(setup)),
        "first_job_s": (statistics.median(first), statistics.median(raw_first), len(first)),
        "job_s_p50": (percentile(jobs, 0.5), percentile(raw_jobs, 0.5), len(jobs)),
        "job_s_p90": (percentile(jobs, tail), percentile(raw_jobs, tail), len(jobs)),
        "and_ratio": (result["ands_out"] / result["ands_in"], None, len(jobs)),
        "peak_rss_mb": (result["peak_rss_mb"], None, 1),
    }


def workload_extras(result: dict, speed: SpeedGauge) -> dict:
    """Workload-specific end-to-end figures, printed but not gated."""
    extras = {}
    workload = result["workload"]
    jobs = [speed.seconds(job) for job in result["jobs"]]
    if workload in ("opt_mid", "opt_voter"):
        extras["ands_per_s"] = (result["ands_in"] / sum(jobs), "1/s", len(jobs))
    if workload == "learn_flow":
        extras["flow_s"] = (jobs[0], "s", 1)
        for stage, interval in result["stages"].items():
            extras[f"flow.{stage}"] = (speed.seconds(interval), "s", 1)
        extras["rank_corr"] = (result["flow"]["rank_corr"], "1", 1)
        extras["best_size"] = (result["flow"]["best_size"], "ANDs", 1)
    if workload == "served_zipf":
        goodput = 0.0
        for phase in result["phases"]:
            lat = [speed.seconds(interval) for interval in phase["latencies"]]
            tail = percentile(lat, tail_fraction(len(lat))) if lat else float("inf")
            p50 = percentile(lat, 0.5) if lat else float("inf")
            rate = phase["rate"]
            extras[f"rate_{rate:g}.job_s_p50"] = (p50, "s", len(lat))
            extras[f"rate_{rate:g}.job_s_tail"] = (tail, "s", len(lat))
            if not phase["failed"] and tail <= result["latency_limit_s"]:
                goodput = max(goodput, rate)
        extras["goodput_rps"] = (goodput, "1/s", len(result["phases"]))
        extras["loadgen.lag_s_max"] = (result["lag_s_max"], "s", result["requests"])
    extras["failed_share"] = (len(result["check_failures"]) / result["attempted"], "ratio", result["attempted"])
    return extras


def per_layer(result: dict, setup: list, speed: SpeedGauge) -> dict:
    """Per-layer metrics of a traced run (names as in README.md).

    Seconds are reference seconds, rescaled by the machine speed over the
    traced run (over each probe for the set-up split).
    """
    layers = result["layers"]
    calls, total, self_s, values = layers["calls"], layers["total_s"], layers["self_s"], layers["values"]
    start, end = layers["interval"]
    scale = speed.seconds(layers["interval"]) / (end - start)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value * scale if unit == "s" else value, unit)

    for key in ("import_s", "design_load_s", "backend_prewarm_s"):
        probes = [p[key] * speed.seconds(p["interval"]) / (p["interval"][1] - p["interval"][0]) for p in setup]
        metrics[f"setup.{key}"] = (statistics.median(probes), "s")
    for short in ("rw", "rf", "rs", "b"):
        put(f"engine.pass.{short}_s", total.get(f"engine.pass.{short}", 0.0), "s")
    put("engine.evaluate_s", total.get("engine.evaluate", 0.0), "s")
    put("synth.score_s", total.get("synth.score", 0.0), "s")
    put("synth.commit_s", total.get("synth.commit", 0.0), "s")
    candidates = values.get("synth.candidates", 0)
    put("synth.candidates", candidates, "count")
    put("synth.applied", values.get("synth.applied", 0), "count")
    put("synth.commit_yield", values.get("synth.applied", 0) / candidates if candidates else 0.0, "ratio")
    put("synth.sweeps", values.get("synth.sweeps", 0), "count")
    put("synth.rewrite_lib.lookup_s", total.get("synth.rewrite_lib.lookup", 0.0), "s")
    put("synth.rewrite_lib.lookups", calls.get("synth.rewrite_lib.lookup", 0), "count")
    put("aig.replace_s", total.get("aig.replace", 0.0), "s")
    put("aig.replace.calls", calls.get("aig.replace", 0), "count")
    put("aig.transitive_fanin_s", total.get("aig.transitive_fanin", 0.0), "s")
    put("aig.cuts.enumerate_s", total.get("aig.cuts.enumerate", 0.0), "s")
    put("aig.cuts.enumerate.calls", calls.get("aig.cuts.enumerate", 0), "count")
    put("aig.kernels.levelized_s", total.get("aig.kernels.levelized", 0.0), "s")
    put("aig.kernels.levelized.calls", calls.get("aig.kernels.levelized", 0), "count")
    put("aig.kernels.mffc.calls", calls.get("aig.kernels.mffc", 0), "count")
    for op in BACKEND_OPS:
        put(f"backend.{op}.calls", calls.get(f"backend.{op}", 0), "count")
        put(f"backend.{op}_s", total.get(f"backend.{op}", 0.0), "s")
    put("backend.fallback_calls", values.get("backend.fallback_calls", 0), "count")
    put("orchestration.orchestrate_s", total.get("orchestration.orchestrate", 0.0), "s")
    put("orchestration.orchestrate.calls", calls.get("orchestration.orchestrate", 0), "count")
    put("orchestration.sampler_s", total.get("orchestration.sampler", 0.0), "s")
    put("features.encode_s", total.get("features.encode", 0.0), "s")
    fit_s = total.get("nn.fit", 0.0)
    epochs = values.get("nn.epochs", 0)
    put("nn.fit_s", fit_s, "s")
    put("nn.epochs", epochs, "count")
    put("nn.epoch_s", fit_s / epochs if epochs else 0.0, "s")
    put("nn.predict_s", total.get("nn.predict", 0.0), "s")
    put("flow.dataset_s", total.get("flow.dataset", 0.0), "s")
    put("flow.train_s", total.get("flow.train", 0.0), "s")
    put("flow.prune_s", total.get("flow.prune", 0.0), "s")
    lookups, hits = values.get("store.lookups", 0), values.get("store.hits", 0)
    put("store.lookups", lookups, "count")
    put("store.hits", hits, "count")
    put("store.hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    put("store.writes", values.get("store.writes", 0), "count")
    put("store.bytes_written", values.get("store.bytes_written", 0), "bytes")
    put("store.save_s", total.get("store.save", 0.0), "s")
    put("store.load_s", total.get("store.load", 0.0), "s")
    put("store.l2_get_s", total.get("store.l2_get", 0.0), "s")
    put("store.l2_put_s", total.get("store.l2_put", 0.0), "s")
    service = result.get("service", {})
    for name, unit in SERVICE_METRICS:
        put(name, service.get(name, 0), unit)
    router = result.get("router", {})
    submits = result.get("submit_s", [])
    put("cluster.submit_s_p50", percentile(submits, 0.5) if submits else 0.0, "s")
    put("cluster.router_submit_s", total.get("cluster.router_submit", 0.0), "s")
    put("cluster.routed", router.get("router_routed", 0), "count")
    put("cluster.retries", router.get("router_retries", 0), "count")
    put("cluster.failovers", router.get("router_failovers", 0), "count")
    for layer in LAYERS:
        put(f"self.{layer}_s", self_s.get(layer, 0.0), "s")
    put("loadgen.lag_s_max", result.get("lag_s_max", 0.0), "s")
    metrics["bench.calib_s"] = (speed.calib_s(), "s")
    wrapped_calls = sum(calls.values())
    put("bench.trace_overhead", wrapped_calls * layers["wrapper_cost_s"] / (end - start), "ratio")
    return metrics


BACKEND_OPS = (
    "cut_level_merge", "cut_table_exact", "resub_zero_match", "resub_rank_divisors",
    "resub_one_match", "sweep_commit", "simulate_level_step", "csr_aggregate",
    "sage_layer_fused", "sage_layer_backward", "adam_step_fused",
)
SERVICE_METRICS = (
    ("service.queue_s_p50", "s"), ("service.queue_s_p90", "s"), ("service.run_s_p50", "s"),
    ("service.submitted", "count"), ("service.accepted", "count"), ("service.coalesced", "count"),
    ("service.memory_hits", "count"), ("service.store_hits", "count"), ("service.rejected", "count"),
    ("service.dedup_ratio", "ratio"), ("service.worker_busy_share", "ratio"),
)
LAYERS = (
    "engine", "synth", "aig", "backend", "orchestration", "features", "nn", "flow", "store",
    "service", "cluster",
)


# --------------------------------------------------------------------------- #
# Determinism of program-made counts across traced runs
# --------------------------------------------------------------------------- #
def program_digest() -> str:
    """sha256 over the program's sources (path and content of each file)."""
    digest = hashlib.sha256()
    source = os.path.join(ROOT, "src", "repro")
    for directory, subdirs, files in os.walk(source):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, source).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_counts(key: str, counts: dict) -> list:
    """Compare with the counts an earlier traced run under ``key`` recorded.

    The key names the program (``program_digest``), its backend and the
    workload, seed and seconds, so a changed program starts a new baseline
    and only two traced runs of the same program and inputs are compared.
    """
    path = os.path.join(WORK, "counts", f"{key}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(counts, handle, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as handle:
        earlier = json.load(handle)
    return [
        f"count {name}: {counts.get(name)} now, {earlier.get(name)} in an earlier traced run"
        for name in sorted(set(earlier) | set(counts))
        if counts.get(name) != earlier.get(name)
    ]


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(title: str, rows) -> None:
    """Rows of (name, value, unit, samples or None, raw wall value or None)."""
    print(f"\n{title}")
    for name, value, unit, samples, raw in rows:
        count = "" if samples is None else f"n={samples}"
        wall = "" if raw is None else f"(wall {fmt(raw)} s)"
        print(f"  {name:34s} {fmt(value):>14s} {unit:7s} {count:7s} {wall}")


def run_all(args) -> int:
    """Every workload in turn, each in its own ``run.py`` process.

    Prints each workload's tables, then one JSON object whose metrics are
    named ``<workload>.<metric>``.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or not lines:
            raise BenchError(f"workload {workload} could not run")
        print("\n".join(lines[:-1]) + "\n")
        summary = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        for name, metric in summary["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="BoolGebra reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no program sources at {os.path.join(ROOT, 'src', 'repro')}")
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        recorded_env = json.load(handle)["environment"]
    os.makedirs(WORK, exist_ok=True)

    speed = SpeedGauge(CALIB_REF_S)
    deadline = STARTED + DEADLINE_BASE_S + DEADLINE_PER_S * args.seconds
    speed.start()
    try:
        # Set-up: build the compile cache, then time fresh-interpreter set-ups.
        env, _ = run_child("prepare", speed, deadline)
        setup = []
        for _ in range(SETUP_REPEATS):
            probe, interval = run_child("setup-probe", speed, deadline, ("--workload", args.workload))
            probe["interval"] = interval
            setup.append(probe)
        result, _ = run_child("run", speed, deadline, (
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ))
        for _ in range(FIRST_JOB_PROBES.get(args.workload, 0)):
            probe, _ = run_child("first-job", speed, deadline, ("--workload", args.workload))
            result["first_job"].append(probe["first_job"])
            result["checks"] += probe["checks"]
            result["check_failures"] += probe["check_failures"]
            result["attempted"] += 1
    finally:
        speed.stop()
        for entry in os.listdir(WORK):
            if entry.startswith(("flow-store-", "fleet-")):
                shutil.rmtree(os.path.join(WORK, entry), ignore_errors=True)

    failures = list(result["check_failures"])
    if args.trace and "fixed_counts" in result:
        key = f"{args.workload}-{args.seed}-{args.seconds:g}-{result['backend']}-{result['engine']}-{program_digest()}"
        failures.extend(check_counts(key, result["fixed_counts"]))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"backend {result['backend']}/{result['engine']}, nproc {env['nproc']}, "
        f"load {env['loadavg_1m']:.2f}, bench.calib_s {speed.calib_s():.6f} "
        f"(reference {CALIB_REF_S}), "
        f"second seed for re-checks {recorded_env['second_seed']}"
    )
    if speed.swing() > NOISY_SPEED_RATIO:
        print(
            f"WARNING: machine speed changed {speed.swing():.2f}x between seconds of this run; "
            f"its figures are noisy"
        )
    if (result["backend"], result["engine"]) != (recorded_env["backend"], recorded_env["engine"]):
        print(
            f"WARNING: backend/engine {result['backend']}/{result['engine']} differs from the "
            f"recorded {recorded_env['backend']}/{recorded_env['engine']}; figures are not comparable"
        )

    e2e = end_to_end(result, setup, speed)
    rows = [(name, value, END_TO_END[name], n, raw) for name, (value, raw, n) in e2e.items()]
    rows[3] = (f"job_s_p90 (p{100 * tail_fraction(len(result['jobs'])):.0f})", *rows[3][1:])
    rows += [
        (name, value, unit, n, None)
        for name, (value, unit, n) in workload_extras(result, speed).items()
    ]
    print_table("end-to-end (seconds are reference seconds, see README.md)", rows)
    if args.trace:
        layers = per_layer(result, setup, speed)
        print_table("per-layer", [(name, value, unit, None, None) for name, (value, unit) in layers.items()])
        print(f"\nself time by layer (s), trace written to {result['trace_file']}")
        for layer in LAYERS:
            print(f"  {layer:14s} {layers[f'self.{layer}_s'][0]:10.4f}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, (value, _, _) in e2e.items()}

    print(f"\noutput checks: {result['checks']} run, {len(failures)} failed")
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": min(len(failures), result["attempted"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
