"""One workload of the benchmark, run in a fresh interpreter.

``run.py`` starts this script once per measured run (``run``), a few times
per run to time set-up (``setup-probe``) and, on opt_mid, the cold first job
(``first-job``), and once before anything else to build the native compile
cache and report the environment (``prepare``).
The script writes one JSON document to ``--out``; ``run.py`` turns it into
metrics.  Everything is timed with ``time.monotonic`` so that ``--t0``, taken
by the parent just before it started this interpreter, is on the same clock.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import resource
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Recorder, wrapper_cost_s  # noqa: E402  (stdlib only)

SCRIPT = "rw; rf; rs; b"
MID_DESIGNS = ("b07", "b08", "b09", "b10", "b11", "b12", "c880", "c2670", "c5315")
SERVED_DESIGNS = ("b07", "b08", "b09", "b10", "b11", "c880", "c2670")
SERVED_SCRIPTS = ("rw; rf; rs; b", "rw; rs", "rf; rw", "rw; b")
#: Sent to each shard of a fresh fleet in turn, before the stream, so that
#: the stream meets started workers.  b12 is outside the catalog, so the
#: stream's result caches stay cold; the scripts differ, so the second
#: shard computes instead of reading the first one's result from L2.
CANARIES = (
    {"kind": "optimize", "design": "b12", "options": {"script": "rw; rf; rs; b"}},
    {"kind": "optimize", "design": "b12", "options": {"script": "rw; rs"}},
)
#: Seed of the zipf draw.  The stream is the same for every --seed: its
#: order decides how the cold misses queue, and seeded orders moved the
#: tail latency by up to 2x between seeds.
ZIPF_SEED = 0
#: Open-loop phases sent one after the other to one fleet: (requests per
#: second, duration as a share of ``--seconds``).  Most first occurrences of
#: the zipf draw, the cold misses, fall into the first two phases; the long
#: last phase is mostly cache hits.  At twice these rates the misses queued
#: behind each other on the two workers, and whether a duplicate arrived
#: before or after its job finished flipped the tail by 30% between runs.
SERVED_PHASES = ((1.0, 0.5), (2.0, 0.5), (4.0, 1.0))
#: A phase meets the service level when its tail latency stays within this.
LATENCY_LIMIT_S = 1.0
FLOW_TRAIN, FLOW_INFER = "b08", "b10"
#: Nominal times of one warm opt_mid pass and one warm voter job.
MID_PASS_S = 2.5
VOTER_JOB_S = 8.0

WORKLOAD_DESIGNS = {
    "opt_mid": MID_DESIGNS,
    "opt_voter": ("voter",),
    "learn_flow": (FLOW_TRAIN, FLOW_INFER),
    "served_zipf": SERVED_DESIGNS,
}


def now() -> float:
    return time.monotonic()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check_repro_location(root: str) -> None:
    import repro

    expected = os.path.join(root, "src", "repro")
    actual = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.realpath(actual) != os.path.realpath(expected):
        raise SystemExit(f"repro imported from {actual}, expected {expected}")


# --------------------------------------------------------------------------- #
# prepare / setup-probe
# --------------------------------------------------------------------------- #
def prepare(args) -> dict:
    import numpy
    import platform

    from repro.backend import get_backend, prewarm_default_backend

    check_repro_location(args.root)
    # Byte-compile the whole package once, as an installed package would be.
    compileall.compile_dir(os.path.join(args.root, "src", "repro"), quiet=1)
    engine = prewarm_default_backend()
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "backend": get_backend().name,
        "engine": engine,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def setup_probe(args) -> dict:
    """Set-up in a fresh interpreter; ``import_s`` counts from process start."""
    import repro  # noqa: F401
    import repro.engine  # noqa: F401

    imported = now()
    from repro.circuits.benchmarks import load_benchmark

    for design in WORKLOAD_DESIGNS[args.workload]:
        load_benchmark(design)
    loaded = now()
    from repro.backend import prewarm_default_backend

    prewarm_default_backend()
    return {
        "import_s": imported - args.t0,
        "design_load_s": loaded - imported,
        "backend_prewarm_s": now() - loaded,
    }


def first_job_probe(args) -> dict:
    """One more cold opt_mid first job (b11) in a fresh interpreter."""
    check_repro_location(args.root)
    from repro.backend import prewarm_default_backend

    prewarm_default_backend()
    engine, report = optimize("b11")
    interval = [args.t0, now()]
    checker = OutputChecks()
    checker.optimize("b11", engine, report)
    return {"first_job": interval, "checks": checker.log.checked, "check_failures": checker.log.failures}


class OutputChecks:
    """Checks each output right after its measured interval.

    Only the verdicts are kept, not the outputs, so ``peak_rss_mb`` is the
    program's working set and not results the benchmark holds on to.  The
    ``checks`` module is imported at the first check, after the first job.
    A traced run's recorder is paused while a check runs.
    """

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.log = None
        self.outputs = 0

    def start(self) -> None:
        if self.log is not None:
            return
        import checks

        self.checks = checks
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
            self.expected = json.load(handle)
        self.log = checks.CheckLog()
        self.references = {}

    def optimize(self, design: str, engine, report) -> None:
        self.start()
        self.outputs += 1
        tracing = self.recorder is not None and self.recorder.active
        if tracing:
            self.recorder.active = False
        self.checks.check_optimize_output(design, engine.aig, report, self.expected, SCRIPT, self.log, self.references)
        if tracing:
            self.recorder.active = True


# --------------------------------------------------------------------------- #
# Traced mode: what gets wrapped
# --------------------------------------------------------------------------- #
def install_tracing(recorder: Recorder) -> None:
    """Wrap the public functions of each layer (see README.md, Layers)."""
    import repro.aig.cuts as cuts
    import repro.aig.kernels as kernels
    import repro.engine.evaluator as evaluator
    import repro.flow.boolgebra as boolgebra
    import repro.nn.trainer as trainer
    import repro.orchestration.sampling as sampling
    import repro.service.cluster as cluster
    import repro.service.server as server
    import repro.store.artifacts as artifacts
    import repro.store.tiered as tiered
    import repro.synth.rewrite_lib as rewrite_lib
    from repro.aig.aig import Aig
    from repro.backend import get_backend
    from repro.backend.api import OPS
    from repro.engine.registry import get_pass

    for short in ("rw", "rf", "rs", "b"):
        cls = get_pass(short)
        recorder.patch_method(cls, "run", f"engine.pass.{short}", "engine")
    recorder.patch_method(evaluator.SerialEvaluator, "evaluate", "engine.evaluate", "engine")

    def count_candidates(rec, args, kwargs, result):
        rec.values["synth.candidates"] += len(result)

    for scorer in ("score_rewrites", "score_refactors", "score_resubs"):
        recorder.patch_function("repro.synth.sweep", scorer, "synth.score", "synth", on_result=count_candidates)

    def count_applied(rec, args, kwargs, result):
        rec.values["synth.applied"] += len(result[0])

    recorder.patch_function("repro.synth.sweep", "commit_candidates", "synth.commit", "synth", on_result=count_applied)

    def count_sweeps(rec, args, kwargs, result):
        rec.values["synth.sweeps"] += result.sweeps

    recorder.patch_function("repro.synth.sweep", "run_sweeps", "synth.run_sweeps", "synth", on_result=count_sweeps)
    recorder.patch_method(rewrite_lib.RewriteLibrary, "lookup", "synth.rewrite_lib.lookup", "synth", event=False)

    recorder.patch_method(Aig, "replace", "aig.replace", "aig", event=False)
    recorder.patch_method(Aig, "transitive_fanin", "aig.transitive_fanin", "aig", event=False)
    recorder.patch_method(cuts.CutEnumerator, "enumerate", "aig.cuts.enumerate", "aig")
    recorder.patch_function("repro.aig.kernels", "levelized", "aig.kernels.levelized", "aig", event=False)
    recorder.patch_method(kernels.LevelizedAig, "mffc_nodes", "aig.kernels.mffc", "aig", event=False)

    backend = get_backend()
    support = backend.op_support()
    fallback_ops = {op for op, impl in support.items() if str(impl).startswith("fallback:")}

    def count_fallback(rec, args, kwargs, result):
        rec.values["backend.fallback_calls"] += 1

    for op in OPS + CAPABILITY_OPS:
        if not callable(getattr(backend, op, None)):
            continue
        recorder.patch_instance(
            backend,
            op,
            f"backend.{op}",
            "backend",
            event=op not in HOT_BACKEND_OPS,
            on_result=count_fallback if op in fallback_ops else None,
        )

    recorder.patch_function("repro.orchestration.orchestrate", "orchestrate", "orchestration.orchestrate", "orchestration")
    for sampler in (sampling.RandomSampler, sampling.PriorityGuidedSampler):
        recorder.patch_method(sampler, "generate", "orchestration.sampler", "orchestration")
    recorder.patch_function("repro.features.encoding", "encode_graph", "features.encode", "features")
    recorder.patch_function("repro.features.dataset", "build_dataset", "features.build_dataset", "features")

    def count_epochs(rec, args, kwargs, result):
        rec.values["nn.epochs"] += result.epochs

    recorder.patch_method(trainer.Trainer, "fit", "nn.fit", "nn", on_result=count_epochs)
    recorder.patch_method(trainer.Trainer, "predict", "nn.predict", "nn")
    recorder.patch_method(boolgebra.BoolGebraFlow, "generate_dataset", "flow.dataset", "flow")
    recorder.patch_method(boolgebra.BoolGebraFlow, "train", "flow.train", "flow")
    recorder.patch_method(boolgebra.BoolGebraFlow, "prune_and_evaluate", "flow.prune", "flow")

    def count_hit(rec, args, kwargs, result):
        rec.values["store.lookups"] += 1
        if result is not None:
            rec.values["store.hits"] += 1

    def count_write(rec, args, kwargs, result):
        rec.values["store.writes"] += 1
        try:
            rec.values["store.bytes_written"] += os.path.getsize(result)
        except (OSError, TypeError):
            pass

    for attr in sorted(vars(artifacts.ArtifactStore)):
        if attr.startswith("save_"):
            recorder.patch_method(artifacts.ArtifactStore, attr, "store.save", "store", on_result=count_write)
        elif attr.startswith("load_"):
            recorder.patch_method(artifacts.ArtifactStore, attr, "store.load", "store", on_result=count_hit)
    recorder.patch_method(tiered.HttpStoreClient, "get", "store.l2_get", "store")
    recorder.patch_method(tiered.HttpStoreClient, "put", "store.l2_put", "store")
    recorder.patch_method(server.SynthesisService, "submit", "service.submit", "service")
    recorder.patch_method(cluster.Router, "submit", "cluster.router_submit", "cluster")


#: Backend ops outside the ``Backend`` protocol that callers feature-detect.
CAPABILITY_OPS = ("cut_level_merge",)
#: Backend ops called per node or per cut: aggregated, not kept as spans.
HOT_BACKEND_OPS = {"cut_table_exact", "resub_zero_match", "resub_rank_divisors", "resub_one_match"}

def deterministic_counts(recorder: Recorder) -> dict:
    """Counts the program determines; two traced runs on one seed must agree."""
    counts = {
        "synth.candidates": int(recorder.values.get("synth.candidates", 0)),
        "synth.applied": int(recorder.values.get("synth.applied", 0)),
        "aig.replace.calls": recorder.calls.get("aig.replace", 0),
    }
    for name, calls in recorder.calls.items():
        if name.startswith("backend."):
            counts[f"{name}.calls"] = calls
    return counts


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def optimize(design: str):
    """One user job: load the design, run the script; returns (engine, report)."""
    from repro import Engine

    engine = Engine.load(design)
    report = engine.run(SCRIPT)
    return engine, report


def units(seconds: float, nominal_s: float) -> int:
    """How many units of ``nominal_s`` fit in ``seconds`` (at least one).

    Runs do a fixed amount of work, sized from ``--seconds`` with nominal
    unit times taken on the reference machine, so that every run of a
    workload has the same number of samples.
    """
    return max(1, round(seconds / nominal_s))


def run_opt_mid(args, result: dict, recorder, checker: OutputChecks) -> None:
    engine, report = optimize("b11")
    result["first_job"] = [[args.t0, now()]]
    checker.optimize("b11", engine, report)
    order = list(MID_DESIGNS)
    random.Random(args.seed).shuffle(order)
    for design in order:  # warm-up pass
        engine, report = optimize(design)
        checker.optimize(design, engine, report)
    if recorder is not None:
        result["fixed_counts"] = deterministic_counts(recorder)
    jobs, ands_in, ands_out = [], 0, 0
    for _ in range(units(args.seconds, MID_PASS_S)):
        for design in order:
            start = now()
            engine, report = optimize(design)
            jobs.append([start, now()])
            ands_in += report.size_before
            ands_out += report.size_after
            checker.optimize(design, engine, report)
            engine = report = None  # only the job being measured holds an AIG
    result.update(jobs=jobs, ands_in=ands_in, ands_out=ands_out)


def run_opt_voter(args, result: dict, recorder, checker: OutputChecks) -> None:
    engine, report = optimize("voter")
    result["first_job"] = [[args.t0, now()]]
    checker.optimize("voter", engine, report)
    if recorder is not None:
        result["fixed_counts"] = deterministic_counts(recorder)
    jobs, ands_in, ands_out = [], 0, 0
    for _ in range(units(args.seconds, VOTER_JOB_S)):
        engine = report = None  # only the job being measured holds an AIG
        start = now()
        engine, report = optimize("voter")
        jobs.append([start, now()])
        ands_in += report.size_before
        ands_out += report.size_after
        checker.optimize("voter", engine, report)
    result.update(jobs=jobs, ands_in=ands_in, ands_out=ands_out)


def run_learn_flow(args, result: dict, recorder, checker=None) -> dict:
    from repro import ArtifactStore, BoolGebraFlow, fast_config
    from repro.circuits.benchmarks import load_benchmark

    store_root = os.path.join(args.work, f"flow-store-{os.getpid()}-{args.seed}")
    config = fast_config(num_samples=60, epochs=60, seed=args.seed)
    config.evaluator = "serial"
    config.store = ArtifactStore(store_root)
    train_aig = load_benchmark(FLOW_TRAIN).copy()
    infer_aig = load_benchmark(FLOW_INFER).copy()
    flow = BoolGebraFlow(config)
    start = now()
    dataset = flow.generate_dataset(train_aig)
    dataset_done = now()
    flow.train(train_aig, dataset)
    train_done = now()
    outcome = flow.prune_and_evaluate(infer_aig)
    end = now()
    result.update(
        first_job=[[args.t0, end]],
        jobs=[[start, end]],
        ands_in=outcome.original_size,
        ands_out=outcome.best_size,
        stages={
            "dataset_s": [start, dataset_done],
            "train_s": [dataset_done, train_done],
            "prune_s": [train_done, end],
        },
        flow={
            "best_size": outcome.best_size,
            "rank_corr": float(outcome.prediction_report["spearman"]),
        },
    )
    if recorder is not None:
        result["fixed_counts"] = deterministic_counts(recorder)
    return {"flow": flow, "infer_aig": infer_aig, "config": config}


class Fleet:
    """L2 store, two service shards with a process worker each, a router."""

    def __init__(self, base: str) -> None:
        from repro.service import Router, RouterServer, ServiceServer, SynthesisService
        from repro.store import StoreServer, TieredStore

        self.l2 = StoreServer(os.path.join(base, "l2")).start()
        self.shards = {}
        for name in ("a", "b"):
            store = TieredStore(os.path.join(base, name), self.l2.url)
            service = SynthesisService(num_workers=1, store=store, mode="process")
            self.shards[name] = ServiceServer(service, port=0).start()
        self.router = Router({name: server.url for name, server in self.shards.items()}).start()
        self.front = RouterServer(self.router, port=0).start()

    def close(self) -> None:
        import multiprocessing

        self.front.stop()
        self.router.close()
        for server in self.shards.values():
            server.stop()
        self.l2.stop()
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=10.0)


TERMINAL = ("done", "failed", "cancelled")


def serve_stream(base: str, schedule: list, specs: list) -> dict:
    """Send ``specs`` at the ``schedule``'s due offsets to a fresh fleet.

    One thread submits each request at its due time (open loop); a second
    one long-polls the jobs that were not finished at submission, 50 ms per
    job in turn.  Each request is timed from its due time to the moment its
    job finished (the job's own timestamp, so the polling order does not
    delay it), or to the submit response when that already said done.
    """
    from repro.service import HttpServiceClient

    fleet_start = now()
    fleet = Fleet(base)
    try:
        submitter = HttpServiceClient(fleet.front.url)
        poller = HttpServiceClient(fleet.front.url)
        canaries = []
        for server, canary in zip(fleet.shards.values(), CANARIES):
            client = HttpServiceClient(server.url)
            canaries.append((canary, client.result(client.submit(canary)["job_id"], timeout=60.0)))
            if len(canaries) == 1:
                first_result = [fleet_start, now()]
        requests = [{"spec": spec, "due": None, "done": None, "state": None} for spec in specs]
        pending = []
        lock = threading.Lock()
        finished = threading.Event()

        # Job timestamps are wall-clock (time.time) in this same process.
        to_monotonic = time.monotonic() - time.time()

        def poll():
            while True:
                with lock:
                    batch = list(pending)
                if not batch:
                    if finished.is_set():
                        return
                    time.sleep(0.01)
                    continue
                for request in batch:
                    try:
                        snapshot = poller.wait(request["job_id"], timeout=0.05)
                    except TimeoutError:
                        continue
                    finish = snapshot["finished_at"] + to_monotonic
                    request["done"] = max(finish, request["returned"])
                    request["state"] = snapshot["state"]
                    with lock:
                        pending.remove(request)

        polling = threading.Thread(target=poll, name="perfbench-poller")
        polling.start()
        submit_s, lags = [], []
        try:
            stream_start = now()
            for due_offset, request in zip(schedule, requests):
                due = stream_start + due_offset
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                sent = now()
                lags.append(sent - due)
                request["due"] = due
                try:
                    snapshot = submitter.submit(request["spec"])
                except Exception as error:  # the request counts as failed
                    request["done"], request["state"] = now(), f"error: {error}"
                    continue
                returned = now()
                submit_s.append(returned - sent)
                request["job_id"], request["returned"] = snapshot["job_id"], returned
                if snapshot["state"] in TERMINAL:
                    request["done"], request["state"] = returned, snapshot["state"]
                else:
                    with lock:
                        pending.append(request)
        finally:
            finished.set()
            polling.join(timeout=120.0)
        stream_end = now()
        done = [r for r in requests if r["state"] == "done"]
        payloads = {}
        for request in done:
            if request["job_id"] not in payloads:
                payloads[request["job_id"]] = poller.result(request["job_id"], timeout=60.0)
        shard_metrics = {
            name: HttpServiceClient(server.url).metrics() for name, server in fleet.shards.items()
        }
        return {
            "requests": requests,
            "first_result": first_result,
            "canaries": canaries,
            "wall_s": stream_end - stream_start,
            "lags": lags,
            "submit_s": submit_s,
            "payloads": payloads,
            "shard_metrics": shard_metrics,
            "router": fleet.router.router_snapshot()["counters"],
        }
    finally:
        fleet.close()


def run_served_zipf(args, result: dict, recorder, checker: OutputChecks) -> list:
    from repro.service.loadgen import zipf_specs

    catalog = [
        {"kind": "optimize", "design": design, "options": {"script": script}}
        for design in SERVED_DESIGNS
        for script in SERVED_SCRIPTS
    ]
    schedule, phase_of, start = [], [], 0.0
    for phase, (rate, share) in enumerate(SERVED_PHASES):
        count = int(round(rate * share * args.seconds))
        schedule.extend(start + index / rate for index in range(count))
        phase_of.extend([phase] * count)
        start += share * args.seconds
    specs = zipf_specs(len(schedule), catalog, skew=1.1, seed=ZIPF_SEED)
    stream = serve_stream(os.path.join(args.work, f"fleet-{os.getpid()}"), schedule, specs)
    requests, payloads = stream["requests"], stream["payloads"]
    jobs, ands_in, ands_out, failures = [], 0, 0, []
    phases = [{"rate": rate, "requests": 0, "failed": 0, "latencies": []} for rate, _ in SERVED_PHASES]
    for phase, request in zip(phase_of, requests):
        phases[phase]["requests"] += 1
        if request["state"] != "done":
            phases[phase]["failed"] += 1
            failures.append(f"{request['spec']['design']} at {phases[phase]['rate']:g}/s: {request['state']}")
            continue
        interval = [request["due"], request["done"]]
        jobs.append(interval)
        phases[phase]["latencies"].append(interval)
        report = payloads[request["job_id"]]["report"]
        ands_in += report["size_before"]
        ands_out += report["size_after"]
    result.update(
        jobs=jobs,
        ands_in=ands_in,
        ands_out=ands_out,
        first_job=[stream["first_result"]],
        requests=len(requests),
        request_failures=failures,
        phases=phases,
        lag_s_max=max(stream["lags"]),
        latency_limit_s=LATENCY_LIMIT_S,
        submit_s=stream["submit_s"],
        service=service_metrics(stream),
        router=stream["router"],
    )
    if recorder is not None:
        counts = deterministic_counts(recorder)
        counts["service.accepted"] = result["service"]["service.accepted"]
        result["fixed_counts"] = counts
    served = [(r["spec"], payloads[r["job_id"]]) for r in requests if r["state"] == "done"]
    return stream["canaries"] + served


def service_metrics(stream: dict) -> dict:
    """Fleet view of the shards' ``/v1/metrics`` snapshots.

    Counts are summed over the shards; latency quantiles are the worst
    shard's.
    """
    snapshots = list(stream["shard_metrics"].values())
    totals = {}
    for snapshot in snapshots:
        for name, value in snapshot["counters"].items():
            totals[name] = totals.get(name, 0) + value
    latency = [snapshot["latency"] for snapshot in snapshots]
    run_sum = sum(entry["run_seconds"]["sum"] for entry in latency)
    workers = sum(snapshot["gauges"].get("workers", 0) for snapshot in snapshots)
    submitted = totals.get("submitted", 0)
    return {
        "service.queue_s_p50": max(entry["queue_seconds"]["p50"] for entry in latency),
        "service.queue_s_p90": max(entry["queue_seconds"]["p90"] for entry in latency),
        "service.run_s_p50": max(entry["run_seconds"]["p50"] for entry in latency),
        "service.submitted": submitted,
        "service.accepted": totals.get("accepted", 0),
        "service.coalesced": totals.get("coalesced", 0),
        "service.memory_hits": totals.get("memory_hits", 0),
        "service.store_hits": totals.get("store_hits", 0),
        "service.rejected": totals.get("rejected", 0),
        "service.dedup_ratio": totals.get("accepted", 0) / submitted if submitted else 0.0,
        "service.worker_busy_share": run_sum / (workers * stream["wall_s"]) if workers else 0.0,
    }


# --------------------------------------------------------------------------- #
def run(args) -> dict:
    check_repro_location(args.root)
    from repro.backend import get_backend, prewarm_default_backend

    engine = prewarm_default_backend()
    result = {"workload": args.workload, "seed": args.seed, "backend": get_backend().name, "engine": engine}
    recorder = None
    if args.trace:
        recorder = Recorder()
        install_tracing(recorder)
        recorder.active = True
    traced_start = now()
    runner = {
        "opt_mid": run_opt_mid,
        "opt_voter": run_opt_voter,
        "learn_flow": run_learn_flow,
        "served_zipf": run_served_zipf,
    }[args.workload]
    checker = OutputChecks(recorder)
    outputs = runner(args, result, recorder, checker)
    traced_end = now()
    result["peak_rss_mb"] = peak_rss_mb()
    if recorder is not None:
        recorder.active = False
        result["layers"] = {
            "calls": dict(recorder.calls),
            "total_s": dict(recorder.total_s),
            "self_s": dict(recorder.self_s),
            "values": dict(recorder.values),
            "interval": [traced_start, traced_end],
            "wrapper_cost_s": wrapper_cost_s(),
            "dropped_events": recorder.dropped_events,
        }
        trace_path = os.path.join(args.work, f"trace-{args.workload}-{args.seed}.json")
        recorder.chrome_trace(trace_path, traced_start)
        result["trace_file"] = os.path.relpath(trace_path, args.root)
        recorder.uninstall()

    checker.start()
    checks, expected, log = checker.checks, checker.expected, checker.log
    if args.workload in ("opt_mid", "opt_voter"):
        result["attempted"] = checker.outputs
    elif args.workload == "learn_flow":
        checks.check_flow(result, outputs, expected, args.seed, log)
        result["attempted"] = 1
    else:
        checks.check_served(outputs, expected, log)
        log.failures.extend(result["request_failures"])
        result["attempted"] = result["requests"]
    result["checks"] = log.checked
    result["check_failures"] = log.failures
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "setup-probe", "first-job", "prepare"))
    parser.add_argument("--workload", choices=sorted(WORKLOAD_DESIGNS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    handler = {
        "run": run,
        "setup-probe": setup_probe,
        "first-job": first_job_probe,
        "prepare": prepare,
    }[args.mode]
    payload = handler(args)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
