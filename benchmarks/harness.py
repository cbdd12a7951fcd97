"""Runs one workload, untraced (end-to-end metrics) or traced (per-layer
metrics), counts operations and failures, and writes the result file.

Imported by run.py after the BLAS thread variables are pinned, because
numpy reads them when it loads.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict

import numpy as np

import hostspeed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
TRACE_PAIRS = 3  # untraced/traced round pairs in a traced run
# Work counts that depend only on the seed, so two traced rounds must agree.
REPEATABLE = ("embedder.forward_batch.frames", "schedule.average_probability.calls",
              "evaluation.cosine_score.calls", "corpus.read_corpus.bytes")
FIT_SPANS = ("trainer.train", "trainer.adapt")
RATES = ("iters_per_s", "trials_per_s")


class Session:
    """Attempts operations one at a time (a closed loop) and counts failures.

    A failure is an exception from the program, a non-zero CLI exit, or a
    failed output check.  The check runs after the operation and outside
    the tracer, so checking costs no traced time.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, name, call, check=None, tracer=None):
        self.attempted += 1
        try:
            if tracer is None:
                result = call()
            else:
                with tracing.instrumented(tracer), tracer.phase():
                    result = call()
            if check is not None:
                check(result)
            return result
        except Exception:  # any failure of one operation is counted, and the run goes on
            self.fail(name, traceback.format_exc(limit=4))
            return None

    def fail(self, name, detail):
        self.failed += 1
        self.failures.append({"op": name, "detail": detail})


class Run:
    def __init__(self, w, scale, seed, workdir):
        self.w, self.scale, self.seed, self.workdir = w, scale, seed, workdir
        self.session = Session()
        # metric -> [(measured value, index of the host reading taken just before)]
        self.samples = {"setup_s": [], "iters_per_s": [], "trials_per_s": [], "diagnose_s": []}
        self.host = hostspeed.HostSpeed()
        self.reference = workloads.load_reference()

    def setup(self, tracer=None, record=True):
        before = self.host.read()
        t0 = time.perf_counter()
        inputs = self.session.op("setup", lambda: workloads.setup(self.w, self.seed, self.workdir),
                                 tracer=tracer)
        if inputs is not None and record:
            self.samples["setup_s"].append((time.perf_counter() - t0, before))
            if inputs.source_iters_per_s is not None and not self.w.fit:
                # this workload's only trainer.train call is the set-up one
                self.samples["iters_per_s"].append((inputs.source_iters_per_s, before))
        return inputs

    def round(self, inputs, tracer=None):
        """fit -> evaluate -> diagnose, each waiting for the one before."""
        w, op = self.w, self.session.op
        if w.fit:
            before = self.host.read()
            got = op("fit", lambda: workloads.fit(w, inputs, self.seed), tracer=tracer,
                     check=lambda r: workloads.check_fit(w, self.scale, self.seed, r[0], r[1],
                                                         self.reference))
            if got is None:
                return
            self.samples["iters_per_s"].append((w.fit_iterations / got[2], before))
            n_classes = got[0].n_classes
        else:
            n_classes = inputs.source.n_classes
        before = self.host.read()
        secs = op("evaluate", lambda: workloads.evaluate(w, inputs), tracer=tracer,
                  check=lambda _: workloads.check_evaluate(inputs))
        if secs is not None:
            self.samples["trials_per_s"].append((inputs.n_trials / secs, before))
        before = self.host.read()
        secs = op("diagnose", lambda: workloads.diagnose(w, inputs, self.seed), tracer=tracer,
                  check=lambda _: workloads.check_diagnose(inputs, n_classes))
        if secs is not None:
            self.samples["diagnose_s"].append((secs, before))

    def measure(self, seconds):
        """End-to-end metrics: several set-ups, then rounds for ``seconds``.
        Returns (host-scaled medians, measured medians)."""
        # the first set-up also pays the process's one-time start-up costs
        inputs = self.setup(record=False)
        for _ in range(SETUP_REPEATS):
            inputs = self.setup() or inputs
        if inputs is None:
            return {}, {}
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            self.round(inputs)
            rounds += 1
        self.host.read()  # closes the interval of the last timing
        scaled, measured = {}, {}
        for name, got in self.samples.items():
            if got:
                measured[name] = statistics.median(v for v, _ in got)
                # a slow host deflates rates and inflates durations
                scaled[name] = statistics.median(
                    v * self.host.slowness(i) if name in RATES else v / self.host.slowness(i)
                    for v, i in got)
        scaled["peak_rss_mb"] = measured["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return scaled, measured

    def trace(self):
        """Per-layer metrics.  A set-up and a round untraced (warm-up), a
        traced set-up, then untraced and traced rounds in turn.  The layer
        numbers cover the traced set-up and the first traced round; the
        second traced round must repeat the first's work counts; the
        host-scaled medians of the two kinds of round give the overhead."""
        def timed_round(tracer=None):
            before = self.host.read()
            t0 = time.perf_counter()
            self.round(inputs, tracer=tracer)
            seconds = time.perf_counter() - t0
            self.host.read()
            return seconds / self.host.slowness(before)

        inputs = self.setup()
        if inputs is None:
            return {}, []
        self.round(inputs)
        t_setup = tracing.Tracer()
        inputs = self.setup(tracer=t_setup)
        if inputs is None:
            return {}, []
        untraced_s, traced_s, tracers = [], [], []
        for _ in range(TRACE_PAIRS):
            untraced_s.append(timed_round())
            tracers.append(tracing.Tracer())
            traced_s.append(timed_round(tracers[-1]))
        first, second = tracers[0].aggregate(), tracers[1].aggregate()
        self.session.attempted += 1
        differ = {k: (first.get(k, 0), second.get(k, 0)) for k in REPEATABLE
                  if first.get(k, 0) != second.get(k, 0)}
        if differ:
            self.session.fail("trace-repeat", f"work counts differ between traced rounds: {differ}")

        layers = tracing.merge(t_setup.aggregate(), first)
        refreshes = layers.get("schedule.DropState.refresh.calls", 0)
        in_fit = tracers[0].calls_under("schedule.average_probability", FIT_SPANS)
        layers["schedule.enrol_passes_per_refresh"] = in_fit / refreshes if refreshes else 0.0
        untraced = statistics.median(untraced_s)
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s) - untraced) / untraced
        spans = [span for t in (t_setup, tracers[0]) for span in t.spans]
        return layers, spans


def environment(w, scale, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": sys.version,
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale,
        "setup_repeats": SETUP_REPEATS,
        "workload": asdict(w),
    }


def _source_digest():
    """Digest of the package sources, which identifies the code also outside a clone."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dropclass")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    """HEAD commit from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def main(workload, seed, seconds, trace, scale):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    w = workloads.get(workload, scale)
    workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    run = Run(w, scale, seed, workdir)
    started = time.time()
    measured = {}
    try:
        if trace:
            values, spans = run.trace()
        else:
            (values, measured), spans = run.measure(seconds), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    session = run.session
    values["fail_share"] = session.failed / session.attempted

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}  # layer never entered
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}

    record = {"result": result, "all_values": values, "measured_values": measured,
              "samples": run.samples, "host_readings": run.host.readings,
              "failures": session.failures, "started_unix": started,
              "environment": environment(w, scale, seed), "spans": spans}
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"BENCH_{workload}_seed{seed}_trace{int(trace)}_"
                                     f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime(started))}_"
                                     f"{os.getpid()}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for f in session.failures:
        print(f"FAILED {f['op']}: {f['detail']}", file=sys.stderr)
    for name, m in metrics.items():
        n = len(run.samples.get(name, ()))
        note = f"  (median of {n})" if n else ""
        print(f"{name:>40}  {m['value']:.6g} {m['unit']}{note}")
    print(f"result file: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
