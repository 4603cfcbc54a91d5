"""One benchmark sample: a fresh process that runs one workload's suites.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds `n`, `r`, `seed`, `suites` and `trace` (a path for the span
file, or null for an untraced run). The last stdout line is a JSON object
with the set-up end time, the suite timings, the cases, peak RSS, the speed
probe times and, when traced, the per-function call counts and self times.
With an empty suite list the sample only sets up. Exit code 3 means the
rsoskit sources are not next to this directory.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Public functions timed in a traced run, by defining module. `groupoid` is
# left out on purpose: `eps` alone runs ~340k times per (3,7) sample, so a
# wrapper would distort the timings; its cost lands in its callers' self time.
LAYER_FUNCTIONS = {
    "elliptic": ("theta", "r_matrix"),
    "rsos": ("restricted_r", "star_triangle_residual", "restriction_residual"),
    "graded": ("tensor_space", "align", "tensor_morphism",
               "GradedMorphism.compose"),
    "transfer": ("vector_chain", "partial_trace", "transfer_matrix",
                 "commutator_residual", "partition_via_transfer",
                 "partition_enumerate"),
    "convolution": ("conv_mul", "character", "involution"),
    "fusion": ("fusion_bases", "verify_fusion_rules", "verify_spectrum"),
}


class SpeedProbe:
    """Measures how fast the machine runs right now, next to the workload.

    A shared 2-vCPU cloud VM was measured changing speed by up to 1.7x
    within seconds, and drifting by a quarter over tens of minutes, as
    co-tenants come and go. A tick runs a fixed snippet twice (interpreter
    loop, dict inserts and a small complex matmul, like the suites do) and
    times the warm second run. `ticks(k)` runs k ticks at once; inside
    `with probe:` a SIGALRM handler ticks every PERIOD_S of wall time, and
    `handler_s` is the handler time spent there, to keep it out of the
    suites' wall time. Three ticks follow the region, so a sample shorter
    than PERIOD_S still has a probe time.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self._matrix = np.ones((40, 40), dtype=complex)
        self.timed: list[float] = []
        self.handler_s = 0.0

    def _snippet(self):
        acc = 0
        for i in range(1000):
            acc += i * i
        table = {}
        for i in range(200):
            table[(i, i + 1)] = acc
        return self._matrix @ self._matrix

    def _tick(self, *_):
        t0 = time.perf_counter()
        self._snippet()
        t1 = time.perf_counter()
        self._snippet()
        t2 = time.perf_counter()
        self.timed.append(t2 - t1)
        self.handler_s += t2 - t0

    def ticks(self, k: int) -> float:
        """Median time of k ticks run now."""
        for _ in range(k):
            self._tick()
        return statistics.median(self.timed[-k:])

    def __enter__(self):
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.ticks(3)


class Tracer:
    """In-memory spans `[name, start, end, parent index]`, one list per process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0,
                      stack[-1] if stack else None])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def totals(self) -> dict[str, dict]:
        """Calls and self time (duration minus direct children) per name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child
        return out


def install_wrappers(tracer: Tracer) -> dict[str, int]:
    """Replace every binding of each layer function inside the rsoskit
    package: the defining module, every module that did `from .x import f`,
    the package namespace, and the class attribute for methods. Returns the
    number of bindings replaced per function."""
    modules = [m for k, m in sys.modules.items()
               if k == "rsoskit" or k.startswith("rsoskit.")]
    replaced = {}
    for module, names in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"rsoskit.{module}")
        for qual in names:
            owner = mod
            *outer, attr = qual.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = tracer.wrap(f"{module}.{qual}", original)
            count = 0
            for namespace in [owner] + modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        count += 1
            replaced[f"{module}.{qual}"] = count
    return replaced


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, SRC)
    try:
        from rsoskit import suites
    except ModuleNotFoundError as exc:
        if exc.name != "rsoskit":
            raise
        print(f"rsoskit not found under {SRC}", file=sys.stderr)
        return 3
    if not os.path.abspath(suites.__file__).startswith(SRC + os.sep):
        print(f"rsoskit imported from outside {SRC}", file=sys.stderr)
        return 3
    config = suites.RunConfig(n=spec["n"], r=spec["r"], seed=spec["seed"])
    config.params()
    ready = time.perf_counter()
    probe = SpeedProbe()
    setup_probe_s = probe.ticks(5)
    if not spec["suites"]:
        print(json.dumps({"ready": ready, "setup_probe_s": setup_probe_s}))
        return 0

    tracer = Tracer() if spec["trace"] else None
    replaced = install_wrappers(tracer) if tracer else {}
    suite_s, cases = {}, []
    with probe:
        start = time.perf_counter()
        for name in spec["suites"]:
            t0 = time.perf_counter()
            if tracer:
                result = tracer.span(f"suites.{name}", suites.run_suite,
                                     name, config)
            else:
                result = suites.run_suite(name, config)
            suite_s[name] = time.perf_counter() - t0
            cases.extend([c.name, c.residual, c.tolerance, c.passed]
                         for c in result)
        wall_s = time.perf_counter() - start - probe.handler_s

    out = {
        "ready": ready,
        "setup_probe_s": setup_probe_s,
        "wall_s": wall_s,
        "probe_s": statistics.median(probe.timed),
        "probes": len(probe.timed),
        "suite_s": suite_s,
        "cases": cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "blas": blas_info(),
                "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
    }
    if tracer:
        out["layers"] = tracer.totals()
        out["bindings"] = replaced
        with open(spec["trace"], "w") as fh:
            for name, s, e, parent in tracer.spans:
                fh.write(json.dumps([name, s, e, parent]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
