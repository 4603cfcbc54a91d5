"""rsoskit benchmark: times the verification suites of three workloads from
outside the library.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Without --workload, all workloads run one
after another. Each sample is a fresh child process (perfbench/child.py)
with one BLAS/OpenMP thread that imports rsoskit from ./src, builds the
workload's RunConfig for the seed and calls `suites.run_suite` for each of
the workload's suites. Samples start until --seconds have passed, and at
least MIN_SAMPLES run. After each sample SETUP_REPEATS more children only
set up, so set-up time has more samples. Every sample passes the correctness
gate or the run reports `correct: false` and exits 1. If rsoskit cannot be
imported from ./src the run exits 2 without a result.

--trace 0 reports the end-to-end metrics as medians over the samples:
  wall_s              wall time from the first suite call to the last
  setup_s             process start until rsoskit is imported and the
                      RunConfig's params are built
  peak_rss_mb         peak RSS of a sample, from getrusage(RUSAGE_SELF)
  cases_passed_share  passed / attempted cases; a crashed, killed or
                      non-zero-exit sample fails all its cases
wall_s and setup_s are in reference seconds: raw seconds times
PROBE_REF_S over the speed probe's median time beside them (see
child.SpeedProbe), so that the machine's changing speed cancels out. The
raw medians, quartiles and the tail percentile are printed above the result.
--trace 1 alternates traced and untraced samples and reports per-layer call
counts and self times (raw seconds), suite times and the tracing overhead. Spans of the
last traced sample go to perfbench/out/<workload>-seed<N>.spans.jsonl as
JSON lines `[name, start, end, parent index]`.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import child

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
MIN_SAMPLES = 3
SETUP_REPEATS = 2
CHILD_TIMEOUT_S = 120.0
# Near the probe's median on the machine the benchmark was built on, so that
# reference seconds read close to raw seconds there.
PROBE_REF_S = 100e-6
PROGRAM_MISSING = 3  # child exit code: rsoskit is not importable from ./src

SUITES_10 = ("theta", "unitarity", "dybe", "star-triangle", "restriction",
             "exactness", "transfer-commute", "characters", "fusion",
             "spectrum")
ALL_SUITES = SUITES_10 + ("partition",)


def _names_10(n: int, r: int) -> list[str]:
    return [
        "theta-odd", "theta-period-one", "theta-period-tau",
        "theta-zero-at-origin", "bracket-derivative-one", "bracket-zero-at-r",
        f"unitarity-n{n}-r{r}", f"dybe-n{n}-r{r}", f"star-triangle-n{n}-r{r}",
        f"restriction-n{n}-r{r}",
        f"exactness-n{n}-r{r}", "kernel-dims-match-characters",
        "residue-oracle-relative",
        "transfer-commute-chain-2", "transfer-commute-chain-3",
        "character-ring-map", "convolution-associativity",
        "involution-antihomomorphism",
        f"fusion-rules-r{r}", "verlinde-symmetry", "verlinde-associativity",
    ] + [f"spectrum-k{k}" for k in range(1, n)] + (
        ["spectrum-dense-eigensolver"] if n == 2 else [])


# Why each workload was chosen, and the layers it loads and bypasses, are in
# BENCHMARK.json and perfbench/README.md. `cases` is the expected case list.
WORKLOADS = {
    "verify-n2r5": {
        "n": 2, "r": 5, "suites": ALL_SUITES,
        "cases": _names_10(2, 5) + ["partition-oracle-n2-r5",
                                    "partition-state-dimension"],
    },
    # The partition suite at (3,7) is left out: it exhausts memory (ROADMAP
    # open item 3). The change that bounds that memory adds it back.
    "verify-n3r7": {
        "n": 3, "r": 7, "suites": SUITES_10, "cases": _names_10(3, 7),
    },
    "fusion-r11": {
        "n": 2, "r": 11, "suites": ("fusion", "characters"),
        "cases": ["fusion-rules-r11", "verlinde-symmetry",
                  "verlinde-associativity", "character-ring-map",
                  "convolution-associativity", "involution-antihomomorphism"],
    },
}

LAYER_FUNCTIONS = tuple(f"{module}.{name}"
                        for module, names in child.LAYER_FUNCTIONS.items()
                        for name in names)


class ProgramMissing(Exception):
    pass


def run_child(spec: dict) -> tuple[float, int | None, dict | None, str]:
    """Start one sample and wait for it. Returns (spawn time, exit code or
    None when killed on timeout, parsed result or None, stderr tail)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return spawned, None, None, f"killed after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == PROGRAM_MISSING:
        raise ProgramMissing(err.strip())
    result = None
    if proc.returncode == 0:
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            pass
    return spawned, proc.returncode, result, err.strip()[-2000:]


def gate(result: dict | None, code: int | None, expected: list[str],
         reference: list | None) -> list[str]:
    """Problems with one sample; empty when it passes the correctness gate."""
    if code != 0:
        return [f"exit status {code}"]
    if result is None:
        return ["no result line"]
    cases = result["cases"]
    problems = []
    names = [c[0] for c in cases]
    if names != expected:
        problems.append(f"case names {names} != expected {expected}")
    problems += [f"case {c[0]} failed: residual {c[1]!r} > {c[2]!r}"
                 for c in cases if not c[3]]
    problems += [f"exact case {c[0]} has residual {c[1]!r}, not 0"
                 for c in cases if c[2] == 0.0 and c[1] != 0.0]
    if reference is not None:
        mine = [(c[0], c[1]) for c in cases]
        if mine != reference:
            diff = [(a, b) for a, b in zip(mine, reference) if a != b]
            problems.append(f"cases or residuals differ from the first sample "
                            f"with this seed (this, first): {diff}")
    return problems


def failed_cases(result: dict | None, expected: list[str]) -> int:
    if result is None:
        return len(expected)
    passed = {c[0] for c in result["cases"] if c[3]}
    return sum(1 for name in expected if name not in passed)


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return f"p{q} {ordered[rank - 1]:.4f}"
    return "no tail percentile (needs 20+ samples for 10 beyond the median)"


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"median {statistics.median(values):.4f} "
            f"q1 {q1:.4f} q3 {q3:.4f} max {max(values):.4f}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    expected = wl["cases"]
    spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.jsonl")
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
    plain, traced, setups = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    reference = None
    env_info = None
    start = time.perf_counter()
    k = 0
    while k < MIN_SAMPLES or time.perf_counter() - start < seconds:
        is_traced = trace and k % 2 == 0
        spec = {"n": wl["n"], "r": wl["r"], "seed": seed,
                "suites": list(wl["suites"]),
                "trace": spans_path if is_traced else None}
        spawned, code, result, err = run_child(spec)
        k += 1
        attempted += len(expected)
        failed += failed_cases(result, expected)
        found = gate(result, code, expected, reference)
        if found:
            problems += [f"sample {k}: {p}" for p in found]
            if err:
                problems.append(f"sample {k} stderr: {err}")
            continue
        if reference is None:
            reference = [(c[0], c[1]) for c in result["cases"]]
        env_info = result["env"]
        setups.append((result["ready"] - spawned, result["setup_probe_s"]))
        (traced if is_traced else plain).append(result)
        for _ in range(SETUP_REPEATS):
            spawned, code, result, err = run_child(dict(spec, suites=[]))
            if code != 0 or result is None:
                problems.append(f"set-up sample: exit status {code}: {err}")
            else:
                setups.append((result["ready"] - spawned,
                               result["setup_probe_s"]))
    return {"workload": name, "seed": seed, "plain": plain, "traced": traced,
            "setups": setups,
            "attempted": attempted, "failed": failed, "problems": problems,
            "env": env_info, "spans": spans_path if traced else None}


def median_of(samples: list[dict], key) -> float:
    return statistics.median(key(s) for s in samples)


def ref_wall(sample: dict) -> float:
    return sample["wall_s"] * PROBE_REF_S / sample["probe_s"]


def end_to_end(run: dict) -> dict:
    plain = run["plain"]
    metrics = {"cases_passed_share": {
        "value": 1.0 - run["failed"] / run["attempted"], "unit": "share"}}
    if plain:
        metrics["wall_s"] = {"value": median_of(plain, ref_wall), "unit": "s"}
        metrics["setup_s"] = {
            "value": statistics.median(raw * PROBE_REF_S / probe
                                       for raw, probe in run["setups"]),
            "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": median_of(plain, lambda s: s["peak_rss_mb"]), "unit": "MB"}
        walls = [s["wall_s"] for s in plain]
        print(f"{run['workload']} seed {run['seed']}: {len(plain)} samples, "
              f"{len(run['setups'])} set-ups")
        print(f"  raw wall_s {spread(walls)} s; {tail(walls)}")
        print(f"  reference wall_s {spread([ref_wall(s) for s in plain])} s")
        print(f"  raw setup_s {spread([raw for raw, _ in run['setups']])} s")
        print(f"  probe_us {spread([1e6 * s['probe_s'] for s in plain])}; "
              f"{min(s['probes'] for s in plain)}+ probes per sample")
    for key in ("wall_s", "setup_s", "peak_rss_mb", "cases_passed_share"):
        if key in metrics:
            print(f"  {key} = {metrics[key]['value']:.6g} {metrics[key]['unit']}")
    print(f"  cases: {run['failed']} failed of {run['attempted']} attempted")
    return metrics


def per_layer(run: dict) -> dict:
    traced, plain = run["traced"], run["plain"]
    metrics: dict[str, dict] = {}
    if not traced or not plain:
        return metrics

    def self_s(sample: dict, f: str) -> float:
        return sample["layers"].get(f, {}).get("self_s", 0.0)

    first = traced[0]["layers"]
    unrepeated = sorted(
        f for f in LAYER_FUNCTIONS
        if len({s["layers"].get(f, {}).get("calls", 0) for s in traced}) > 1)
    for f in LAYER_FUNCTIONS:
        metrics[f"{f}.calls"] = {
            "value": first.get(f, {}).get("calls", 0), "unit": "count"}
        metrics[f"{f}.self_s"] = {
            "value": median_of(traced, lambda s: self_s(s, f)), "unit": "s"}
    for suite in ALL_SUITES:
        metrics[f"suites.{suite}.s"] = {
            "value": median_of(plain, lambda s: s["suite_s"].get(suite, 0.0)),
            "unit": "s"}
    traced_wall = median_of(traced, ref_wall)
    plain_wall = median_of(plain, ref_wall)
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall,
                                   "unit": "s"}
    metrics["trace.calls_unrepeated"] = {"value": len(unrepeated),
                                         "unit": "count"}

    print(f"{run['workload']} seed {run['seed']}: {len(traced)} traced and "
          f"{len(plain)} untraced samples")
    print(f"  reference wall_s median traced {traced_wall:.4f} s, untraced "
          f"{plain_wall:.4f} s: overhead {traced_wall - plain_wall:+.4f} s "
          f"({100 * (traced_wall / plain_wall - 1):+.1f}%); raw medians "
          f"{median_of(traced, lambda s: s['wall_s']):.4f} s and "
          f"{median_of(plain, lambda s: s['wall_s']):.4f} s")
    print("  bindings wrapped per function: " + json.dumps(traced[0]["bindings"]))
    print("  call counts that differ between traced samples: "
          + (", ".join(unrepeated) if unrepeated else "none"))
    total_wall = sum(s["wall_s"] for s in traced)
    share = {f: sum(self_s(s, f) for s in traced) / total_wall
             for f in LAYER_FUNCTIONS}
    print(f"  {'function':34s} {'calls':>7s} {'self_s':>8s} {'% wall':>7s}")
    for f in sorted(LAYER_FUNCTIONS, key=lambda f: -share[f]):
        print(f"  {f:34s} {metrics[f'{f}.calls']['value']:7d} "
              f"{metrics[f'{f}.self_s']['value']:8.4f} {100 * share[f]:6.1f}%")
    print(f"  named functions hold {100 * sum(share.values()):.1f}% of traced "
          f"wall_s; spans of the last traced sample: "
          f"{os.path.relpath(run['spans'])}")
    for suite in ALL_SUITES:
        print(f"  suites.{suite}.s = "
              f"{metrics[f'suites.{suite}.s']['value']:.4f} s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    try:
        for name in names:
            runs.append(run_workload(name, args.seed, args.seconds,
                                     bool(args.trace)))
    except ProgramMissing as exc:
        print(f"perfbench: cannot import rsoskit: {exc}", file=sys.stderr)
        return 2
    env = next((r["env"] for r in runs if r["env"]), {})
    print("env: " + json.dumps(dict(
        env, nproc=os.cpu_count(), usable_cpus=len(os.sched_getaffinity(0)))))

    metrics = {}
    for run in runs:
        for problem in run["problems"]:
            print(f"GATE {run['workload']}: {problem}")
        found = per_layer(run) if args.trace else end_to_end(run)
        prefix = "" if args.workload else f"{run['workload']}."
        metrics.update({prefix + k: v for k, v in found.items()})
    correct = all(not r["problems"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
