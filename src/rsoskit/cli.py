"""Command-line front end: verification suites and deterministic artifacts.

    rsoskit verify SUITE [--n N --r R --tau RE,IM --seed S ...]
    rsoskit compute WHAT [...]

Reports are JSON {suite, config, cases, max_residual, passed}; tables are
CSV with a header row.  All floats are written with 17 significant digits
and iteration orders are fixed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path

from . import convolution as cv
from . import elliptic as el
from . import fusion as fu
from . import rsos
from . import transfer as tr
from .errors import InvalidConfig, RsosError, UnknownTarget, check_budget
from .suites import SUITE_NAMES, RunConfig, run_suite


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_complex(text: str) -> complex:
    """A finite complex number written RE,IM or RE."""
    try:
        value = complex(*(float(p) for p in text.split(",")))
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"expected RE,IM, got {text!r}") from exc
    if not cmath.isfinite(value):
        raise InvalidConfig(f"expected finite RE,IM, got {text!r}")
    return value


def _config_from_args(args) -> RunConfig:
    base = None
    if args.base is not None:
        base = tuple(_parse_complex(p) for p in args.base.split(";"))
    return RunConfig(
        n=args.n, r=args.r, tau=_parse_complex(args.tau),
        gamma_override=_parse_complex(args.gamma) if args.gamma else None,
        base_b=base, seed=args.seed, tolerance=args.tolerance,
    )


def run_verify(suite: str, config: RunConfig) -> dict:
    """Run a named suite; returns the JSON-ready report dictionary."""
    cases = run_suite(suite, config)
    report = {
        "suite": suite,
        "config": config.to_json_dict(),
        "cases": [{"name": c.name, "residual": float(c.residual),
                   "passed": c.passed} for c in cases],
        "max_residual": max((float(c.residual) for c in cases), default=0.0),
        "passed": all(c.passed for c in cases),
    }
    return report


def _character_element(args, config: RunConfig):
    kind = config.kind()
    rep = args.rep
    if rep == "vector":
        return cv.character(rsos.build_vector_space(kind))
    if rep == "trivial":
        return fu.exterior_character(0, kind)
    if rep == "ext":
        return fu.exterior_character(args.k, kind)
    if rep == "sym2":
        return fu.sym_square_character(kind)
    if rep == "sym":
        if config.n != 2:
            raise InvalidConfig("symmetric power characters require n = 2")
        return fu.sym_power_character_n2(args.p, kind)
    raise UnknownTarget(f"unknown representation {rep!r}")


def _rows_character(args, config: RunConfig) -> tuple[list[str], list[list]]:
    element = _character_element(args, config)
    header = ["source", "shift", "coeff"]
    rows = []
    for arrow in element.support:
        rows.append([";".join(str(int(c)) for c in arrow.source.offset),
                     ";".join(str(s) for s in arrow.shift),
                     element.coeffs[arrow]])
    return header, rows


def _rows_boltzmann(args, config: RunConfig) -> tuple[list[str], list[list]]:
    """Each face weight read off one R-matrix table per run of the alcove."""
    params = config.params()
    kind = config.kind()
    z = _parse_complex(args.z)
    n = config.n
    header = ["a", "in1", "in2", "out1", "out2", "weight_re", "weight_im"]
    rows = []
    for _, run in el.table_runs(kind.alcove(), n ** 4):
        for flat, a in zip(el.r_table(z, run, params), run):
            height = ";".join(str(int(c)) for c in a.offset)
            two_steps = kind.paths(a, 2)
            for k, l in two_steps:
                for i, j in two_steps:
                    if rsos._same_weight(i, j, k, l):
                        w = flat[el.pair_index(n, i, j), el.pair_index(n, k, l)]
                        rows.append([height, k, l, i, j, _fmt(w.real),
                                     _fmt(w.imag)])
    return header, rows


# JSON output holds about 1.2 kB per row at its peak: 500,000 rows near 0.6 GB.
FUSION_ROW_BUDGET = 500_000


def _rows_fusion(args, config: RunConfig) -> tuple[list[str], list[list]]:
    """The (r-1)^3 rows p, q, s, N_pq^s; over FUSION_ROW_BUDGET raise TooLarge
    before any is built."""
    r = config.r
    check_budget("FUSION_ROW_BUDGET", (r - 1) ** 3, FUSION_ROW_BUDGET,
                 "fusion-table rows")
    header = ["p", "q", "s", "N"]
    rows = [[p, q, s, fu.fusion_coeff(p, q, s, r)]
            for p in range(r - 1) for q in range(r - 1) for s in range(r - 1)]
    return header, rows


def _rows_spectrum(args, config: RunConfig) -> tuple[list[str], list[list]]:
    n, r, k = config.n, config.r, args.k
    [report] = fu.verify_spectrum([k], n, r)
    header = ["lambda", "k", "eigenvalue_re", "eigenvalue_im", "residual"]
    rows = []
    for lam, ev, res in zip(config.kind().alcove(), report.eigenvalues,
                            report.residuals):
        rows.append([";".join(str(int(c)) for c in lam.offset), k,
                     _fmt(ev.real), _fmt(ev.imag), _fmt(res)])
    return header, rows


_TABLE_BUILDERS = {
    "character": _rows_character,
    "boltzmann-table": _rows_boltzmann,
    "fusion-table": _rows_fusion,
    "spectrum": _rows_spectrum,
}
COMPUTE_TARGETS = (*_TABLE_BUILDERS, "partition")


def run_compute(what: str, args, config: RunConfig) -> str:
    """Build the artifact; returns its text."""
    if what == "partition":
        z = _parse_complex(args.z)
        kind, params = config.kind(), config.params()
        value = tr.partition_via_transfer(args.rows, args.cols, z, kind, params)
        oracle = tr.partition_enumerate(args.rows, args.cols, z, kind, params)
        rel = abs(value - oracle) / max(1.0, abs(oracle))
        doc = {"value": {"re": value.real, "im": value.imag},
               "oracle_value": {"re": oracle.real, "im": oracle.imag},
               "rel_err": rel}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if what not in _TABLE_BUILDERS:
        raise UnknownTarget(
            f"unknown target {what!r}; choose from {COMPUTE_TARGETS}")
    header, rows = _TABLE_BUILDERS[what](args, config)
    if args.format == "json":
        doc = [dict(zip(header, row)) for row in rows]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [",".join(header)]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--n", type=int, default=2, help="rank")
    parser.add_argument("--r", type=int, default=5, help="restricted level")
    parser.add_argument("--tau", default="0,0.8", help="modular parameter RE,IM")
    parser.add_argument("--gamma", default=None,
                        help="override gamma as RE,IM (default 1/r)")
    parser.add_argument("--base", default=None,
                        help="generic base b as ';'-separated RE,IM (or RE) entries")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override every case tolerance")
    parser.add_argument("--output", "-o", default=None, help="output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsoskit",
        description="verify and compute with restricted height models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    _add_common(p_verify)

    p_compute = sub.add_parser("compute", help="emit a deterministic artifact")
    p_compute.add_argument("what", choices=COMPUTE_TARGETS)
    _add_common(p_compute)
    p_compute.add_argument("--format", choices=("json", "csv"), default="csv")
    p_compute.add_argument("--rep", default="vector",
                           choices=("vector", "trivial", "sym2", "ext", "sym"))
    p_compute.add_argument("--k", type=int, default=1,
                           help="exterior degree (spectrum, ext character)")
    p_compute.add_argument("--p", type=int, default=1,
                           help="symmetric power (n=2 characters)")
    p_compute.add_argument("--z", default="0.3,0", help="spectral parameter")
    p_compute.add_argument("--rows", type=int, default=2)
    p_compute.add_argument("--cols", type=int, default=2)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "verify":
            report = run_verify(args.suite, config)
            text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            status = 0 if report["passed"] else 1
        else:
            text, status = run_compute(args.what, args, config), 0
    except RsosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output is None:
        sys.stdout.write(text)
        return status
    try:
        Path(args.output).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
