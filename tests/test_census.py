"""`src/rsoskit` is what a report reaches.

A child process sets `sys.setprofile` before it imports rsoskit and runs the
CLI on small configurations: `verify all` at (2,5), at (3,5) and at (3,5)
over a generic base point, and every `compute` target in CSV and JSON with
every `--rep` at (2,5).  A function of `src/rsoskit` that no run enters must
be on ALLOWED, with the reason it stays.  A second check fails on a name
that a module imports and never uses.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import rsoskit

SRC = Path(rsoskit.__file__).resolve().parent

# qualified name -> why it stays although no report enters it
_DUALITY = ("the duality check, to become the duality-zigzag report case "
            "with the per-case report schema (ROADMAP items 2 and 23)")
ALLOWED = {
    "elliptic.r_matrix":
        "traced by perfbench/child.py (LAYER_FUNCTIONS, pinned by "
        "test_traced_names); goes when the tracer wraps r_table (item 13)",
    "graded.unit_space": _DUALITY,
    "graded.dual_space": _DUALITY,
    "graded._pairing_vectors": _DUALITY,
    "graded.zigzag_residual": _DUALITY,
    "graded.GradedMorphism.max_diff":
        "the comparison of zigzag_residual and rll_residual",
    "transfer.rll_residual":
        "the RLL check, to become the rll-chain-2 report case (ROADMAP "
        "items 2 and 23)",
    "graded.GradedSpace.objects":
        "the unrestricted (SOS) branch of point_numbering",
    "groupoid._Pair._unordered": "Python protocol: refuses ordering",
    "groupoid._Pair.__reduce__": "Python protocol: copy and pickle",
    "groupoid.WeightPoint.__repr__": "Python protocol: repr",
    "groupoid.Arrow.__repr__": "Python protocol: repr",
    "convolution.ConvolutionElement.__repr__": "Python protocol: repr",
}

_RUNS = """
import contextlib, io, json, os, sys

entered = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(SRC):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.path.insert(0, os.path.dirname(SRC))
sys.setprofile(profile)
from rsoskit.cli import COMPUTE_TARGETS, main

argvs = [["verify", "all", "--n", n, "--r", "5", *base]
         for n, base in (("2", ()), ("3", ()),
                         ("3", ("--base", "0.29,0.03;0.11;0")))]
argvs += [["compute", what, "--n", "2", "--r", "5", "--format", fmt,
           "--rep", rep]
          for what in COMPUTE_TARGETS for fmt in ("csv", "json")
          for rep in ("vector", "trivial", "sym2", "ext", "sym")]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in argvs]
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def _functions(tree: ast.Module):
    """(qualified name, first line of its code object) of every function
    defined in `tree`, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name, min(
                    [child.lineno] + [d.lineno for d in child.decorator_list])
                yield from walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text())


def test_every_src_function_is_reached_or_allowed():
    proc = subprocess.run(
        [sys.executable, "-c", f"SRC = {str(SRC)!r}\n" + _RUNS],
        capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert set(out["codes"]) == {0}, out["codes"]
    entered = {tuple(x) for x in out["entered"]}
    unreached, allowed = [], []
    for path, tree in _modules():
        for qual, first in _functions(tree):
            name = f"{path.stem}.{qual}"
            if (str(path), first) in entered:
                continue
            if name in ALLOWED:
                allowed.append(name)
            else:
                unreached.append(f"{name} ({path.name}:{first})")
    assert not unreached, "no report enters " + ", ".join(unreached)
    # an entry whose function is gone or now reached is stale
    assert sorted(allowed) == sorted(ALLOWED)


def test_no_src_module_imports_an_unused_name():
    unused = []
    for path, tree in _modules():
        if path.name == "__init__.py":  # its imports are the exports
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                unused += [f"{path.name}: {bound}" for bound in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if bound not in used]
    assert not unused, "imported and never used: " + ", ".join(unused)
