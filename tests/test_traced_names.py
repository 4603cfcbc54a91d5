"""Every function that a traced benchmark run wraps exists in rsoskit.

`perfbench/child.py` looks each name of its LAYER_FUNCTIONS up as
`vars(owner)[name]`, so a renamed or moved function makes traced runs fail
with a KeyError; this test finds such a name first.  The table is read from
the script's source, so the script itself is not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _layer_functions() -> dict:
    for node in ast.parse(CHILD.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD} assigns no LAYER_FUNCTIONS")


@pytest.mark.parametrize("module,qual", [
    (module, qual) for module, names in _layer_functions().items()
    for qual in names])
def test_traced_function_resolves(module, qual):
    owner = importlib.import_module(f"rsoskit.{module}")
    *outer, attr = qual.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"rsoskit.{module}.{qual}"
