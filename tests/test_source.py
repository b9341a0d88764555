"""The package's source read as text: no module-level function that
nothing in src/ names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spikelink"

# functions no code in src/ names, each kept for a reader outside it:
# benchmarks/run.py's binning check imports both to compare spikelink's
# event parsing with the benchmark's own (ROADMAP item 7 moves them out)
READ_OUTSIDE_SRC = {"events.load_events", "events.frames_to_inputs"}


def _unnamed_functions() -> set[str]:
    """module.function for each module-level function of src/spikelink
    whose name no Name or Attribute node of src/ reads: its definition,
    imports and __all__ strings do not count."""
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {qualified for qualified, name in defined.items() if name not in named}


def test_every_function_is_named_in_src():
    # a function nothing calls, passes or rebinds is dead code: delete it,
    # or move it to the tests' oracles if a test needs it; the exceptions
    # must still be unnamed, so the list cannot go stale
    assert _unnamed_functions() == READ_OUTSIDE_SRC
