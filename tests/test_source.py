"""The package's source read as text: no module-level function, public
method or property, or UPPER-CASE module constant that nothing in src/
names."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spikelink"

# functions no code in src/ names, each kept for a reader outside it:
# benchmarks/run.py's binning check imports both to compare spikelink's
# event parsing with the benchmark's own (ROADMAP item 7 moves them out)
READ_OUTSIDE_SRC = {"events.load_events", "events.frames_to_inputs"}

CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """Qualified name -> name of each module-level function, each public
    method or property of a module-level class (its name without a
    leading underscore), and each UPPER-CASE module-level constant."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined[f"{module}.{node.name}"] = node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    defined[f"{module}.{node.name}.{item.name}"] = item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                    defined[f"{module}.{target.id}"] = target.id
    return defined


def _unnamed() -> set[str]:
    """The qualified names of _definitions across src/spikelink whose name
    no Name or Attribute node of src/ reads: a definition, an assignment
    to the name, imports and __all__ strings do not count."""
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_definitions(tree, path.stem))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {qualified for qualified, name in defined.items() if name not in named}


def test_every_function_is_named_in_src():
    # a function, method, property or constant nothing calls, passes,
    # reads or rebinds is dead code: delete it, or move it to the tests'
    # oracles if a test needs it; the exceptions must still be unnamed, so
    # the list cannot go stale
    assert _unnamed() == READ_OUTSIDE_SRC


def test_scan_covers_methods_properties_and_constants():
    # what the check above scans: public methods and properties of a
    # module-level class and UPPER-CASE constants as well as functions,
    # not a dunder method
    tree = ast.parse(
        "LIMIT = 3\nUNUSED: int = 4\n"
        "class Box:\n"
        "    def size(self):\n        return LIMIT\n"
        "    @property\n    def spare(self):\n        return 0\n"
        "    def __len__(self):\n        return 0\n"
        "def use(box):\n    return box.size()\n"
    )
    assert _definitions(tree, "m") == {
        "m.LIMIT": "LIMIT", "m.UNUSED": "UNUSED", "m.Box.size": "size",
        "m.Box.spare": "spare", "m.use": "use",
    }
