"""No public function or method of ``qpair`` exists only for the tests.

The package's modules are scanned with ``ast``: every public module-level
function and every public method must be referenced (by name or as an
attribute) somewhere in ``src/qpair`` outside ``__init__.py``, whose
re-exports do not count as a use.  A helper that only a test needs belongs
in that test.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qpair"

# ``perfbench/tracer.py`` wraps these by name to time the series layer; they
# leave with the next change to the benchmark.
TRACER_PINNED = {"invert", "geometric", "pochhammer_inf", "q_binomial"}


def _public_functions(tree):
    """(name, line) of each public module-level function and public method."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for member in members:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                yield member.name, member.lineno


def _referenced_names(tree):
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_every_public_function_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(_referenced_names(tree) for name, tree in trees.items()
                               if name != "__init__.py"))
    public = [(module, line, name) for module, tree in trees.items()
              for name, line in _public_functions(tree)]
    unused = [f"{module}:{line} {name}" for module, line, name in public
              if name not in referenced and name not in TRACER_PINNED]
    assert unused == []
    assert TRACER_PINNED <= {name for _module, _line, name in public}
