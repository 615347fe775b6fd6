"""The benchmark's per-layer span names must name traced callables.

`perfbench/run.py` reports a span that never opened as 0 calls and 0 s,
so renaming or deleting a traced function would silently zero its
per-layer metric.  Both tables are read with `ast`: importing
`perfbench/run.py` sets thread environment variables.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_constant(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} not assigned in {path}")


SPAN_STATS = module_constant(BENCH / "run.py", "SPAN_STATS")
TRACED_MODULES = module_constant(BENCH / "spans.py", "TRACED_MODULES")
UNTRACED = module_constant(BENCH / "spans.py", "UNTRACED")


def traced_callables(modname: str) -> set[str]:
    """Public functions defined in the module and public methods of its
    public classes: what `perfbench/spans.py` wraps."""
    mod = importlib.import_module(modname)
    names = set()
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            names.add(attr)
        elif inspect.isclass(obj):
            names.update(
                m for m, fn in vars(obj).items()
                if not m.startswith("_") and inspect.isfunction(fn)
            )
    return names


def test_tables_are_not_empty():
    assert SPAN_STATS and TRACED_MODULES


@pytest.mark.parametrize("span", sorted({name for name, _ in SPAN_STATS}))
def test_span_names_a_traced_callable(span):
    owners = [
        (modname, span[len(prefix) + 1:])
        for modname, prefix in TRACED_MODULES.items()
        if span.startswith(prefix + ".") and "." not in span[len(prefix) + 1:]
    ]
    assert len(owners) == 1, f"{span}: no single traced module owns it"
    modname, attr = owners[0]
    assert span not in UNTRACED, f"{span} is listed as untraced"
    assert attr in traced_callables(modname), (
        f"{span}: {modname} has no public function or public method {attr!r}"
    )
