"""Every public name has a caller outside the tests.

A name exported by `giftex/__init__`, or a public method of an exported
class, must be referenced somewhere under `src/` or `perfbench/` other than
where it is defined (the package's own re-export does not count), and other
than the benchmark tracer's patch list, since wrapping a name is not calling
it. References are matched by name, so a method that shares its name with
another attribute passes; the check catches names that nothing at all reads.
"""

import ast
import inspect
from pathlib import Path

import giftex

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "giftex" / "__init__.py"
TRACER = ROOT / "perfbench" / "tracer.py"

# Kept on purpose with no caller outside the tests:
# - exhaustive engine play is the fourth route of the trajectory-count
#   cross-check;
# - `round_action_count` is the paper's A(k), the per-round action count,
#   asserted against the paper's values by criteria 1 and 2.
ALLOWED = {"GameState.legal_actions", "round_action_count"}


def public_methods(cls) -> list[str]:
    return [name for name, member in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(member)
                 or isinstance(member, (property, classmethod, staticmethod)))]


def referenced_names() -> set[str]:
    """Every name read, imported or looked up as an attribute, in every
    module under src/ and perfbench/ except the package's __init__ and the
    tracer."""
    names: set[str] = set()
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in paths:
        if path in (INIT, TRACER):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def public_surface() -> list[str]:
    surface = []
    for name in giftex.__all__:
        surface.append(name)
        obj = getattr(giftex, name)
        if inspect.isclass(obj):
            surface.extend(f"{name}.{m}" for m in public_methods(obj))
    return surface


def test_every_public_name_has_a_caller_outside_the_tests():
    used = referenced_names()
    unused = [name for name in public_surface()
              if name.rsplit(".", 1)[-1] not in used and name not in ALLOWED]
    assert unused == []


def test_allowlist_is_current():
    used = referenced_names()
    surface = public_surface()
    for name in ALLOWED:
        assert name in surface
        assert name.rsplit(".", 1)[-1] not in used, f"{name} has a caller now"
