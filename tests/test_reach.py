"""Every public top-level name of ``src/dendro`` is reached by a claim.

The claims are the CLI scenarios, the scripts, the acceptance criteria and
the benchmark jobs.  The scan is by identifier: it collects the names and
attributes used in those roots and in the module-level statements of
``src/dendro`` (imports excluded), then follows the bodies of the top-level
defs and classes of ``src/dendro`` that it reaches, to a fixpoint.  A public
def or class left over is reached only by its own unit tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dendro"
CLAIMS = [
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "test_cli.py",
]

# The skew map is the reference that test_pair_limsup_identity and
# test_fiber_pair_scrambling_evidence check the limsup and fiber formulas
# against, so it stays although no claim iterates it.
ALLOWED = {"FiberPoint", "step"}

_IMPORTS = (ast.Import, ast.ImportFrom)
_DEFS = (ast.FunctionDef, ast.ClassDef)


def _identifiers(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreached_names() -> list[str]:
    reached = set()
    for path in CLAIMS:
        reached |= _identifiers([_parse(path)])
    defs: dict[str, list] = {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in _parse(path).body:
            if isinstance(stmt, _DEFS):
                defs.setdefault(stmt.name, []).append(stmt)
            elif not isinstance(stmt, _IMPORTS):
                reached |= _identifiers([stmt])
    done = set()
    todo = reached & defs.keys()
    while todo:
        name = todo.pop()
        done.add(name)
        reached |= _identifiers(defs[name])
        todo |= (reached & defs.keys()) - done
    return sorted(n for n in defs if not n.startswith("_") and n not in reached)


def test_every_public_name_is_reached_by_a_claim():
    unreached = unreached_names()
    assert unreached == sorted(ALLOWED), f"unreached public names: {unreached}"
