"""AST helpers shared by the source audits (``test_options``,
``test_reachability``).

Both audits match a use to a definition by name alone: ``f(...)``,
``x.f(...)``, a bare ``f`` and ``x.f`` all name ``f``.  That is
conservative: a name collision can only make a definition look used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(*dirs):
    """(path, module AST) for every Python file under the given directories."""
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def name_of(node) -> str | None:
    """The name a use refers to: the id of a bare name, the last attribute
    of a dotted one, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def calls(*dirs) -> dict:
    """Call name -> [(positional count, keyword names, passes *args or
    **kwargs, called as an attribute)] over the files under ``dirs``."""
    out = {}
    for _, tree in parse(*dirs):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = name_of(node.func)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            out.setdefault(name, []).append((
                len(node.args), {k.arg for k in node.keywords},
                starred or any(k.arg is None for k in node.keywords),
                isinstance(node.func, ast.Attribute)))
    return out
