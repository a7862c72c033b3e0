"""No keyword option of the package goes unused.

A keyword parameter (one with a default) of a function defined in
``src/cartanlab`` is an option.  An option that no call in the package,
its tests or its benchmark ever passes has one value in use, so it should
be a constant.  Calls are matched to definitions by name only; that is
conservative: name collisions can hide an unused option, never invent one.
"""

import ast

from _audit import calls, parse

# "module: function(parameter)" -> why it stays an option with no caller
KEEP: dict[str, str] = {}


def _options():
    """(label, call name, parameter, its positional index or None, how many
    leading parameters a plain call and an attribute call bind implicitly)
    for every option."""
    for path, tree in parse("src/cartanlab"):
        methods = {id(f): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = methods.get(id(node))
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            init = node.name == "__init__"
            # a constructor call binds self; a method called on an instance too
            skip = (1, 1) if init else (0, 1) if cls and not static else (0, 0)
            name = cls.name if init else node.name
            label = f"{path.stem}: {cls.name + '.' if cls else ''}{node.name}"
            a = node.args
            pos = a.posonlyargs + a.args
            for i, p in enumerate(pos[len(pos) - len(a.defaults):], len(pos) - len(a.defaults)):
                yield label, name, p.arg, i, skip
            for p, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    yield label, name, p.arg, None, skip


def _unused() -> list[str]:
    found = calls("src/cartanlab", "tests", "perfbench")
    out = []
    for label, name, param, i, skip in _options():
        if param.startswith("_"):
            continue

        def passes(npos, keywords, star, attribute):
            return star or param in keywords or (i is not None and npos > i - skip[attribute])
        if not any(passes(*c) for c in found.get(name, ())):
            out.append(f"{label}({param})")
    return out


def test_every_option_is_passed_by_some_call():
    unused = _unused()
    assert len(KEEP) <= 5
    assert sorted(set(unused) - set(KEEP)) == [], \
        "options no call passes; make each a constant or add it to KEEP with a reason"
    assert sorted(set(KEEP) - set(unused)) == [], "KEEP entries that some call now passes"
