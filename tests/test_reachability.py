"""Every top-level definition in ``src/cartanlab``, and every method and
property of its classes, is reached from the CLI or the benchmark, or is
kept on purpose.

The roots are ``cli.main``, the check functions of ``cli.CHECKS`` (looked
up by name at import, so no call names them), every attribute that
``perfbench/spans.py`` reads of a cartanlab module or class, and every
attribute that the benchmark's own tests (``perfbench/tests``) read.  A
reached statement reaches every definition that a name or attribute in
it names (see ``_audit``).  A method or property is a statement of its
own, reached when its name is, so one that only tests call fails the
audit as a function does; a class brings along its class-level
statements and its special methods (``__init__``, ``__add__``, ...),
which Python calls by protocol rather than by name.  What only tests
call belongs in ``tests/oracles.py``; what nothing calls is deleted.
``test_perfbench_hooks_resolve`` guards the benchmark's tracer, which the
tier-1 suite never installs: a hook it cannot find breaks only the
traced benchmark run.
"""

import ast
import importlib

from _audit import ROOT, name_of, parse

from cartanlab import cli

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# definition name -> the paper content it holds and the ROADMAP item that
# wires it to an op
KEEP: dict[str, str] = {
    "infinitesimalize": "glues action-algebroid charts along an affine cocycle and checks "
                        "the overlaps (check_overlap_compatibility, intertwining_residuals); "
                        "'Glued models from YAML' builds the inline glued: block with it",
    "check_equivariant_twist": "Dphi xi' = (mu xi)', the hypothesis of the lemma that "
                               "equivariance_diagram checks at coset level; 'Glued models "
                               "from YAML' checks each declared deck twist with it",
    "isotropy_subalgebra": "the isotropy algebra h0, the kernel of the anchor; 'The main "
                           "theorem end to end' builds the homogeneous model from it",
    "completeness_probe": "the probe of a glued algebroid's completeness, seeds in any chart "
                          "and geodesics across chart switches, exported by the package; the "
                          "completeness op probes the model's one chart in the scenario's "
                          "shared geodesic run and reads its verdicts with the same "
                          "seed_verdicts; 'Completeness certified' extends it",
    "path_independence_check": "development is path-independent mod H0 on a flat Cartan "
                               "chart; 'The main theorem end to end' checks it in the "
                               "develop op",
}


def _special(node) -> bool:
    return node.name.startswith("__") and node.name.endswith("__")


def _used(nodes) -> set:
    return {name_of(n) for node in nodes for n in ast.walk(node)} - {None}


def _statements():
    """Statements of the package as (qualified name, node, names they bind,
    names they use): the top-level ones, qualified "module.name", and the
    methods and properties of classes, qualified "module.Class.name".  An
    assignment to an attribute of a name binds that name (``f.batch =
    ...`` belongs to ``f``); imports bind nothing.  A class statement uses
    what its decorators, bases and class-level statements use, and what its
    special methods use."""
    for path, tree in parse("src/cartanlab"):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, _DEFINITION) and not _special(m)]
                rest = [m for m in node.body if not any(m is x for x in methods)]
                yield (f"{path.stem}.{node.name}", node, {node.name},
                       _used(node.decorator_list + node.bases + node.keywords + rest))
                for m in methods:
                    yield f"{path.stem}.{node.name}.{m.name}", m, {m.name}, _used([m])
                continue
            if isinstance(node, _DEFINITION):
                bound = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {name_of(t.value if isinstance(t, ast.Attribute) else t)
                         for top in targets
                         for t in (top.elts if isinstance(top, ast.Tuple) else [top])} - {None}
            else:
                bound = set()
            yield f"{path.stem}.{getattr(node, 'name', '')}", node, bound, _used([node])


def _perfbench_reads():
    """(module, attribute, class attribute or None) for every attribute that
    ``perfbench/spans.py`` reads of a cartanlab module, through the module
    names its ``from cartanlab import`` binds and any local alias of one of
    their attributes (``ac = algebroid.AlgebroidChart``)."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "cartanlab"
               for a in node.names}
    aliases = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name) and node.value.value.id in modules):
            aliases[node.targets[0].id] = (node.value.value.id, node.value.attr)
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            reads.add((base.id, node.attr, None))
        elif isinstance(base, ast.Name) and base.id in aliases:
            reads.add((*aliases[base.id], node.attr))
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id in modules):
            reads.add((base.value.id, base.attr, node.attr))
    return reads


def _benchmark_test_reads() -> set:
    """Every attribute name that the benchmark's tests read; perfbench/
    changes only with the benchmark, so what it reads stays."""
    return {node.attr for _, tree in parse("perfbench/tests") for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _unreached(keep) -> list[str]:
    """Definitions, methods and properties that neither the roots nor
    ``keep`` reach, as "module.name" or "module.Class.name"."""
    statements = list(_statements())
    frontier = ({"main"} | {fn.__name__ for fn in cli.CHECKS.values()} | set(keep)
                | _benchmark_test_reads())
    for _, attr, member in _perfbench_reads():
        frontier |= {attr, member} - {None}
    reached = set()
    while frontier:
        reached |= frontier
        frontier = {name for _, _, bound, used in statements if bound & frontier
                    for name in used} - reached
    return sorted(qual for qual, node, bound, _ in statements
                  if isinstance(node, _DEFINITION) and not bound & reached)


def test_every_definition_is_reached_or_kept():
    assert len(KEEP) <= 5
    needed = {d.rsplit(".", 1)[1] for d in _unreached(())}
    assert sorted(set(KEEP) - needed) == [], \
        "KEEP entries that name no definition or that the CLI or benchmark reach"
    assert _unreached(KEEP) == [], \
        "definitions neither the CLI nor the benchmark reaches; move each to " \
        "tests/oracles.py, delete it, or add it to KEEP with a reason"


def _resolves(mod, attr, member) -> bool:
    """Whether cartanlab.mod has attr, and attr has member: a class in its
    own ``__dict__``, which is where the tracer rebinds a method."""
    module = importlib.import_module(f"cartanlab.{mod}")
    if not hasattr(module, attr) or member is None:
        return hasattr(module, attr)
    owner = getattr(module, attr)
    return member in vars(owner) if isinstance(owner, type) else hasattr(owner, member)


def test_perfbench_hooks_resolve():
    reads = sorted(_perfbench_reads(), key=str)
    assert reads, "found no cartanlab attribute that perfbench/spans.py reads"
    missing = [".".join(filter(None, r)) for r in reads if not _resolves(*r)]
    assert missing == [], "attributes the benchmark's tracer reads that cartanlab lacks"
