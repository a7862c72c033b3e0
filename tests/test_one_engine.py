"""The checks differentiate with one engine.  Every derivative a CLI
scenario reads comes in closed form or from one lane call over its stack
(``dual.taylor_stack``), never from the per-scalar Duals of
``dual.taylor`` and ``dual.jacobian``; and a field's two float reads,
``first_jet(ms).v`` and ``values(ms)``, agree bit for bit."""

import pytest
import yaml

from cartanlab import cli, dual, models

SO3 = [[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
       [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
       [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]
# the rotation generators G_i v = e_i x v, a linear action of so(3) on R^3
ROTATIONS = [[[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
             [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
             [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]
INLINE = {
    "so3_linear": {"name": "so3_linear", "model": {"action_algebroid": {
        "algebra": {"structure_constants": SO3},
        "chart": {"lower": [-2.0] * 3, "upper": [2.0] * 3},
        "action": {"family": "linear", "generators": ROTATIONS}}},
        "checks": [{"op": "is_cartan"}, {"op": "is_flat"},
                   {"op": "geodesic_escape", "point": [0.5, 0.3, -0.2],
                    "fiber": [0.1, 0.2, -0.1]}]},
    "exponential_line": {"name": "exponential_line", "model": {"action_algebroid": {
        "algebra": {"structure_constants": [[[0.0]]]},
        "chart": {"lower": [-3.0], "upper": [3.0]},
        "action": {"family": "exponential_line"}}},
        "checks": [{"op": "is_cartan"}, {"op": "is_flat"},
                   {"op": "geodesic_escape", "point": [0.0], "fiber": [1.0],
                    "span": [0.0, -2.0], "expect_status": "escaped_chart"}]},
}


def _fields(model):
    """(label, field) for every field a model carries."""
    if isinstance(model, models.GluedModel):
        charts = [model.cover.chart, *model.glued.charts]
    elif isinstance(model, models.LocalLieGroupModel):
        charts = []
        yield "nabla", model.pair.nabla.christoffel
        yield "nabla_bar", model.pair.nabla_bar.christoffel
    else:
        charts = [model.chart]
        if isinstance(model, models.RiemannianModel):
            yield "metric", model.metric
    for k, C in enumerate(charts):
        for kind in ("anchor", "gamma", "torsion"):
            yield f"chart {k} {kind}", getattr(C, kind)


# inline TM+h models where the skew block [omega, E] of gamma is not zero
# (n >= 3), and the ellipsoid, whose curvature is not constant
METRICS = ("sphere(3)", "sphere(4)", "hyperbolic(3)", "ellipsoid")
MODELS = {**{name: lambda name=name: models.load_model(name) for name in models.CATALOG},
          **{name: lambda doc=doc: cli.resolve_model(doc["model"])[1]
             for name, doc in INLINE.items()},
          **{name: lambda name=name: cli.resolve_model({"metric": name})[1]
             for name in METRICS}}


@pytest.mark.parametrize("name", MODELS)
def test_first_jet_values_are_the_values_bit_for_bit(name):
    for label, field in _fields(MODELS[name]()):
        ms = field.chart.halton_points(9, shrink=0.1)
        got, want = field.first_jet(ms).v, field.values(ms)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), label


def _run(path, capsys):
    code = cli.main(["run", path, "--format", "json"])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_scenario_differentiates_with_per_scalar_duals(tmp_path, capsys, monkeypatch):
    paths = dict(cli.bundled_scenarios())
    for name, doc in INLINE.items():
        paths[name] = str(tmp_path / f"{name}.yaml")
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(doc))

    def refuse(*args, **kwargs):
        raise AssertionError("a check differentiated with per-scalar Duals")

    with monkeypatch.context() as patch:
        patch.setattr(dual, "taylor", refuse)
        patch.setattr(dual, "jacobian", refuse)
        refused = {name: _run(path, capsys) for name, path in paths.items()}
    for name, path in paths.items():
        assert refused[name][0] == 0, (name, refused[name][2])
        assert refused[name] == _run(path, capsys), name
