"""The public API of the package and the contract of its result records."""

import importlib
import inspect
import json
import math
import re
from pathlib import Path

import pytest

import casimir_plates
from casimir_plates import errors, modes, numerics, regsum, verify


def test_every_public_name_resolves_and_is_listed():
    listed = dir(casimir_plates)
    for name in casimir_plates.__all__:
        value = getattr(casimir_plates, name)
        assert name in listed
        if name != "__version__":
            layer = getattr(casimir_plates, casimir_plates._LAYER_OF[name])
            assert value is getattr(layer, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        getattr(casimir_plates, "bogus")
    assert not hasattr(casimir_plates, "verify_all")


def test_layers_are_attributes_of_the_package():
    from casimir_plates import CavityGeometry, modes as layer

    assert layer is modes
    assert CavityGeometry is modes.CavityGeometry
    for name in casimir_plates._LAYERS:
        assert getattr(casimir_plates, name).__name__ == f"casimir_plates.{name}"


def _library_snippets():
    """The ```python blocks of README's Library use section."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").partition(
        "\n## Library use\n")[2].partition("\n## ")[0]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def test_readme_library_snippets_run():
    snippets = _library_snippets()
    assert len(snippets) == 3
    spaces = []
    for code in snippets:
        spaces.append({})
        exec(compile(code, "README.md", "exec"), spaces[-1])
    first = spaces[0]
    assert first["fit"].finite_part == pytest.approx(math.pi**2 / 240,
                                                     rel=1e-4)
    sigma = first["sigma_zz_mode"](first["ModeIndex"](1, 1, 1), first["geom"])
    assert sigma == pytest.approx(-0.9069, abs=1e-4)


def _records():
    """One instance of each result record, built from keywords."""
    mode = modes.ModeIndex(n_x=1, n_y=2, n_z=3)
    geom = modes.CavityGeometry(a=0.7, L=2.0)
    return [
        numerics.QuadratureResult(value=1.5, error_estimate=1e-12,
                                  evaluations=7),
        mode,
        geom,
        modes.WaveVector(k_x=1.0, k_y=2.0, k_z=3.0, mode=mode, geom=geom),
        modes.ModeAmplitudes(a_x=0.5, a_y=-0.5, a_z=0.0),
        regsum.Regulator(lam=0.1),
        regsum.RegularizedForce(route="closed_form", lam=0.1, total=-1013.0,
                                error_estimate=1e-11,
                                divergent_coefficient=-0.1, finite_part=0.04),
        regsum.ExtractedForce(coefficients=(-0.1, 0.04, 0.0, 0.003),
                              residual_norm=1e-12, condition_estimate=50.0),
        verify.CheckResult(name="check", residual=0.0, bound=1e-9,
                           detail="ok"),
    ]


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    field = cls._fields[0]
    twin = cls(**record._asdict())
    assert twin == record
    assert hash(twin) == hash(record)
    assert repr(record).startswith(f"{cls.__name__}({field}=")
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1.0


@pytest.mark.parametrize("build, message", [
    (lambda: modes.ModeIndex(0, 1, 1), "n_x must be >= 1, got 0"),
    (lambda: modes.ModeIndex(n_x=1, n_y=1, n_z=-2), "n_z must be >= 1, got -2"),
    (lambda: modes.ModeIndex(1, 1.5, 1), "n_y must be an integer, got 1.5"),
    (lambda: modes.ModeIndex(1, 1, True), "n_z must be an integer, got True"),
    (lambda: modes.CavityGeometry(a=-1.0, L=1.0),
     "a must be positive and finite, got -1.0"),
    (lambda: modes.CavityGeometry(1.0, math.nan),
     "L must be positive and finite, got nan"),
    (lambda: regsum.Regulator(0.0), "lam must be positive and finite, got 0.0"),
    (lambda: regsum.Regulator(lam=math.inf),
     "lam must be positive and finite, got inf"),
])
def test_invalid_record_arguments_keep_their_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_precision_loss_error_has_one_home():
    with pytest.raises(errors.PrecisionLossError, match="closed form"):
        regsum.decompose(1.0, regsum.Regulator(1e-9))
    assert issubclass(errors.PrecisionLossError, ValueError)
    # errors is the one place to import them from: no layer lists them
    for layer in (modes, numerics, regsum):
        assert set(layer.__all__).isdisjoint(errors.__all__)
        assert not [name for name in layer.__all__
                    if isinstance(getattr(layer, name), type)
                    and issubclass(getattr(layer, name), Exception)]


#: The layers whose public functions the benchmark's traced replay wraps.
_TRACED_LAYERS = ("cli", "regsum", "numerics", "stress", "modes", "verify")


def test_benchmark_per_layer_metrics_name_public_functions():
    # bench/run.py --trace 1 stops on a per-layer metric
    # <layer>.<function>.<kind> whose function it did not wrap, so renaming
    # or hiding one of these functions breaks the benchmark
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    names = [metric["name"].split(".") for metric in
             json.loads(spec.read_text(encoding="utf-8"))["per_layer"]]
    traced = [name[:2] for name in names
              if len(name) == 3 and name[0] in _TRACED_LAYERS]
    assert traced
    for layer, function in traced:
        module = importlib.import_module(f"casimir_plates.{layer}")
        value = getattr(module, function, None)
        assert (inspect.isfunction(value) and not function.startswith("_")
                and value.__module__ == module.__name__), f"{layer}.{function}"
