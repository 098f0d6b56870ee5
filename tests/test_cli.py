import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir_plates import cli, regsum
from casimir_plates.cli import HBAR_C_SI, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "# schema_version=1"
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class TestForce:
    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, "force", "--a", "1", "--lambda", "1")
        assert code == 0
        assert "force_per_area = -0.0808486" in out
        assert "attract" in out

    def test_json_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "force", "--a", "1", "--lambda", "0.1",
                               "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        row = doc["row"]
        assert row["force_per_area"] == regsum.force_closed_form(
            1.0, regsum.Regulator(0.1))
        _, finite_part = regsum.asymptotic_parts(1.0)
        assert row["finite_part"] == finite_part
        assert row["remainder"] == pytest.approx(
            row["force_per_area"] - row["divergent_part"] - row["finite_part"])

    def test_si_units(self, capsys):
        code, out, _ = run_cli(capsys, "force", "--a", "1e-6", "--lambda",
                               "3e-8", "--units", "si", "--json")
        assert code == 0
        row = json.loads(out)["row"]
        assert row["finite_part"] == pytest.approx(
            regsum.casimir_closed_form(1e-6) * HBAR_C_SI, rel=1e-14)

    def test_numeric_route(self, capsys):
        code, out, _ = run_cli(capsys, "force", "--a", "1", "--lambda", "0.2",
                               "--route", "numeric_sum", "--json")
        assert code == 0
        row = json.loads(out)["row"]
        closed = regsum.force_closed_form(1.0, regsum.Regulator(0.2))
        assert row["force_per_area"] == pytest.approx(closed, rel=1e-8)

    def test_precision_loss_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "force", "--a", "1", "--lambda", "1e-10")
        assert code == 2
        assert "numerical failure" in err

    def test_bad_route_usage_error(self):
        code, out, err = _run_quietly(["force", "--a", "1", "--lambda", "1",
                                       "--route", "magic"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1


class TestSweep:
    def test_csv_schema_and_cardinality(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--a", "0.5,1",
                                 "--lambda", "0.1,0.2,0.5",
                                 "--routes", "closed_form,series")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[1] == ("a,lambda,route,force_per_area,divergent_part,"
                            "finite_part,remainder,error_estimate")
        rows = parse_csv(out)
        assert len(rows) == 2 * 3 * 2
        # deterministic nested order: a, then lambda, then route
        assert [r["route"] for r in rows[:2]] == ["closed_form", "series"]
        assert [float(r["a"]) for r in rows] == [0.5] * 6 + [1.0] * 6

    def test_values_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--a", "1", "--lambda", "0.1",
                            "--routes", "closed_form")
        row = parse_csv(out)[0]
        assert float(row["force_per_area"]) == regsum.force_closed_form(
            1.0, regsum.Regulator(0.1))

    def test_byte_determinism(self, capsys):
        args = ("sweep", "--a", "0.5,1", "--lambda", "0.05,0.1",
                "--routes", "closed_form,numeric_sum,series")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--a", "1", "--lambda",
                               "0.1,0.2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 2
        assert set(doc["rows"][0]) == {"a", "lambda", "route",
                                       "force_per_area", "divergent_part",
                                       "finite_part", "remainder",
                                       "error_estimate"}

    def test_failed_cell_keeps_row_and_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--a", "1",
                                 "--lambda", "1e-10,0.1",
                                 "--routes", "closed_form")
        assert code == 2
        assert "significant digits" in err
        rows = parse_csv(out)
        assert len(rows) == 2
        assert rows[0]["force_per_area"] == ""
        assert rows[1]["force_per_area"] != ""


class TestExtract:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "extract", "--a", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["finite_part_rel_error"] < 1e-7
        assert doc["casimir_closed_form"] == pytest.approx(
            math.pi**2 / 240.0, rel=1e-15)
        assert doc["exponents"] == [-4.0, 0.0, 2.0, 4.0]

    def test_default_grid_top_point_stays_in_window(self, capsys):
        # 0.5 a / pi rounds to lambda pi / a = 0.5000000000000001 here
        a = 0.8296057123842422
        code, out, _ = run_cli(capsys, "extract", "--a", repr(a), "--json")
        assert code == 0
        doc = json.loads(out)
        assert 0.5 - 1e-15 <= doc["lambda_grid"][-1] * math.pi / a <= 0.5
        assert doc["finite_part_rel_error"] < 1e-7

    def test_clustered_grid_exits_1(self, capsys):
        grid = ",".join(str((0.3 + i * 1e-6) / math.pi) for i in range(5))
        code, _, err = run_cli(capsys, "extract", "--a", "1",
                               "--lambda-grid", grid)
        assert code == 1
        assert "fit failed" in err

    def test_out_of_window_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "extract", "--a", "1",
                               "--lambda-grid", "0.01,0.05,0.1,0.3")
        assert code == 2
        assert "window" in err


class TestInvalidSeparation:
    @pytest.mark.parametrize("a", ["nan", "0", "-1", "inf"])
    @pytest.mark.parametrize("argv", [("force", "--lambda", "0.1", "--a={}"),
                                      ("sweep", "--a=1,{}"),
                                      ("extract", "--a={}")])
    def test_rejected_with_exit_2(self, capsys, argv, a):
        code, out, err = run_cli(capsys, *(arg.format(a) for arg in argv))
        assert code == 2
        assert "Traceback" not in err
        assert "nan" not in out.lower()
        assert err.splitlines() == [
            f"casimir: a must be positive and finite, got {float(a)!r}"]


class TestModes:
    def test_table_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, "modes", "--n-max", "2", "--a", "0.7",
                               "--L", "2")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 8
        from casimir_plates.modes import CavityGeometry, ModeIndex, wave_vector
        from casimir_plates.stress import sigma_zz_mode
        mode, geom = ModeIndex(2, 1, 2), CavityGeometry(a=0.7, L=2.0)
        got = next(r for r in rows if r["n_x"] == "2" and r["n_y"] == "1"
                   and r["n_z"] == "2")
        assert float(got["sigma_zz"]) == sigma_zz_mode(mode, geom)
        assert float(got["kappa"]) == wave_vector(mode, geom).kappa


class TestVerifyCommand:
    def test_fault_injection_fails_oracle_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--inject-fault")
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failing) == 1
        assert "sigma_oracle_agreement" in failing[0]

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {"name", "residual", "bound", "passed", "detail"} == set(
            doc["checks"][0])


#: verify, which runs in process, and the numeric_sum sweeps, whose cells
#: are spread over the CPUs: one with an error row (lambda pi / a below the
#: 4000-term budget at a = 0.5 and 1), and two that reject several of their
#: inputs, where the first rejection in emission order names tol, not a,
#: and the unknown route of a cell that runs in the caller, not the a of
#: the numeric cells that ran before it.
PARALLEL_ARGV = [
    ["verify", "--json"],
    ["verify", "--inject-fault"],
    ["sweep", "--a", "0.5,1", "--lambda", "0.001,0.05,0.2",
     "--routes", "numeric_sum,closed_form"],
    ["sweep", "--a", "1,-1", "--lambda", "0.1,0.2", "--routes",
     "numeric_sum", "--tol", "nan"],
    ["sweep", "--a", "-1", "--lambda", "0.1,0.2", "--routes",
     "bogus,numeric_sum"],
]

#: The one line of each PARALLEL_ARGV that rejects an input, by its last
#: token.
FIRST_REJECTION = {
    "nan": "casimir: tol must be positive and finite, got nan\n",
    "bogus,numeric_sum": "casimir: unknown route 'bogus'; expected one of "
                         "('closed_form', 'numeric_sum', 'series')\n",
}


@pytest.mark.parametrize("argv", PARALLEL_ARGV, ids=" ".join)
def test_output_does_not_depend_on_cpu_count(argv, monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    outputs = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        outputs.append(_run_quietly(argv))
        assert len(forks) == (0 if argv[0] == "verify" else len(cpus) - 1)
        forks.clear()
    assert outputs[0] == outputs[1]
    if argv[-1] in FIRST_REJECTION:
        assert outputs[0] == (2, "", FIRST_REJECTION[argv[-1]])


def test_sweep_forks_the_cells_its_route_record_asks_for(monkeypatch):
    # a route is one table entry plus its kernel: an entry with a fork key
    # has its cells forked in the key's order, with no change to the CLI
    from casimir_plates import numerics
    entry = regsum._ROUTE_TABLE[regsum.ROUTES.index("closed_form")]
    monkeypatch.setattr(regsum, "_ROUTE_TABLE", regsum._ROUTE_TABLE + (
        entry._replace(name="forked", fork_key=lambda a, lam: -a * lam),))
    forked = []

    def serial_map(fn, items):
        forked.append(list(items))
        return [fn(x) for x in forked[-1]]

    monkeypatch.setattr(numerics, "parallel_map", serial_map)
    code, out, err = _run_quietly(["sweep", "--a", "0.5,1", "--lambda",
                                   "0.1,0.2", "--routes",
                                   "closed_form,forked"])
    assert (code, err) == (0, "")
    # the forked cells 1, 3, 5 and 7 have keys -0.05, -0.1, -0.1 and
    # -0.2; the tie keeps emission order
    assert forked == [[7, 3, 5, 1]]
    rows = parse_csv(out)
    assert [r["route"] for r in rows] == ["closed_form", "forked"] * 4
    for closed, twin in zip(rows[::2], rows[1::2]):
        assert {**closed, "route": "forked"} == twin


#: One call of each command that writes a JSON document.
JSON_ARGV = [
    ["verify", "--json"],
    ["force", "--a", "1", "--lambda", "0.1", "--json"],
    ["sweep", "--a", "1", "--lambda", "0.1", "--format", "json"],
    ["extract", "--a", "1", "--json"],
    ["modes", "--n-max", "1", "--format", "json"],
]


@pytest.mark.parametrize("units", ["natural", "si"])
@pytest.mark.parametrize("argv", JSON_ARGV, ids=" ".join)
def test_json_document_carries_the_envelope(capsys, argv, units):
    code, out, _ = run_cli(capsys, *argv, "--units", units)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == argv[0]
    assert doc["units"] == units


#: One call of each command whose output carries a pressure, on every
#: force route.
SI_ARGV = [
    *(["force", "--a", "1e-6", "--lambda", "3e-8", "--route", route, "--json"]
      for route in regsum.ROUTES),
    ["sweep", "--a", "1e-6,2e-6", "--lambda", "3e-8,5e-8", "--routes",
     "closed_form,numeric_sum,series", "--format", "json"],
    ["extract", "--a", "1e-6", "--json"],
    ["modes", "--a", "1e-6", "--L", "2e-6", "--n-max", "2", "--format",
     "json"],
]

#: The fields that scale with hbar c; kappa, a, L and lambda do not.
PRESSURES = {"force_per_area", "divergent_part", "finite_part", "remainder",
             "error_estimate", "divergent_coefficient", "casimir_closed_form",
             "coefficients", "residual_norm", "sigma_zz"}


def _times_hbar_c(node, key=None):
    """node with every number under a PRESSURES key times HBAR_C_SI."""
    if isinstance(node, dict):
        return {k: _times_hbar_c(v, k) for k, v in node.items()}
    if isinstance(node, list):
        return [_times_hbar_c(v, key) for v in node]
    return node * HBAR_C_SI if key in PRESSURES else node


def _documents(capsys, argv):
    """The natural and the SI JSON document of argv, without units."""
    documents = []
    for units in ("natural", "si"):
        code, out, err = run_cli(capsys, *argv, "--units", units)
        assert (code, err) == (0, "")
        documents.append(json.loads(out))
        assert documents[-1].pop("units") == units
    return documents


@pytest.mark.parametrize("argv", SI_ARGV, ids=" ".join)
def test_si_output_is_natural_output_times_hbar_c(capsys, argv):
    natural, si = _documents(capsys, argv)
    assert si == _times_hbar_c(natural)
    assert si != natural


@pytest.mark.parametrize("profile", ["default", "strict"])
def test_verify_in_si_runs_the_natural_checks(capsys, profile):
    natural, si = _documents(capsys, ["verify", "--json", "--profile",
                                      profile])
    assert si == natural


def test_script_exit_reports_a_failed_flush():
    # stdout is a buffered pipe whose reader is gone, so the output first
    # reaches it in the flush at exit, which fails
    reader, writer = os.pipe()
    os.close(reader)
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "casimir_plates.cli", "force", "--a", "1",
             "--lambda", "0.1"], stdout=writer, stderr=subprocess.PIPE,
            env=env, text=True, timeout=60)
    finally:
        os.close(writer)
    assert done.returncode == 2
    assert done.stderr == "casimir: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_script_asks_openblas_for_one_thread(monkeypatch, preset, threads):
    seen = []
    # set first, so that the variable run() sets is undone afterwards
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    monkeypatch.setattr(
        cli, "main", lambda: seen.append(os.environ["OPENBLAS_NUM_THREADS"]))
    monkeypatch.setattr(os, "_exit", seen.append)
    cli.run()
    assert seen == [threads, None]


class TestConfigPrecedence:
    def test_config_file_sets_sweep_grid(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "casimir.cfg"
        cfg.write_text("sweep_a = 2.0\nsweep_lambda = 0.1\n"
                       "sweep_routes = closed_form\n# comment\n")
        monkeypatch.delenv("CASIMIR_SWEEP_A", raising=False)
        _, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        rows = parse_csv(out)
        assert [float(r["a"]) for r in rows] == [2.0]

    def test_env_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "casimir.cfg"
        cfg.write_text("sweep_a = 2.0\nsweep_lambda = 0.1\n"
                       "sweep_routes = closed_form\n")
        monkeypatch.setenv("CASIMIR_SWEEP_A", "3.0")
        _, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        rows = parse_csv(out)
        assert [float(r["a"]) for r in rows] == [3.0]

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_SWEEP_A", "3.0")
        monkeypatch.setenv("CASIMIR_SWEEP_LAMBDA", "0.1")
        monkeypatch.setenv("CASIMIR_SWEEP_ROUTES", "closed_form")
        _, out, _ = run_cli(capsys, "sweep", "--a", "4.0")
        rows = parse_csv(out)
        assert [float(r["a"]) for r in rows] == [4.0]

    def test_config_env_var_names_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "alt.cfg"
        cfg.write_text("sweep_a = 1.5\nsweep_lambda = 0.2\n"
                       "sweep_routes = closed_form\n")
        monkeypatch.setenv("CASIMIR_CONFIG", str(cfg))
        _, out, _ = run_cli(capsys, "sweep")
        rows = parse_csv(out)
        assert [float(r["a"]) for r in rows] == [1.5]

    def test_units_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CASIMIR_UNITS", "si")
        _, out, _ = run_cli(capsys, "force", "--a", "1e-6", "--lambda",
                            "3e-8", "--json")
        row = json.loads(out)["row"]
        assert row["finite_part"] == pytest.approx(
            regsum.casimir_closed_form(1e-6) * HBAR_C_SI, rel=1e-14)

    @pytest.mark.parametrize("name", ["si", "SI"])
    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_units_ignore_case_from_every_source(self, capsys, tmp_path,
                                                 monkeypatch, source, name):
        argv = ["force", "--a", "1e-6", "--lambda", "3e-8", "--json"]
        monkeypatch.delenv("CASIMIR_UNITS", raising=False)
        monkeypatch.delenv("CASIMIR_CONFIG", raising=False)
        reference = run_cli(capsys, *argv, "--units", "si")
        assert reference[0] == 0
        if source == "flag":
            argv += ["--units", name]
        elif source == "env":
            monkeypatch.setenv("CASIMIR_UNITS", name)
        else:
            cfg = tmp_path / "units.cfg"
            cfg.write_text(f"units = {name}\n")
            argv += ["--config", str(cfg)]
        assert run_cli(capsys, *argv) == reference

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sweep_a\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        # a misspelt key was once ignored, so the output silently used the
        # default units
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("# units\nunit = si\n")
        code, out, err = run_cli(capsys, "force", "--a", "1", "--lambda",
                                 "0.1", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == (f"casimir: {cfg}:2: unknown key 'unit'; expected one "
                       "of units, tol, sweep_a, sweep_lambda, sweep_routes\n")


def _src_env(**extra):
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_leaves_scipy_out():
    # numpy too: the package and the CLI import only what their top levels
    # need, and array code imports numpy where it runs; no layer but errors
    # either, since each command imports its own layers, and
    # no dataclasses or fractions, which no layer uses, and no json,
    # which only JSON output uses
    probe = ("import sys\n"
             "left_out = {'numpy', 'scipy', 'dataclasses', 'fractions',\n"
             "            'json'}\n"
             "left_out |= {'casimir_plates.' + m for m in\n"
             "             ('modes', 'stress', 'regsum', 'verify',\n"
             "              'numerics', 'units')}\n"
             "for name in ('casimir_plates', 'casimir_plates.cli'):\n"
             "    __import__(name)\n"
             "    print(name, sorted(left_out & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["casimir_plates []",
                                        "casimir_plates.cli []"]


#: Runs cli.main on argv[2:] and prints on stderr which of the modules
#: named by the JSON list argv[1] sys.modules holds afterwards.
_MODULES_PROBE = """\
import json, sys
from casimir_plates.cli import main
code = main(sys.argv[2:])
print(sorted(set(json.loads(sys.argv[1])) & set(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

_FORCE_ONLY = ["casimir_plates.modes", "casimir_plates.stress",
               "casimir_plates.verify", "dataclasses"]
#: The closed-form and series paths also run no numerical kernel and no
#: exact-fraction arithmetic.
_KERNEL_FREE = _FORCE_ONLY + ["casimir_plates.numerics", "fractions",
                              "decimal"]

#: Each command with the modules it must not load: the force commands
#: need neither the fields nor the stress, the mode table no mode sums,
#: and no command the dataclasses machinery or exact fractions.
COMMAND_LAYERS = [
    (["force", "--a", "1", "--lambda", "0.1"], _KERNEL_FREE),
    (["force", "--a", "1", "--lambda", "0.1", "--route", "series"],
     _KERNEL_FREE),
    (["sweep", "--a", "0.5,1", "--lambda", "0.05,0.1"], _KERNEL_FREE),
    (["extract", "--a", "1"], _FORCE_ONLY + ["numpy", "fractions"]),
    (["modes", "--n-max", "2"], ["casimir_plates.regsum", "fractions",
                                 "casimir_plates.verify", "dataclasses",
                                 "casimir_plates.numerics"]),
    (["verify"], ["dataclasses", "fractions", "decimal"]),
]


@pytest.mark.parametrize("argv, left_out", COMMAND_LAYERS,
                         ids=[" ".join(case[0]) for case in COMMAND_LAYERS])
def test_command_loads_only_its_layers(argv, left_out):
    done = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, json.dumps(left_out), *argv],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert done.stderr == "[]\n"


@pytest.mark.parametrize("command, label", [("force", "one of"),
                                            ("sweep", "subset of")])
def test_route_help_lists_exactly_the_routes(command, label):
    code, out, _ = _run_quietly([command, "--help"])
    assert code == 0
    listed = re.search(label + r"\s+([\w,]+)", out).group(1)
    assert tuple(listed.split(",")) == regsum.ROUTES


#: Commands that use only math: closed-form and series forces, the
#: closed-form sweep, the mode table and the finite-part fit.
NUMPY_FREE_ARGV = [
    ["force", "--a", "1", "--lambda", "0.1", "--route", "closed_form",
     "--json"],
    ["force", "--a", "1", "--lambda", "0.1", "--route", "series", "--json"],
    ["modes", "--n-max", "3", "--format", "json"],
    ["sweep", "--a", "0.5,1,2", "--lambda", "0.005,0.02,0.1,0.3",
     "--routes", "closed_form", "--format", "json"],
    ["extract", "--a", "1", "--json"],
    ["extract", "--a", "1", "--lambda-grid",
     "0.004,0.01,0.02,0.05,0.1,0.15", "--json"],
]

#: Runs cli.main on argv[2:] and reports what sys.modules holds under
#: "numpy" on stderr; with argv[1] == "blocked", importing numpy raises.
#: It reports two CPUs, and a fork fails the command.
_NUMPY_PROBE = """\
import os, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
def no_fork():
    raise AssertionError("a math command forked")
os.fork = no_fork
os.sched_getaffinity = lambda pid: {0, 1}
from casimir_plates.cli import main
code = main(sys.argv[2:])
print(sys.modules.get("numpy"), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("numpy_import", ["installed", "blocked"])
@pytest.mark.parametrize("argv", NUMPY_FREE_ARGV, ids=" ".join)
def test_math_commands_run_without_numpy(argv, numpy_import):
    import numpy  # noqa: F401  (the in-process reference runs with it)

    code, out, err = _run_quietly(argv)
    assert (code, err) == (0, "")
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, numpy_import, *argv],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == out
    assert done.stderr == "None\n"


#: Inputs whose results leave the double range or whose tol is not a
#: positive finite number.  All but the last once died with a traceback or
#: printed a non-finite number with exit 0; tol nan ran the quadrature to
#: its level cap before failing.
OUT_OF_RANGE_ARGV = [
    ["force", "--a", "1", "--lambda", "1e80"],
    ["sweep", "--a", "1", "--lambda", "0.1,1e80"],
    ["force", "--a", "1e-300", "--lambda", "1"],
    ["force", "--a", "1e-90", "--lambda", "1"],
    ["force", "--a", "1e-90", "--lambda", "1e-80", "--route", "series"],
    ["modes", "--a", "1e-200"],
    ["force", "--a", "1e-80", "--lambda", "1", "--json"],
    ["modes", "--a", "1e-100", "--L", "1e-100"],
    ["force", "--a", "1", "--lambda", "0.1", "--route", "numeric_sum",
     "--tol", "inf", "--json"],
    ["force", "--a", "1", "--lambda", "0.1", "--route", "numeric_sum",
     "--tol", "nan"],
]

_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _run_quietly(argv):
    """main(argv) with its output captured; argparse exits become codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", OUT_OF_RANGE_ARGV, ids=" ".join)
def test_out_of_range_exits_2_with_one_line(argv):
    code, out, err = _run_quietly(argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert not _NON_FINITE.search(out)


#: Inputs that once printed numpy RuntimeWarnings, ran the numeric sum to
#: n_max on NaN terms or its quadrature through all levels on NaN rows, named a tol the user never gave, reported a range
#: failure of extract as a rejected fit (exit 1), or named neither the mode
#: nor the geometry of a modes overflow, each before or in its one-line
#: error.  A subprocess sees the warnings, which pytest captures
#: in process.
ONE_LINE_FAILURES = [
    (["force", "--a", "5e-324", "--lambda", "4.56e16", "--route",
      "numeric_sum"], 2, "leaves the double range"),
    (["force", "--a", "1", "--lambda", "1e300", "--route", "numeric_sum"],
     2, "leaves the double range"),
    (["extract", "--a", "2.3e-115"], 2,
     "extract at a = 2.3e-115: the lambda**-4 column of the fit leaves the "
     "double range"),
    (["extract", "--a", "1e100"], 2,
     "extract at a = 1e+100: the lambda**-4 column of the fit leaves the "
     "double range"),
    (["modes", "--a", "1e-200"], 2,
     "mode (1, 1, 1) at a = 1e-200, L = 1.0: kappa or sigma_zz leaves the "
     "double range"),
    (["modes", "--a", "1e-100", "--L", "1e-100"], 2,
     "mode (1, 1, 1) at a = 1e-100, L = 1e-100: kappa or sigma_zz leaves "
     "the double range"),
    # sigma_zz underflows to -0.0, which is not strictly negative
    (["modes", "--a", "1e300"], 2,
     "mode (1, 1, 1) at a = 1e+300, L = 1.0: kappa or sigma_zz leaves the "
     "double range"),
    (["modes", "--a", "1e160", "--units", "si"], 2,
     "mode (1, 1, 1) at a = 1e+160, L = 1.0: kappa or sigma_zz leaves the "
     "double range"),
    (["force", "--a", "1", "--lambda", "0.1", "--route", "numeric_sum",
      "--tol=5e-324"], 2, "tol = 5e-324 is below 1e-14"),
    # at lambda pi / a = 6.3 the series' own estimate exceeds |F|, whose
    # sign it once printed wrong with exit 0
    (["force", "--a", "1", "--lambda", "2", "--route", "series"], 2,
     "series route at a = 1.0, lambda = 2.0: the error estimate 0.456 is "
     "not below |force| = 0.173, so no digit of it is significant"),
    (["force", "--a", "1", "--lambda", "0.1", "--route", "numeric_sum",
      "--tol=1e-20"], 2, "tol = 1e-20 is below 1e-14"),
    # below 40 eps, where each radial integral's share tol/10 would sit
    # under the quadrature's own rounding allowance
    (["force", "--a", "1", "--lambda", "0.1", "--route", "numeric_sum",
      "--tol", "5e-15", "--json"], 2, "tol = 5e-15 is below 1e-14"),
    (["force", "--a", "1", "--lambda", "1e-200", "--route", "numeric_sum"],
     2, "lambda*pi/a = 3.142e-200 is below the 4000-term budget"),
    (["force", "--a", "1", "--lambda", "1e-30", "--route", "numeric_sum"],
     2, "lambda*pi/a = 3.142e-30 is below the 4000-term budget"),
    (["modes", "--n-max", "0"], 2, "n_max must be at least 1, got 0"),
    (["modes", "--n-max", "-2"], 2, "n_max must be at least 1, got -2"),
    (["sweep", "--a", "1", "--lambda", "0.1", "--routes", ","], 2,
     "empty list ','"),
    # leading NAME=value tokens set the environment, as in a shell
    (["CASIMIR_SWEEP_ROUTES=", "sweep", "--a", "1", "--lambda", "0.1"], 2,
     "empty list ''"),
    # a setting that fails to parse names its flag, variable or config line
    (["CASIMIR_TOL=abc", "force", "--a", "1", "--lambda", "0.1"], 2,
     "casimir: CASIMIR_TOL: could not convert string to float: 'abc'\n"),
    (["sweep", "--a", "1", "--config", "bad.cfg"], 2,
     "casimir: bad.cfg:1: sweep_lambda: could not convert string to float: "
     "'zz'\n"),
    (["sweep", "--a", "1,x"], 2,
     "casimir: --a: could not convert string to float: 'x'\n"),
    (["extract", "--a", "1", "--lambda-grid", "0.01,x"], 2,
     "casimir: --lambda-grid: could not convert string to float: 'x'\n"),
    (["force", "--a", "x", "--lambda", "0.1"], 2,
     "casimir: --a: could not convert string to float: 'x'\n"),
    (["force", "--a", "1", "--lambda", "0.1", "--tol", "abc"], 2,
     "casimir: --tol: could not convert string to float: 'abc'\n"),
    # tol is checked on every route, not only where numeric_sum reads it
    (["force", "--a", "1", "--lambda", "0.1", "--tol", "-1"], 2,
     "casimir: tol must be positive and finite, got -1.0\n"),
    (["sweep", "--a", "1", "--lambda", "0.1", "--routes", "series", "--tol",
      "0"], 2, "casimir: tol must be positive and finite, got 0.0\n"),
    (["modes", "--n-max", "2.5"], 2,
     "casimir: --n-max: invalid literal for int() with base 10: '2.5'\n"),
    # a value outside its domain is named by the library check
    (["force", "--a", "1", "--lambda", "0.1", "--units", "bogus"], 2,
     "casimir: --units: unknown unit system 'bogus'; expected 'natural' or "
     "'si'\n"),
    (["verify", "--profile", "bogus"], 2,
     "casimir: unknown profile 'bogus'; expected one of ('default', "
     "'strict')\n"),
    (["force", "--a", "1", "--lambda", "0.1", "--route", "magic"], 2,
     "casimir: unknown route 'magic'; expected one of ('closed_form', "
     "'numeric_sum', 'series')\n"),
]

#: The config file bad.cfg that ONE_LINE_FAILURES name, in the working
#: directory of each run.
BAD_CONFIG = "sweep_lambda = 0.1,zz\n"


@pytest.mark.parametrize("argv, code, message", ONE_LINE_FAILURES,
                         ids=[" ".join(case[0]) for case in ONE_LINE_FAILURES])
def test_failure_prints_one_line_in_subprocess(argv, code, message, tmp_path):
    assigned = {}
    while re.fullmatch(r"[A-Z_]+=.*", argv[0]):
        name, value = argv[0].split("=", 1)
        assigned[name] = value
        argv = argv[1:]
    (tmp_path / "bad.cfg").write_text(BAD_CONFIG)
    done = subprocess.run([sys.executable, "-m", "casimir_plates.cli", *argv],
                          env=_src_env(**assigned), capture_output=True,
                          text=True, timeout=60, cwd=tmp_path)
    assert done.returncode == code
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert message in done.stderr


#: Negative values in exponent or list form, which argparse would read as
#: options, each with the validation message it has to reach.
NEGATIVE_VALUE_ARGV = [
    (["force", "--a", "-1e-3", "--lambda", "0.1"],
     "a must be positive and finite, got -0.001"),
    (["sweep", "--a", "-1,1"], "a must be positive and finite, got -1.0"),
    (["sweep", "--lambda", "-0.1,0.2"],
     "lam must be positive and finite, got -0.1"),
    (["modes", "--L", "-2e0"], "L must be positive and finite, got -2.0"),
    (["extract", "--a", "-1e0"], "a must be positive and finite, got -1.0"),
]


@pytest.mark.parametrize("argv, message", NEGATIVE_VALUE_ARGV,
                         ids=[" ".join(case[0]) for case in NEGATIVE_VALUE_ARGV])
def test_negative_value_reaches_validation(argv, message):
    code, out, err = _run_quietly(argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"casimir: {message}"]


def _flag(name, value):
    return f"--{name}={value!r}"


_floats = st.floats()
_argvs = st.one_of(
    st.builds(lambda a, lam, route, tol: ["force", _flag("a", a),
                                          _flag("lambda", lam), "--route",
                                          route, _flag("tol", tol), "--json"],
              _floats, _floats, st.sampled_from(regsum.ROUTES), _floats),
    st.builds(lambda a, lam, route, tol: ["sweep", _flag("a", a),
                                          _flag("lambda", lam), "--routes",
                                          route, _flag("tol", tol)],
              _floats, _floats, st.sampled_from(regsum.ROUTES), _floats),
    st.builds(lambda a: ["extract", _flag("a", a)], _floats),
    # a list as its own token, led by a negative entry
    st.builds(lambda first, rest: ["sweep", "--a",
                                   ",".join(map(repr, [first, *rest]))],
              st.floats(max_value=-0.0), st.lists(_floats, max_size=2)),
    st.builds(lambda a, big_l, n_max: ["modes", _flag("a", a),
                                       _flag("L", big_l), f"--n-max={n_max}"],
              _floats, _floats, st.integers(0, 3)),
)


#: n_max below 1, which once printed an empty table with exit 0
N_MAX_BELOW_ONE_ARGV = [["modes", "--n-max=0"], ["modes", "--n-max=-2"]]


def _pin_examples(test):
    for argv in (OUT_OF_RANGE_ARGV + N_MAX_BELOW_ONE_ARGV
                 + [case[0] for case in NEGATIVE_VALUE_ARGV]):
        test = example(argv=argv)(test)
    return test


@settings(max_examples=60, deadline=None)
@_pin_examples
@given(argv=_argvs)
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    code, out, _ = _run_quietly(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert not _NON_FINITE.search(out)


def _study_recipes():
    """The argv of every `casimir ...` line in README's Studies section."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").partition("\n## Studies\n")[2]
    return [shlex.split(line)[1:]
            for line in section.partition("\n## ")[0].splitlines()
            if line.startswith("casimir ")]


STUDY_RECIPES = _study_recipes()


@pytest.mark.parametrize("argv", STUDY_RECIPES, ids=" ".join)
def test_readme_study_runs(argv):
    code, out, err = _run_quietly(argv)
    assert code == 0, err
    assert out


def test_readme_cutoff_scan_remainder_falls_like_lambda_squared():
    # the first study is the cutoff scan
    code, out, err = _run_quietly(STUDY_RECIPES[0])
    assert (code, err) == (0, "")
    rows = parse_csv(out)
    assert len(rows) >= 3
    ratios = [float(r["remainder"]) / float(r["lambda"])**2 for r in rows]
    assert ratios == [pytest.approx(ratios[0], rel=0.01)] * len(ratios)
