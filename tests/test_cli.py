import argparse
import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fvproj
from fvproj import cli
from fvproj.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, main)
from fvproj.mesh import unit_square_acute
from fixture_meshes import save_mesh, square_two_triangles


def _write_node_ele(directory):
    """Two acute triangles as the 1-based node/ele pair m.node, m.ele."""
    (directory / "m.node").write_text(
        "4 2 0 0\n1 0.0 0.0\n2 1.0 0.0\n3 0.5 0.9\n4 0.5 -0.9\n")
    (directory / "m.ele").write_text("2 3 0\n1 1 2 3\n2 2 1 4\n")


class TestMeshCheck:
    def test_builtin_family(self, capsys):
        assert main(["mesh-check", "--mesh", "acute:1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "admissible=True" in out

    def test_saved_file(self, tmp_path, capsys):
        path = tmp_path / "square_acute_L0.mesh"
        save_mesh(unit_square_acute(0), path)
        assert main(["mesh-check", "--mesh", str(path)]) == EXIT_OK
        assert "admissible=True" in capsys.readouterr().out

    def test_inadmissible_mesh_fails(self, tmp_path, capsys):
        path = tmp_path / "diag.mesh"
        save_mesh(square_two_triangles(), path)
        assert main(["mesh-check", "--mesh", str(path)]) == EXIT_CHECK_FAILED
        assert "admissible=False" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["mesh-check", "run"])
    def test_clockwise_mesh_file_fails_check(self, tmp_path, capsys, command):
        # a file that reads but holds a clockwise triangle fails a check
        # (exit 1); it is not an I/O error
        path = tmp_path / "cw.mesh"
        path.write_text("3 1\n0 0\n1 0\n0 1\n0 2 1\n")
        assert main([command, "--mesh", str(path)]) == EXIT_CHECK_FAILED
        assert ("error: triangle 0 has non-positive signed area -5.000e-01"
                in capsys.readouterr().err)

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["mesh-check", "--mesh",
                     str(tmp_path / "nope.mesh")]) == EXIT_IO

    def test_needs_mesh_or_level(self):
        # --mesh is required; there is no --level of its own
        assert main(["mesh-check"]) == EXIT_USAGE

    def test_acute_selector(self, capsys):
        # the report names the selector; level L has 26 * 4**L triangles
        for level in (0, 2):
            assert main(["mesh-check", "--mesh", f"acute:{level}"]) == EXIT_OK
            out = capsys.readouterr().out
            assert out.startswith(f"acute:{level}: ")
            assert f"nt={26 * 4 ** level}," in out

    def test_node_ele_format_flag(self, tmp_path, capsys):
        # the suffix names the format: there is no flag for it
        _write_node_ele(tmp_path)
        for name in ("m.node", "m.ele"):
            assert main(["mesh-check", "--mesh", str(tmp_path / name)]) == EXIT_OK
            assert "nt=2," in capsys.readouterr().out
        assert main(["mesh-check", "--mesh", str(tmp_path / "m.node"),
                     "--format", "node-ele"]) == EXIT_USAGE

    def test_negative_level_is_usage_error(self, capsys):
        assert main(["mesh-check", "--mesh", "acute:-1"]) == EXIT_USAGE
        assert ("argument --mesh: want acute:L with L an integer >= 0, "
                "got 'acute:-1'") in capsys.readouterr().err


_NODE = "3 2 0 0\n1 0 0\n2 1 0\n3 0 1\n"
_ELE = "1 3 0\n1 1 2 3\n"

# (name, {file: content}, exit code, the file the error names); the node/ele
# cases read m.node and m.ele, each from _NODE and _ELE unless given
MALFORMED_MESH_FILES = [
    ("header", {"m.mesh": "3\n0 0\n1 0\n0 1\n0 1 2\n"}, EXIT_IO, "m.mesh"),
    ("short row", {"m.mesh": "3 1\n0 0\n1\n0 1\n0 1 2\n"}, EXIT_IO, "m.mesh"),
    ("ragged row", {"m.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 2 0\n"}, EXIT_IO, "m.mesh"),
    ("token", {"m.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 2.5\n"}, EXIT_IO, "m.mesh"),
    ("extra line", {"m.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 2\n1 2 0\n"}, EXIT_IO,
     "m.mesh"),
    ("unknown id", {"m.mesh": "3 1\n0 0\n1 0\n0 1\n0 1 3\n"}, EXIT_CHECK_FAILED,
     "m.mesh"),
    ("nan", {"m.mesh": "3 1\nnan 0\n1 0\n0 1\n0 1 2\n"}, EXIT_IO, "m.mesh"),
    ("inf", {"m.mesh": "3 1\ninf 0\n1 0\n0 1\n0 1 2\n"}, EXIT_IO, "m.mesh"),
    ("no triangles", {"m.mesh": "3 0\n0 0\n1 0\n0 1\n"}, EXIT_IO, "m.mesh"),
    ("undecodable", {"m.mesh": b"3 1\n0 0\n1 0\n0 1\n0 1 \xff\n"}, EXIT_IO, "m.mesh"),
    ("node header", {"m.node": "three 2 0 0\n"}, EXIT_IO, "m.node"),
    ("empty ele", {"m.ele": "# no header\n"}, EXIT_IO, "m.ele"),
    ("short ele row", {"m.ele": "1 3 0\n1 1 2\n"}, EXIT_IO, "m.ele"),
    ("short node row", {"m.node": "3 2 0 0\n1 0 0\n2 1\n3 0 1\n"}, EXIT_IO, "m.node"),
    ("missing node row", {"m.node": "4 2 0 0\n1 0 0\n2 1 0\n3 0 1\n"}, EXIT_IO,
     "m.node"),
    ("node token", {"m.node": "3 2 0 0\n1 0 0\n2 1 zero\n3 0 1\n"}, EXIT_IO, "m.node"),
    # keyed by id alone, the triangle would take the last line of id 3
    ("repeated id", {"m.node": "4 2 0 0\n1 0 0\n2 1 0\n3 0.5 0.9\n3 0.5 0.95\n"},
     EXIT_IO, "m.node"),
    ("unknown node id", {"m.ele": "1 3 0\n1 1 2 9\n"}, EXIT_CHECK_FAILED, "m.ele"),
    ("node nan", {"m.node": "3 2 0 0\n1 nan 0\n2 1 0\n3 0 1\n"}, EXIT_IO, "m.node"),
    ("node inf", {"m.node": "3 2 0 0\n1 0 inf\n2 1 0\n3 0 1\n"}, EXIT_IO, "m.node"),
    ("no ele triangles", {"m.ele": "0 3 0\n"}, EXIT_IO, "m.ele"),
    # finite coordinates whose area and circumcenter overflow, and a
    # near-flat triangle whose circumcenter does
    ("overflowing area", {"m.mesh": "3 1\n0 0\n1e200 0\n0 1e200\n0 1 2\n"},
     EXIT_IO, "m.mesh"),
    ("overflowing center", {"m.mesh": "3 1\n0 0\n1 0\n2 1e-320\n0 1 2\n"},
     EXIT_IO, "m.mesh"),
]


@pytest.mark.parametrize("command", ["mesh-check", "run"])
@pytest.mark.parametrize("files, code, named",
                         [case[1:] for case in MALFORMED_MESH_FILES],
                         ids=[case[0] for case in MALFORMED_MESH_FILES])
def test_malformed_mesh_file(tmp_path, capsys, command, files, code, named):
    # refused before anything runs, naming the file, without a warning
    if "m.mesh" not in files:
        files = {"m.node": _NODE, "m.ele": _ELE, **files}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    spec = tmp_path / ("m.mesh" if "m.mesh" in files else "m.node")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--mesh", str(spec)]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    captured = capsys.readouterr()
    assert captured.out == "" and str(tmp_path / named) in captured.err
    assert "Traceback" not in captured.err


class TestRun:
    def test_zero_config_file(self, capsys):
        assert main(["run", "--mesh", "acute:0", "case=zero", "k=0.01",
                     "steps=5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "|u|=0" in out

    def test_default_mesh(self, capsys):
        # without --mesh a run takes RunConfig's default, acute:2
        assert main(["run", "case=zero", "steps=2"]) == EXIT_OK
        assert "nt=416," in capsys.readouterr().out

    def test_manufactured_with_overrides(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["run", "--mesh", "acute:0", f"out={out_dir}",
                     "case=manufactured-A", "k=0.01", "steps=5"])
        assert code == EXIT_OK
        assert (out_dir / "monitors.csv").exists()

    def test_reports_snapshot_output(self, tmp_path, capsys):
        # steps 2, 4 and 6 each write a state and a pressure file; the
        # reported bytes are those on disk, and no timings file is written
        out_dir = tmp_path / "results"
        assert main(["run", "--mesh", "acute:0", f"out={out_dir}",
                     "case=manufactured-A", "steps=6", "cadence=2"]) == EXIT_OK
        files = sorted(out_dir.glob("*.vtk"))
        assert len(files) == 6
        size = sum(f.stat().st_size for f in files)
        out = capsys.readouterr().out
        assert f"snapshots written: 6 files, {size} bytes in " in out
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["monitors.csv"] + [f.name for f in files])

    @pytest.mark.parametrize("mesh, overrides, retries", [
        ("acute:1", [], False),
        ("acute:2", ["re=1e6", "k=1"], True),  # lagged solves fail and are repeated
    ])
    def test_reports_momentum_solves(self, capsys, monkeypatch, mesh, overrides,
                                     retries):
        # the counts of every momentum solve and factor of the run, the
        # start-up step's and the repeated solves included
        from fvproj import linalg, scheme
        iters, failed, factors = [], [], []
        factor = scheme.LUFactor

        def counting_solve(A, b, config=None, **kwargs):
            x, info = linalg.solve(A, b, config, **kwargs)
            iters.append(info.iterations)
            if not info.converged:
                failed.append(info.iterations)
            return x, info

        def counting_factor(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(scheme, "solve", counting_solve)
        monkeypatch.setattr(scheme, "LUFactor", counting_factor)
        assert main(["run", "--mesh", mesh, "case=manufactured-A", "steps=6"]
                    + overrides) == EXIT_OK
        assert (len(iters) > 6) == retries and sum(iters) > 0 and factors
        assert bool(failed) == retries
        assert (f"  momentum: {sum(iters)} BiCGStab iterations in {len(iters)} "
                f"solves, {len(factors)} factor builds; {len(failed)} capped "
                f"solves failed after {sum(failed)} iterations\n"
                ) in capsys.readouterr().out

    def test_reports_failed_capped_solves(self, capsys):
        # at Re = 1e6 and k = 1 the lagged factor fails its capped solve at
        # each BDF2 step, at the cap of 20 iterations per component: 200 of
        # the run's 226 iterations
        assert main(["run", "--mesh", "acute:2", "re=1e6", "k=1",
                     "steps=6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert ("  momentum: 226 BiCGStab iterations in 11 solves, 6 factor "
                "builds; 5 capped solves failed after 200 iterations\n") in out

    @pytest.mark.parametrize("factor, code", [(10.0, EXIT_OK), (1.5, EXIT_CHECK_FAILED)])
    def test_monitor_lines_are_the_report_rows(self, capsys, monkeypatch, factor,
                                               code):
        # a bound of 1.5 fails the energy row (ratio 8.5 on this run)
        from fvproj import analysis
        reports = []
        screen = analysis.stability_monitors

        def capturing(*args, **kwargs):
            reports.append(screen(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(analysis, "stability_monitors", capturing)
        monkeypatch.setattr(analysis, "MONITOR_FACTOR", factor)
        assert main(["run", "--mesh", "acute:1", "case=manufactured-A",
                     "steps=20"]) == code
        lines = re.findall(r"^  monitor (\S+) +ratio= *(\S+) (ok|FAIL)$",
                           capsys.readouterr().out, re.MULTILINE)
        (report,) = reports
        assert [(name, float(ratio), state) for name, ratio, state in lines] == [
            (r.name, pytest.approx(r.value, abs=5e-4), "ok" if r.passed else "FAIL")
            for r in report.results]
        assert report.ok == (code == EXIT_OK)

    def test_bad_override(self):
        assert main(["run", "oops"]) == EXIT_USAGE

    def test_unknown_key(self, capsys):
        assert main(["run", "--mesh", "acute:0", "viscosity=2"]) == EXIT_USAGE
        assert "unknown config key 'viscosity'" in capsys.readouterr().err
        # the mesh has one spelling, --mesh
        assert main(["run", "mesh=acute:0", "steps=3"]) == EXIT_USAGE
        assert "unknown config key 'mesh'" in capsys.readouterr().err

    def test_repeated_key_is_usage_error(self, capsys, monkeypatch):
        # each setting has one spelling and one value: a key given twice
        # is refused before anything runs
        runs = []
        monkeypatch.setattr(cli.scheme, "run", lambda config: runs.append(config))
        assert main(["run", "--mesh", "acute:0", "steps=3", "steps=4"]) == EXIT_USAGE
        assert "run setting 'steps' given twice" in capsys.readouterr().err
        assert main(["run", "--mesh", "acute:0", "k=0.1", " k = 0.2"]) == EXIT_USAGE
        assert "run setting 'k' given twice" in capsys.readouterr().err
        assert runs == []

    def test_unparsable_value_names_its_key(self, capsys):
        assert main(["run", "--mesh", "acute:0", "steps=abc"]) == EXIT_USAGE
        assert ("config key 'steps': cannot parse 'abc' as int"
                in capsys.readouterr().err)

    def test_negative_cadence_rejected(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", "--mesh", "acute:0", "case=zero", "steps=4",
                     "cadence=-1", f"out={out_dir}"]) == EXIT_USAGE
        assert "cadence must be >= 0" in capsys.readouterr().err
        assert not list(tmp_path.rglob("state_*.vtk"))

    def test_cadence_without_out_rejected(self, capsys):
        assert main(["run", "--mesh", "acute:1", "cadence=2",
                     "steps=4"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("config key 'cadence': snapshots need an output directory"
                in captured.err)

    def test_failed_certificate_exits_1(self, monkeypatch, capsys):
        # a SolverError of the projection, named, with no traceback
        from fvproj import operators
        exact = operators.gradient
        monkeypatch.setattr(operators, "gradient", lambda q: exact(q) * (1 + 1e-11))
        assert main(["run", "--mesh", "acute:1", "steps=3"]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: initial projection: divergence-free "
                              "certificate failed (|div u| = ")
        assert "Traceback" not in err

    def test_removed_flags_are_usage_errors(self, tmp_path):
        # the solver tolerances are fixed and a run mesh must be admissible
        assert main(["run", "--mesh", "acute:0", "--solver-rtol", "1e-9",
                     "case=zero", "steps=3"]) == EXIT_USAGE
        assert main(["run", "--mesh", "acute:0", "--allow-degenerate",
                     "case=zero", "steps=3"]) == EXIT_USAGE
        # verify runs the inf-sup sweep and the consistency rate, mesh-check
        # exits 1 on every inadmissible mesh, and a file's suffix names its
        # mesh format
        assert main(["infsup", "--level", "1"]) == EXIT_USAGE
        assert main(["rates", "--level", "1"]) == EXIT_USAGE
        path = tmp_path / "m.mesh"
        save_mesh(unit_square_acute(0), path)
        assert main(["mesh-check", "--mesh", str(path),
                     "--allow-degenerate"]) == EXIT_USAGE
        assert main(["mesh-check", "--mesh", str(path),
                     "--format", "single-file"]) == EXIT_USAGE
        # each run setting has one spelling: no config file, out= for the
        # output directory, --mesh acute:L for the built-in family
        (tmp_path / "run.cfg").write_text("steps = 3\n")
        assert main(["run", "--mesh", "acute:0", "--config",
                     str(tmp_path / "run.cfg")]) == EXIT_USAGE
        assert main(["run", "--mesh", "acute:0", "--out", str(tmp_path / "o"),
                     "case=zero", "steps=3"]) == EXIT_USAGE
        assert main(["mesh-check", "--level", "1"]) == EXIT_USAGE
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", ["k=nan", "re=nan", "k=inf"])
    def test_non_finite_step_or_reynolds_rejected(self, override, capsys):
        assert main(["run", "--mesh", "acute:0", "steps=3",
                     override]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config key '{override.split('=')[0]}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("setting, message", [
        ("case=foo", "config key 'case': unknown case 'foo' (choose zero or "
                     "manufactured-A)"),
        ("steps=1", "config key 'steps': need at least 2 steps"),
        ("re=0", "config key 're'"),
    ])
    def test_rejected_setting_is_usage_error(self, setting, message, capsys,
                                             monkeypatch):
        # a setting that RunConfig rejects stops the run before the mesh
        # is built
        built = []
        monkeypatch.setattr(cli.scheme, "resolve_mesh", built.append)
        assert main(["run", "--mesh", "acute:0", setting]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert built == []

    def test_error_inside_run_is_check_failure(self, capsys, monkeypatch):
        # a ValueError raised after the settings were accepted is not a
        # usage error
        def failing(config):
            raise ValueError("raised inside the run")

        monkeypatch.setattr(cli.scheme, "run", failing)
        assert main(["run", "--mesh", "acute:0", "steps=3"]) == EXIT_CHECK_FAILED
        assert "raised inside the run" in capsys.readouterr().err

    def test_disconnected_mesh_refused(self, tmp_path, capsys):
        # two acute triangles apart, and two that share only a vertex: two
        # pieces each, whose second pressure constant only rounding would
        # set (the run once printed |p|=92532.1 and exited 0)
        meshes = {"two.mesh": "6 2\n0 0\n1 0\n0.5 0.9\n3 0\n4 0\n3.5 0.9\n0 1 2\n3 4 5\n",
                  "bowtie.mesh": "5 2\n0 0\n1 0\n0.5 0.9\n2 0\n1.5 0.9\n0 1 2\n1 3 4\n"}
        for name, text in meshes.items():
            path = tmp_path / name
            path.write_text(text)
            assert main(["mesh-check", "--mesh", str(path)]) == EXIT_CHECK_FAILED
            assert "pieces 2, admissible=False" in capsys.readouterr().out
            assert main(["run", "--mesh", str(path), "steps=2"]) == EXIT_CHECK_FAILED
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: mesh is not admissible: ")
            assert "Traceback" not in captured.err

    def test_solver_failure_inside_run_is_check_failure(self, capsys, monkeypatch):
        # no solve meets rtol 1e-30: the start-up projection's SolverError
        # names it in one error line
        from fvproj.linalg import Tolerance
        monkeypatch.setattr(cli.scheme, "PRESSURE_TOL", Tolerance(rtol=1e-30, atol=1e-300))
        assert main(["run", "--mesh", "acute:0", "steps=3"]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err.startswith("error: initial projection: factored solve failed")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("mesh, overrides", [
        ("acute:1", []),
        ("acute:2", ["re=1e6", "k=1"]),  # the lagged factor is rebuilt
    ])
    def test_reports_factor_sizes(self, capsys, monkeypatch, mesh, overrides):
        # the pressure factor's and the last momentum factor's stored
        # entries and build times
        from fvproj import operators, scheme
        built, runs = [], []
        factor, run = scheme.LUFactor, scheme.run

        def recording_factor(*args, **kwargs):
            built.append(factor(*args, **kwargs))
            return built[-1]

        def capturing(config):
            runs.append(run(config))
            return runs[-1]

        monkeypatch.setattr(scheme, "LUFactor", recording_factor)
        monkeypatch.setattr(scheme, "run", capturing)
        assert main(["run", "--mesh", mesh, "case=manufactured-A", "steps=6"]
                    + overrides) == EXIT_OK
        out = capsys.readouterr().out
        assert (len(built) > 1) == bool(overrides)
        line = re.search(r"^  factors: pressure (\d+) entries in (\S+)s; "
                         r"momentum (\d+) entries in (\S+)s$", out, re.MULTILINE)
        assert line is not None
        p_nnz, p_s, m_nnz, m_s = line.groups()
        for factor, nnz, seconds in [
                (operators.pressure_solver(runs[0].mesh), p_nnz, p_s),
                (built[-1], m_nnz, m_s)]:
            assert int(nnz) == factor.nnz
            assert float(seconds) == pytest.approx(factor.build_s, rel=5e-3)
        assert f"{len(built)} factor builds; " in out

    def test_reports_distance_to_steady(self, capsys, monkeypatch):
        # the last increment and the least-squares slope of its log
        # against t over the last half of the BDF2 steps, from the records
        runs = []
        run = cli.scheme.run

        def capturing(config):
            runs.append(run(config))
            return runs[-1]

        monkeypatch.setattr(cli.scheme, "run", capturing)
        assert main(["run", "--mesh", "acute:1", "case=manufactured-A",
                     "steps=21"]) == EXIT_OK
        line = re.search(r"^  steady: last increment (\S+), "
                         r"d log\(increment\)/dt = (\S+)$",
                         capsys.readouterr().out, re.MULTILINE)
        assert line is not None
        records = runs[0].records
        assert len(records) == 20
        tail = records[10:]
        slope = np.polyfit([r.t for r in tail],
                           np.log([r.increment for r in tail]), 1)[0]
        assert float(line.group(1)) == pytest.approx(records[-1].increment, rel=1e-6)
        assert float(line.group(2)) == pytest.approx(slope, rel=1e-5)
        assert slope < 0

    def test_steady_rate_undefined_without_increments(self, capsys):
        assert main(["run", "--mesh", "acute:0", "case=zero", "steps=5"]) == EXIT_OK
        assert ("  steady: last increment 0.000000e+00, rate undefined\n"
                in capsys.readouterr().out)

    def test_node_ele_mesh(self, tmp_path, capsys):
        # the .node suffix selects the node/ele reader, as in mesh-check
        _write_node_ele(tmp_path)
        assert main(["run", "--mesh", str(tmp_path / "m.node"), "case=zero",
                     "steps=3"]) == EXIT_OK
        assert "nt=2," in capsys.readouterr().out

    def test_inadmissible_mesh_fails(self, tmp_path, capsys):
        path = tmp_path / "diag.mesh"
        save_mesh(square_two_triangles(), path)
        assert main(["run", "--mesh", str(path), "case=zero",
                     "steps=3"]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert "not admissible" in err
        assert "Traceback" not in err


class TestVerifyAndFriends:
    def test_verify_level_zero(self, tmp_path, capsys):
        out = tmp_path / "v"
        assert main(["verify", "--level", "0", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert "gradient-divergence-adjointness" in text
        assert (out / "verify.csv").exists()

    def test_verify_csv_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["verify", "--level", "0", "--seed", "3",
                     "--out", str(a)]) == EXIT_OK
        assert main(["verify", "--level", "0", "--seed", "3",
                     "--out", str(b)]) == EXIT_OK
        assert (a / "verify.csv").read_bytes() == (b / "verify.csv").read_bytes()

    def test_verify_prints_infsup_and_rate(self, capsys):
        # every row and constant of the inf-sup sweep, its dense oracle and
        # the transport consistency rate
        assert main(["verify", "--level", "1", "--seed", "0"]) == EXIT_OK
        text = capsys.readouterr().out
        for row in ("infsup-positive", "infsup-gradient-candidate",
                    "infsup-level-drift", "infsup-brute-force-oracle",
                    "infsup-minimality", "convection-consistency-rate"):
            assert re.search(rf"^{row} .* ok", text, flags=re.M), row
        assert re.search(r"^constant infsup-beta: L0=\S+ L1=\S+$", text, flags=re.M)

    def test_negative_level_is_usage_error(self, capsys):
        assert main(["verify", "--level", "-1"]) == EXIT_USAGE
        assert "argument --level: want an integer >= 0, got '-1'" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_bad_seed_is_usage_error(self, seed, capsys, monkeypatch):
        # the parser refuses it, so no check runs
        monkeypatch.setattr(cli.analysis, "run_all", None)
        assert main(["verify", "--level", "0", "--seed", seed]) == EXIT_USAGE
        assert f"argument --seed: want an integer >= 0, got {seed!r}" in (
            capsys.readouterr().err)


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["run", "mesh-check"])
@pytest.mark.parametrize("selector", ["acute:x", "acute:-1", "acute:"])
def test_bad_selector_is_usage_error(command, selector, capsys):
    # the argument parser reads the level, so a bad one never reaches a run
    assert main([command, "--mesh", selector]) == EXIT_USAGE
    assert (f"argument --mesh: want acute:L with L an integer >= 0, "
            f"got {selector!r}") in capsys.readouterr().err


def test_docs_name_exactly_the_subcommands():
    # the module docstring and README's command block follow the parser:
    # the same subcommands, and on each subcommand's lines the same options
    action, = [a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    commands = set(action.choices)
    docstring = cli.__doc__.split("Subcommands:", 1)[1].split("Exit code", 1)[0]
    assert set(re.findall(r"``([a-z-]+)``", docstring)) == commands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n#", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = re.findall(r"^fvproj (\S+)(.*)$", block, flags=re.M)
    assert {command for command, _ in lines} == commands
    for command, parser in action.choices.items():
        options = {o for a in parser._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
        documented = {o for c, rest in lines if c == command
                      for o in re.findall(r"(?<!\S)--[a-z-]+", rest)}
        assert documented == options, command


def test_import_leaves_out_scipy_optimize(tmp_path):
    # no fvproj code needs scipy.optimize: neither importing the package
    # nor running verify may load it
    src = str(Path(fvproj.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fvproj.cli, fvproj.scheme, fvproj.reference; "
         "print('scipy.optimize' in sys.modules); "
         "code = fvproj.cli.main(['verify', '--level', '0', '--seed', '7']); "
         "print(code, 'scipy.optimize' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-1] == f"{EXIT_OK} False"


def test_no_module_imports_a_private_name():
    # an underscore name is private to its module: another fvproj module
    # that needs it should use a public one
    package = Path(fvproj.__file__).resolve().parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").startswith("fvproj"))):
                private += [f"{path.name}:{node.lineno} {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
