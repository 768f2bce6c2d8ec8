from fvproj.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, main)
from fvproj.mesh import save_mesh, unit_square_acute
from fixture_meshes import square_two_triangles


class TestMeshCheck:
    def test_builtin_family(self, capsys):
        assert main(["mesh-check", "--level", "1"]) == EXIT_OK
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
        assert main(["mesh-check", "--mesh", str(path),
                     "--allow-degenerate"]) == EXIT_OK
        assert "warning" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["mesh-check", "--mesh",
                     str(tmp_path / "nope.mesh")]) == EXIT_IO

    def test_needs_mesh_or_level(self):
        assert main(["mesh-check"]) == EXIT_USAGE

    def test_acute_selector(self):
        assert main(["mesh-check", "--mesh", "acute:1"]) == EXIT_OK

    def test_node_ele_format_flag(self, tmp_path):
        (tmp_path / "m.node").write_text(
            "4 2 0 0\n1 0.0 0.0\n2 1.0 0.0\n3 0.5 0.9\n4 0.5 -0.9\n")
        (tmp_path / "m.ele").write_text("2 3 0\n1 1 2 3\n2 2 1 4\n")
        assert main(["mesh-check", "--mesh", str(tmp_path / "m.node"),
                     "--format", "node-ele"]) == EXIT_OK


class TestRun:
    def test_zero_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("mesh = acute:0\ncase = zero\nk = 0.01\nsteps = 5\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "|u|=0" in out

    def test_manufactured_with_overrides(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["run", "--mesh", "acute:0", "--out", str(out_dir),
                     "case=manufactured-A", "k=0.01", "steps=5"])
        assert code == EXIT_OK
        assert (out_dir / "monitors.csv").exists()

    def test_bad_override(self):
        assert main(["run", "oops"]) == EXIT_USAGE

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("viscosity = 2\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_CHECK_FAILED

    def test_solver_rtol_flag(self, capsys):
        code = main(["run", "--mesh", "acute:0", "--solver-rtol", "1e-9",
                     "case=zero", "steps=3"])
        assert code == EXIT_OK


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

    def test_infsup(self, capsys):
        assert main(["infsup", "--level", "1"]) == EXIT_OK
        assert "infsup-beta" in capsys.readouterr().out

    def test_rates(self, capsys):
        assert main(["rates", "--level", "1"]) == EXIT_OK
        assert "consistency rate" in capsys.readouterr().out


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
