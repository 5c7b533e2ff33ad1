import csv
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cubeforms import cli, meshlab
from cubeforms.cli import (
    CSV_HEADER,
    ConfigError,
    bundled_config_names,
    bundled_config_path,
    parse_config,
    parse_custom_space,
    parse_monomial_form,
)
from cubeforms.forms import DiffForm

import rates_grid

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
RATES_GRID = Path(__file__).resolve().parent / "rates_grid.txt"

TINY_CFG = """
[space]
kind = Qminus
r = 1
k = 0
n = 2

[mesh]
family = uniform
N = 2 4

[run]
quad = 5
"""


class TestCustomSpaceGrammar:
    def test_monomial_one_form(self):
        got = parse_monomial_form("x1^2*x2*dx(1)", 2)
        assert got == DiffForm.monomial_form(2, (1,), (2, 1))

    def test_coefficient_and_zero_form(self):
        got = parse_monomial_form("-3/2*x2", 2)
        assert got == DiffForm.monomial_form(2, (), (0, 1), Fraction(-3, 2))

    def test_volume_form(self):
        got = parse_monomial_form("dx(1,2)", 2)
        assert got == DiffForm.basis_form(2, (1, 2))

    def test_space_list(self):
        space = parse_custom_space("dx(1); x2*dx(1); dx(2); x1*dx(2)", 2)
        assert space.dim == 4 and space.k == 1

    @pytest.mark.parametrize(
        "bad",
        [
            "x0*dx(1)",
            "dx(2,1)",
            "x1**2",
            "dx(1)*dx(2)",
            "y1",
            "",
            "1/0*dx(1)",
            "0*dx(1); dx(2)",
            "dx(1); 2*dx(1)",
        ],
    )
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_custom_space(bad, 2)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(ConfigError):
            parse_custom_space("dx(1); dx(1,2)", 2)


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", bundled_config_names())
    def test_bundled_configs_parse_and_round_trip(self, name):
        text = bundled_config_path(name).read_text()
        cfg = parse_config(text)
        echo = cfg.to_text()
        levels = " ".join(str(x) for x in cfg.subdivision_list)
        assert f"N = {levels}\n" in echo
        assert f"n = {levels}\n" not in echo
        again = parse_config(echo)
        assert cfg == again

    def test_missing_sections(self):
        with pytest.raises(ConfigError):
            parse_config("[space]\nkind = Qminus\nr = 1\nk = 0\nn = 2\n")

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            parse_config(TINY_CFG.replace("Qminus", "Qplus"))

    @pytest.mark.parametrize(
        "family, key, wanted",
        [
            ("uniform", "d = 3/10", "trapezoidal or trilinear3d"),
            ("parallelotope", "d = 0", "trapezoidal or trilinear3d"),
            ("uniform", "shear = 0 1/2 0 0", "parallelotope"),
            ("trapezoidal", "shear = 0 0 0 0", "parallelotope"),
        ],
    )
    def test_key_the_family_ignores_is_rejected(self, tmp_path, capsys, family, key, wanted):
        message = f"mesh key {key.split()[0]} needs family {wanted}, not {family!r}"
        # Each family ignores the other's key, and the run record drops it.
        text = TINY_CFG.replace("family = uniform", f"family = {family}\n{key}")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == message
        cfg = tmp_path / "ignored.cfg"
        cfg.write_text(text)
        assert cli.main(["converge", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_shear_length_checked(self):
        text = TINY_CFG.replace("family = uniform", "family = parallelotope\nshear = 0 1/2")
        with pytest.raises(ConfigError):
            parse_config(text)


class TestCheckCommand:
    def test_small_bounds_pass(self, capsys):
        rc = cli.main(["check", "--max-n", "2", "--max-r", "1", "--pullback-maps", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_pass_lines_match_benchmark_golden(self, capsys):
        """The check names the benchmark compares, with one pullback map:
        golden names with map index 1 or more are dropped."""
        golden = json.loads(GOLDEN.read_text())["check"]
        want = [
            f"PASS {name}"
            for name in golden
            if not (m := re.search(r" map=(\d+)$", name)) or int(m.group(1)) < 1
        ]
        rc = cli.main(["check", "--pullback-maps", "1"])
        out = capsys.readouterr().out
        got = [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL "))]
        assert rc == 0
        assert got == want

    @pytest.mark.parametrize(
        "flag, value, low",
        [("--max-n", "0", 1), ("--max-r", "0", 1), ("--pullback-maps", "-1", 0)],
    )
    def test_bounds_below_minimum_rejected(self, capsys, flag, value, low):
        rc = cli.main(["check", flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"argument {flag}: must be at least {low}, got {value}" in captured.err

    def test_corrupted_check_named_on_failure(self, capsys, monkeypatch):
        from cubeforms import verify

        def corrupted(max_n, max_r, pullback_maps):
            return [("dimension r=1 k=0 n=2", False)]

        monkeypatch.setattr(verify, "run_all", corrupted)
        rc = cli.main(["check"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAIL dimension r=1 k=0 n=2" in captured.out
        assert "dimension r=1 k=0 n=2" in captured.err


class TestRatesCommand:
    def test_grid_matches_the_recorded_output(self):
        # Every space of the grid goes through predict_rates, which builds
        # monomial spaces from their items and compares them by exponent
        # sets; tests/rates_grid.txt pins the rates that come out.
        assert rates_grid.render() == RATES_GRID.read_text()

    def test_qminus_range(self, capsys):
        rc = cli.main(["rates", "--kind", "Qminus", "--r", "1..3", "--k", "2", "--n", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        rates = [line.split()[-1] for line in out.splitlines()[1:]]
        assert rates == ["0", "1", "2"]

    def test_serendipity_catalog(self, capsys):
        rc = cli.main(["rates", "--kind", "serendipity", "--r", "1..6", "--n", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        rates = [line.split()[-1] for line in out.splitlines()[1:]]
        assert rates == ["2", "2", "2", "2", "2", "3"]

    def test_p_first_order_3d(self, capsys):
        rc = cli.main(["rates", "--kind", "P", "--r", "6", "--k", "3", "--n", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[1].split()[-1] == "1"

    def test_bad_space_args_usage_error(self, capsys):
        rc = cli.main(["rates", "--kind", "SLambda1_2d", "--r", "2", "--k", "0", "--n", "3"])
        assert rc == 2

    def test_zero_denominator_usage_error(self, capsys):
        rc = cli.main(["rates", "--kind", "custom", "--n", "2", "--k", "1", "--forms", "1/0*dx(1)"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: bad coefficient in form '1/0*dx(1)'")

    def test_zero_dimension_usage_error(self, capsys):
        rc = cli.main(["rates", "--kind", "Qminus", "--n", "0", "--k", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "argument --n: must be at least 1, got 0" in captured.err

    def test_descending_range_usage_error(self, capsys):
        rc = cli.main(["rates", "--kind", "Qminus", "--r", "3..1", "--k", "1", "--n", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "3..1" in captured.err


class TestConvergeCommand:
    def test_tiny_run_writes_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        rc = cli.main(["converge", str(cfg), "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        csv_path = tmp_path / "tiny.csv"
        assert csv_path.exists()
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 3
        assert rows[1][8] == ""  # rate_pair empty on the first data row
        record = json.loads((tmp_path / "tiny.json").read_text())
        assert record["report"]["errors"] == [float(r[7]) for r in rows[1:]]
        assert "N = 2 4" in record["config"]
        assert "n = 2 4" not in record["config"]
        assert parse_config(record["config"]) == parse_config(TINY_CFG)
        assert "rate (last pair)" in out

    def test_missing_config(self, capsys):
        assert cli.main(["converge", "/nonexistent/nope.cfg"]) == 2

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[space]\nkind = Qminus\n")
        assert cli.main(["converge", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "space, reason",
        [
            ("kind = Qminus\nr = 1\nk = 3\nn = 2", "k=3 invalid for n=2"),
            ("kind = serendipity\nr = 0\nk = 0\nn = 2", "r >= 1"),
            ("kind = Qminus\nr = 1\nk = 0\nn = 0", "n >= 1"),
        ],
    )
    def test_invalid_space_is_config_error(self, tmp_path, capsys, space, reason):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[space]\n{space}\n\n[mesh]\nfamily = uniform\nN = 2\n")
        assert cli.main(["converge", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err
        assert not (tmp_path / "out").exists()

    def test_zero_space_fails_before_any_mesh(self, tmp_path, capsys, monkeypatch):
        meshes = []
        monkeypatch.setattr(meshlab, "build_mesh", lambda *args, **kw: meshes.append(args))
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(
            "[space]\nkind = Qminus\nr = 0\nk = 1\nn = 2\n\n[mesh]\nfamily = uniform\n"
            "N = 2 4 8 16 32 64\n"
        )
        assert cli.main(["converge", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: rate prediction needs a nonzero space\n"
        assert meshes == [] and not (tmp_path / "out").exists()

    def test_odd_later_level_fails_before_any_mesh(self, tmp_path, capsys, monkeypatch):
        meshes = []
        monkeypatch.setattr(meshlab, "build_mesh", lambda *args, **kw: meshes.append(args))
        cfg = tmp_path / "odd.cfg"
        cfg.write_text(
            "[space]\nkind = Qminus\nr = 1\nk = 0\nn = 2\n\n[mesh]\nfamily = trapezoidal\n"
            "N = 8 16 32 64 65\nd = 3/10\n"
        )
        assert cli.main(["converge", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "config error: trapezoidal meshes need an even N >= 2\n"
        assert meshes == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            (
                TINY_CFG + "\n[target]\nkind = poly\nform = 1/0*x1\n",
                "bad coefficient in form '1/0*x1'",
            ),
            (
                "[space]\nkind = custom\nforms = 0*dx(1); dx(2)\nk = 1\nn = 2\n\n"
                "[mesh]\nfamily = uniform\nN = 2\n",
                "custom forms are linearly dependent",
            ),
        ],
        ids=["zero-denominator", "dependent-basis"],
    )
    def test_bad_form_is_config_error(self, tmp_path, capsys, text, reason):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert cli.main(["converge", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and reason in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["../../escape.csv", "sub/run.csv", "ABS", ".."])
    def test_csv_name_must_be_bare(self, tmp_path, capsys, name):
        if name == "ABS":
            name = str(tmp_path / "abs.csv")
        cfg = tmp_path / "esc.cfg"
        cfg.write_text(TINY_CFG + f"csv = {name}\n")
        out = tmp_path / "a" / "b"
        assert cli.main(["converge", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert [p.name for p in tmp_path.rglob("*")] == ["esc.cfg"]

    def test_csv_bare_name_written_in_out(self, tmp_path):
        cfg = tmp_path / "named.cfg"
        cfg.write_text(TINY_CFG + "csv = run.csv\n")
        assert cli.main(["converge", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "run.csv").exists()
        assert (tmp_path / "out" / "run.json").exists()

    def test_assert_rates_pass_and_fail(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        assert (
            cli.main(["converge", str(cfg), "--out", str(tmp_path), "--assert-rates", "0.5"])
            == 0
        )
        assert (
            cli.main(
                ["converge", str(cfg), "--out", str(tmp_path), "--assert-rates", "0.001"]
            )
            == 1
        )

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-0.5"])
    def test_assert_rates_tolerance_rejected(self, tmp_path, capsys, tol):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG)
        rc = cli.main(["converge", str(cfg), "--out", str(tmp_path), f"--assert-rates={tol}"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"argument --assert-rates: must be finite and at least 0, got {tol}" in captured.err
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.cfg"]

    def test_numerical_failure_exit_code(self, tmp_path):
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(TINY_CFG.replace("quad = 5", "quad = 1"))
        assert cli.main(["converge", str(cfg), "--out", str(tmp_path)]) == 3

    def test_bundled_name_resolution(self, tmp_path):
        rc = cli.main(
            ["converge", "q1k0_uniform", "--out", str(tmp_path), "--quad", "4"]
        )
        assert rc == 0
        assert (tmp_path / "q1k0_uniform.csv").exists()
