"""Command line surface: subcommands, config handling, exit codes, output."""

import dataclasses
import hashlib
import json
import math
import subprocess
import sys

import pytest

from cohex import cli, oracle
from cohex.numerics import QuadratureConfig
from cohex.spin_detuned import ModelParams, ThermalPoint, sigma2x, static_chain
from cohex.spectral import OhmicDensity
from cohex.table import parse_csv


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cohex", *args],
        capture_output=True,
        timeout=300,
        **kwargs,
    )


# One small sweep reused by several tests.
FIG_ARGS = (
    "spin-sweep",
    "--set", "quantity=normalized_spin",
    "--set", "omega1_over_omegac=100",
    "--set", "T=0.05:0.4:4:log",
    "--set", "omega2_over_omega1=3",
)

# Frozen first verified output of FIG_ARGS (whole byte stream, then the
# data rows on their own so a metadata change is told apart from a
# numerical regression).
FIG_SHA256 = "48333447452171e0a6286857243acba75abc4eee6708b4a6e0a47b200e4993b2"
FIG_ROWS = [
    "5.0000000000000003e-02,9.0842576742551018e-01,9.0842576742551018e-01,1.0085552031585791e-14,ok",
    "1.0000000000000001e-01,8.0776608452951260e-01,8.0776608452936138e-01,8.9680050555597541e-15,ok",
    "1.9999999999999998e-01,6.1130526564892262e-01,6.1130489164963842e-01,6.7868518099803170e-15,ok",
    "4.0000000000000002e-01,3.2454912801883162e-01,3.2419032036962964e-01,3.6032191454852437e-15,ok",
]


# A small map grid holding the omega2 = 0 invalid-params row and the
# t = 0, omega2 = omega1 degenerate-basis corner, with its frozen output.
MAP_ARGS = (
    "--set", "omega1_over_omegac=0.1",
    "--set", "beta_omega1=2",
    "--set", "omega2_max=4",
    "--set", "t_max=2",
    "--set", "points=5",
)
MAP_SHA256 = {
    "r1": "4599442f81780c331d0746277fb61b6fc24a0f195250c3af562a5c1ebfeebe38",
    "r2": "de60212c041b2b73aae08d9b516d4e50f0e62b02877c1949c349295397fb1e7c",
}

# Frozen output of two default oracle checks, one per model: every bit of
# their exact values, formulas, deviations and fitted orders.
ORACLE_ARGS = {
    "spin": ("--model", "spin", "--observable", "sigma1x"),
    "fermion": ("--model", "fermion", "--observable", "fermion_coh2"),
}
ORACLE_SHA256 = {
    "spin": "aa8180a6bd6db82359ddb38808b6fb45eca5707706d05f00fe32ccda2b384cb1",
    "fermion": "ea836c2375386480dea99d72f4cfbea436bf0141b4018babffcbd51dfdcaf08a",
}


class TestSubcommandSurface:
    def test_help_lists_exactly_the_six_subcommands(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        text = proc.stdout.decode()
        for name in (
            "spin-sweep", "fermion-sweep", "validity-map",
            "oracle-check", "static-compare", "selftest",
        ):
            assert name in text

    def test_command_help_shows_its_own_keys_and_flags(self):
        sweep = run_cli("spin-sweep", "--help")
        assert sweep.returncode == 0
        text = sweep.stdout.decode()
        assert "config keys" in text
        for key in ("quantity", "beta_omega1", "omega2_over_omega1", "rel_tol"):
            assert f"  {key} (default " in text
        ratio = run_cli("validity-map", "--help")
        assert ratio.returncode == 0
        assert "--which {r1,r2}" in ratio.stdout.decode()

    def test_version_flag(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout.decode()

    def test_missing_subcommand_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 1

    def test_unknown_flag_is_usage_error(self):
        proc = run_cli("spin-sweep", "--frobnicate")
        assert proc.returncode == 1


class TestSelftest:
    def test_clean_build_passes(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert all(line.startswith("ok - ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_rejects_config_keys(self):
        proc = run_cli("selftest", "--set", "omega1=2")
        assert proc.returncode == 1
        assert "unknown config key" in proc.stderr.decode()


class TestSweepOutput:
    def test_golden_file(self):
        proc = run_cli(*FIG_ARGS)
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == FIG_SHA256
        data_lines = [
            line for line in proc.stdout.decode().splitlines()
            if not line.startswith("#")
        ]
        assert data_lines[1:] == FIG_ROWS

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, jobs):
        proc = run_cli(*FIG_ARGS, "--jobs", jobs)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert b"--jobs: must be at least 1" in proc.stderr

    def test_byte_identical_across_jobs(self):
        one = run_cli(*FIG_ARGS, "--jobs", "1")
        four = run_cli(*FIG_ARGS, "--jobs", "4")
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout

    def test_out_writes_file_and_keeps_stdout_clean(self, tmp_path):
        target = tmp_path / "sweep.csv"
        proc = run_cli(*FIG_ARGS, "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == b""
        assert hashlib.sha256(target.read_bytes()).hexdigest() == FIG_SHA256

    def test_single_point_sweep_matches_library(self):
        proc = run_cli(
            "spin-sweep",
            "--set", "quantity=sigma2x",
            "--set", "beta_omega1=2",
            "--set", "omega1_over_omegac=0.1",
        )
        assert proc.returncode == 0
        table = parse_csv(proc.stdout)
        expected = sigma2x(
            ModelParams(1.0, 3.0, 0.1, 0.1, 0.1),
            OhmicDensity(1.0, 10.0),
            ThermalPoint.from_beta_omega1(2.0, 1.0),
        )
        assert table.rows == [
            (2.0, expected.value, expected.err_estimate, "ok"),
        ]

    def test_zero_hopping_output_is_exactly_zero(self):
        proc = run_cli(
            "spin-sweep",
            "--set", "quantity=sigma2x",
            "--set", "t=0",
            "--set", "beta_omega1=0.5:8:4:log",
        )
        assert proc.returncode == 0
        table = parse_csv(proc.stdout)
        assert table.column("sigma2x") == [0.0, 0.0, 0.0, 0.0]

    def test_json_format(self):
        proc = run_cli(*FIG_ARGS, "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["meta"]["command"] == "spin-sweep"
        assert doc["meta"]["version"] == "0.1.0"
        assert "config_sha256" in doc["meta"]
        assert doc["meta"]["columns"][0] == "T_over_omega1"
        assert len(doc["rows"]) == 4
        assert all(row[-1] == "ok" for row in doc["rows"])

    def test_json_and_csv_agree(self):
        csv_proc = run_cli(*FIG_ARGS)
        json_proc = run_cli(*FIG_ARGS, "--format", "json")
        table = parse_csv(csv_proc.stdout)
        doc = json.loads(json_proc.stdout)
        assert [list(row) for row in table.rows] == doc["rows"]

    def test_fermion_sweep_with_flagged_cells(self):
        proc = run_cli(
            "fermion-sweep",
            "--set", "quantity=sigma2x_fermion",
            "--set", "T_over_omega1=0:2:2",
            "--set", "omega2_over_omega1=0.5:1.5:3",
        )
        assert proc.returncode == 3
        table = parse_csv(proc.stdout)
        statuses = table.column("status")
        assert "near-resonance" in statuses
        resonant = [r for r in table.rows if r[-1] == "near-resonance"]
        assert all(r[2] is None for r in resonant)

    def test_fermion_sweep_past_the_hot_end_is_an_invalid_params_row(self):
        # (1/(beta omega1))^2 overflows the fermion kernels' noise floor.
        proc = run_cli(
            "fermion-sweep",
            "--set", "quantity=sigma2x_fermion",
            "--set", "beta_omega1=1e-300",
        )
        assert proc.returncode == 3
        assert proc.stderr == b""
        table = parse_csv(proc.stdout)
        assert table.rows == [(1e-300, None, None, "invalid-params")]


class TestConfigHandling:
    def test_config_file_with_comments(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# comparison run\n"
            "quantity = sigma1x\n"
            "beta_omega1 = 2   # inverse temperature\n"
            "\n"
            "omega1_over_omegac = 0.1\n"
        )
        proc = run_cli("spin-sweep", "--config", str(conf))
        assert proc.returncode == 0
        meta = dict(
            line[2:].split(" = ", 1)
            for line in proc.stdout.decode().splitlines()
            if line.startswith("# ")
        )
        assert meta["config quantity"] == "sigma1x"
        assert meta["config beta_omega1"] == "2.0"
        assert meta["config omega1_over_omegac"] == "0.1"

    def test_set_overrides_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("quantity = sigma1x\nbeta_omega1 = 2\n")
        proc = run_cli(
            "spin-sweep", "--config", str(conf), "--set", "beta_omega1=4"
        )
        assert proc.returncode == 0
        table = parse_csv(proc.stdout)
        assert table.rows[0][0] == 4.0
        assert table.meta["config beta_omega1"] == "4.0"

    def test_malformed_config_line(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("quantity sigma1x\n")
        proc = run_cli("spin-sweep", "--config", str(conf))
        assert proc.returncode == 1
        assert "expected key = value" in proc.stderr.decode()

    def test_missing_config_file(self):
        proc = run_cli("spin-sweep", "--config", "no/such/file.conf")
        assert proc.returncode == 1
        assert "cannot read config file" in proc.stderr.decode()

    def test_unknown_key_lists_valid_keys(self):
        proc = run_cli("spin-sweep", "--set", "flux_capacitor=1")
        assert proc.returncode == 1
        message = proc.stderr.decode()
        assert "unknown config key 'flux_capacitor'" in message
        for name in ("quantity", "beta_omega1", "omega2_over_omega1", "rel_tol"):
            assert name in message

    def test_temperature_must_be_explicit(self):
        proc = run_cli("spin-sweep", "--set", "quantity=sigma1x")
        assert proc.returncode == 1
        err = proc.stderr.decode()
        assert "T_over_omega1" in err and "beta_omega1" in err

    def test_both_temperatures_rejected(self):
        proc = run_cli(
            "spin-sweep",
            "--set", "quantity=sigma1x",
            "--set", "beta_omega1=2",
            "--set", "T_over_omega1=0.5",
        )
        assert proc.returncode == 1
        assert "not both" in proc.stderr.decode()

    def test_quantity_is_required(self):
        proc = run_cli("spin-sweep", "--set", "beta_omega1=2")
        assert proc.returncode == 1
        assert "quantity" in proc.stderr.decode()

    def test_bad_axis_syntax(self):
        proc = run_cli(
            "spin-sweep",
            "--set", "quantity=sigma1x",
            "--set", "beta_omega1=1:2",
        )
        assert proc.returncode == 1
        assert "min:max:points" in proc.stderr.decode()

    def test_config_hash_tracks_configuration(self):
        base = run_cli(*FIG_ARGS)
        other = run_cli(*[
            a.replace("T=0.05:0.4:4:log", "T=0.05:0.4:5:log") for a in FIG_ARGS
        ])
        digest = lambda proc: [
            line for line in proc.stdout.decode().splitlines()
            if line.startswith("# config_sha256")
        ]
        assert digest(base) != digest(other)

    def test_quadrature_override_is_honored(self):
        relaxed = run_cli(
            "spin-sweep",
            "--set", "quantity=sigma1x",
            "--set", "beta_omega1=2",
            "--set", "rel_tol=1e-6",
        )
        assert relaxed.returncode == 0
        table = parse_csv(relaxed.stdout)
        assert table.meta["config rel_tol"] == "1e-06"
        default = run_cli(
            "spin-sweep", "--set", "quantity=sigma1x", "--set", "beta_omega1=2"
        )
        relaxed_err = table.rows[0][2]
        default_err = parse_csv(default.stdout).rows[0][2]
        assert relaxed_err >= default_err

    @pytest.mark.parametrize("setting", ["rel_tol=inf"])
    def test_non_finite_quadrature_setting_is_usage_error(self, setting, capsys):
        code = cli.main([
            "spin-sweep", "--set", "quantity=sigma1x", "--set", "beta_omega1=2",
            "--set", setting,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert setting.partition("=")[0] + " must be" in captured.err

    def test_quadrature_keys_are_the_config_fields(self, capsys):
        # A knob exists on both sides or on neither: the CLI's quadrature
        # keys are the config's fields, and each command's help lists them.
        fields = [f.name for f in dataclasses.fields(QuadratureConfig)]
        assert list(cli._QUADRATURE_KEYS) == fields
        for command in (["spin-sweep"], ["fermion-sweep"], ["static-compare"],
                        ["validity-map", "--which", "r1"]):
            with pytest.raises(SystemExit) as stop:
                cli.main([*command, "--help"])
            assert stop.value.code == 0
            text = capsys.readouterr().out
            for name in fields:
                assert f"  {name} (default unset): " in text

    def test_a_removed_quadrature_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("quantity = sigma1x\nbeta_omega1 = 2\ntail_decay_scale = 5\n")
        assert cli.main(["spin-sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config key 'tail_decay_scale'" in captured.err


class TestValidityMap:
    def test_small_map_structure_and_edge(self):
        proc = run_cli(
            "validity-map", "--which", "r1",
            "--set", "beta_omega1=1",
            "--set", "points=5",
        )
        assert proc.returncode == 3  # omega2 = 0 cells are flagged
        table = parse_csv(proc.stdout)
        assert table.columns == (
            "omega2_over_omega1", "t_over_omega1", "r1", "err_estimate", "status",
        )
        assert len(table.rows) == 25
        assert table.meta["which"] == "r1"
        edge = [
            r for r in table.rows
            if r[1] == 0.0 and r[-1] == "ok"
        ]
        assert edge, "expected evaluable cells on the t = 0 edge"
        assert all(abs(r[2] - 1.0) <= 1e-3 for r in edge)

    def test_r2_map_runs(self):
        proc = run_cli(
            "validity-map", "--which", "r2",
            "--set", "T_over_omega1=1",
            "--set", "points=3",
            "--set", "omega2_max=6", "--set", "t_max=2",
        )
        assert proc.returncode in (0, 3)
        table = parse_csv(proc.stdout)
        assert table.columns[2] == "r2"
        assert len(table.rows) == 9

    @pytest.mark.parametrize("which", ["r1", "r2"])
    def test_golden_file_for_any_jobs(self, which):
        for jobs in ("1", "2"):
            proc = run_cli("validity-map", "--which", which, *MAP_ARGS, "--jobs", jobs)
            assert proc.returncode == 3
            assert hashlib.sha256(proc.stdout).hexdigest() == MAP_SHA256[which]

    def test_which_flag_is_required(self):
        proc = run_cli("validity-map", "--set", "beta_omega1=1")
        assert proc.returncode == 1

    @pytest.mark.parametrize("setting", ["omega2_max=inf", "t_max=-inf"])
    def test_non_finite_extent_is_usage_error(self, setting):
        proc = run_cli(
            "validity-map", "--which", "r1", "--set", "beta_omega1=1", "--set", setting,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        name = setting.partition("=")[0]
        assert proc.stderr.decode() == f"error: config key {name}: must be finite\n"


class TestOracleCheck:
    def test_spin_coherence_check(self):
        proc = run_cli(
            "oracle-check", "--model", "spin", "--observable", "sigma1x",
            "--set", "beta_omega1=2",
        )
        assert proc.returncode == 0
        table = parse_csv(proc.stdout)
        (exact, formula, rel_dev, order, status), = table.rows
        assert status == "ok"
        assert rel_dev <= 5e-3
        assert 1.7 <= order <= 2.3
        assert math.copysign(1.0, exact) == math.copysign(1.0, formula)

    @pytest.mark.parametrize("model", sorted(ORACLE_ARGS))
    def test_golden_file(self, model):
        proc = run_cli("oracle-check", *ORACLE_ARGS[model], "--set", "beta_omega1=2")
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout).hexdigest() == ORACLE_SHA256[model]

    def test_default_check_runs_six_solves(self, monkeypatch, capsys):
        # compare_perturbative at s = 1 and the fit at s = 1, 0.5, 0.25,
        # each at the cutoff and twice it: the s = 1 pair is solved once,
        # and a second observable of the same spec is solved not at all.
        solved = []
        real = oracle._solve

        def counting(spec):
            solved.append((spec.params.f1, spec.fock_cutoff))
            return real(spec)

        monkeypatch.setattr(oracle, "_solve", counting)
        for observable in ("sigma1x", "sigma2x"):
            code = cli.main([
                "oracle-check", "--model", "spin", "--observable", observable,
                "--set", "beta_omega1=2",
            ])
            assert code == 0
            assert len(solved) == 6 and len(set(solved)) == 6
            assert parse_csv(capsys.readouterr().out.encode()).rows[0][4] == "ok"

    def test_vanishing_observable_is_inconclusive(self):
        proc = run_cli(
            "oracle-check", "--model", "spin", "--observable", "sigma2y",
            "--set", "beta_omega1=2",
        )
        assert proc.returncode == 3
        table = parse_csv(proc.stdout)
        (exact, formula, rel_dev, order, status), = table.rows
        assert status == "inconclusive-fit"
        assert order is None
        assert exact == formula == rel_dev == 0.0

    def test_model_observable_pairing(self):
        proc = run_cli(
            "oracle-check", "--model", "fermion", "--observable", "sigma1x",
            "--set", "beta_omega1=2",
        )
        assert proc.returncode == 1
        assert "fermion_coh1" in proc.stderr.decode()

    def test_unconverged_truncation_is_a_numeric_error(self):
        proc = run_cli(
            "oracle-check", "--model", "spin", "--observable", "sigma1x",
            "--set", "beta_omega1=2",
            "--set", "mode_coupling=0.6",
            "--set", "f1=0.5", "--set", "f2=0.5",
            "--set", "fock_cutoff=1",
        )
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("numeric error:")

    def test_repeated_scale_factors_are_usage_error(self):
        proc = run_cli(
            "oracle-check", "--model", "spin", "--observable", "sigma1x",
            "--set", "beta_omega1=2", "--set", "scale_factors=1,1",
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        (line,) = proc.stderr.decode().splitlines()
        assert line.startswith("error: scale factors must be distinct")

    @pytest.mark.parametrize("factors", ["1,1", "1", "0,1", "inf,1"])
    def test_bad_scale_factors_fail_before_any_solve(self, monkeypatch, capsys, factors):
        solved = []
        real = oracle._solve

        def counting(spec):
            solved.append(spec)
            return real(spec)

        monkeypatch.setattr(oracle, "_solve", counting)
        code = cli.main([
            "oracle-check", "--model", "spin", "--observable", "sigma1x",
            "--set", "beta_omega1=2", "--set", f"scale_factors={factors}",
        ])
        assert code == 1
        assert solved == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_mode_coupling_is_a_domain_error(self):
        proc = run_cli(
            "oracle-check", "--model", "spin", "--observable", "sigma1x",
            "--set", "beta_omega1=2", "--set", "mode_coupling=inf",
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode() == "error: mode coupling must be finite, got inf\n"

    def test_mismatched_mode_lists(self):
        proc = run_cli(
            "oracle-check", "--model", "spin", "--observable", "sigma1x",
            "--set", "beta_omega1=2",
            "--set", "mode_coupling=0.05,0.02",
        )
        assert proc.returncode == 1
        assert "same" in proc.stderr.decode()


class TestStaticCompare:
    def test_columns_match_library(self):
        proc = run_cli("static-compare", "--set", "beta_omega1=8")
        assert proc.returncode == 0
        table = parse_csv(proc.stdout)
        assert table.columns[1:4] == (
            "sigma2x_full", "sigma2x_static", "sigma2x_low_T",
        )
        params = ModelParams(1.0, 3.0, 0.1, 0.1, 0.1)
        bath = OhmicDensity(1.0, 1.0)
        tp = ThermalPoint.from_beta_omega1(8.0, 1.0)
        assert table.rows[0][1] == sigma2x(params, bath, tp).value
        assert table.rows[0][2] == static_chain(params, bath, tp).values.sigma2x_st

    def test_takes_no_quantity_key(self):
        proc = run_cli(
            "static-compare", "--set", "beta_omega1=8", "--set", "quantity=sigma1x"
        )
        assert proc.returncode == 1
        assert "unknown config key 'quantity'" in proc.stderr.decode()


class TestOutputErrors:
    def test_unwritable_out_path(self):
        proc = run_cli(*FIG_ARGS, "--out", "/nonexistent/dir/x.csv")
        assert proc.returncode == 1
        assert "cannot write output file" in proc.stderr.decode()
