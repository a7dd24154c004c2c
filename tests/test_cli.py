"""End-to-end command-line behavior: exit codes, files, printed values."""

import importlib.resources
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixsep import pipeline
from mixsep.cli import _apply_thread_cap, build_parser, main
from mixsep.config import default_scenario
from mixsep.constants import A_BOHR
from mixsep.errors import StepUnstable
from mixsep.pipeline import (
    load_ground_state,
    read_profile_csv,
    read_table,
    verify_manifest,
    write_profile_csv,
    write_table,
)
from mixsep.profiles import thermal_peak_coefficient

FAST_CFG = """\
[grid]
n_rho = 32
n_z = 64
[solver]
mode = tf
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG, encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _damage(gs_dir, kind: str) -> str:
    """Damage a saved ground state; returns what the error message must name."""
    meta_path, csv_path = gs_dir / "meta.json", gs_dir / "n_f.csv"
    if kind in ("text_for_number", "breakdown_list", "top_level_list"):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if kind == "text_for_number":
            meta["scenario"]["n_bosons"] = "many"
        elif kind == "breakdown_list":
            meta["results"]["energy_breakdown_nk"] = [1.0, 2.0]
        else:
            meta = [meta]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        if kind == "top_level_list":
            return "meta.json: the top level must be a JSON object"
        return "meta.json: wrongly typed value"
    if kind == "missing_key":
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        del meta["results"]["mu_b_nk"]
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        return "meta.json: missing key 'mu_b_nk'"
    if kind == "truncated_meta":
        text = meta_path.read_text(encoding="utf-8")
        meta_path.write_text(text[: len(text) // 2], encoding="utf-8")
        return "meta.json: "
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    if kind == "bad_header":
        lines = [("# n_z = sixty-four" if ln.startswith("# n_z") else ln) for ln in lines]
        message = "n_f.csv: bad header field"
    else:
        k = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 2
        cells = lines[k].split(",")
        cells[-1:] = ["n/a"] if kind == "non_numeric_cell" else []
        lines[k] = ",".join(cells)
        message = f"n_f.csv, line {k + 1}: "
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return message


def kv(stdout: str) -> dict:
    pairs = {}
    for line in stdout.splitlines():
        if " = " in line:
            k, _, v = line.partition(" = ")
            pairs[k.strip()] = v.strip()
    return pairs


def test_constants_prints_json(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    payload = json.loads(out)
    assert payload["hbar[J*s]"] == 1.054571817e-34
    assert payload["a_bohr[m]"] == pytest.approx(5.29177210903e-11)


def _scipy_modules_after(code: str) -> list:
    """[result, the scipy modules loaded] once a fresh interpreter has run code.

    code may set `result` to any JSON value; it is None otherwise.
    """
    probe = (
        "import json, sys\nresult = None\n" + code
        + "\nscipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
        + "\nprint(json.dumps([result, scipy]))"
    )
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    # Only the radial line solve of a full-mode minimize uses scipy (LAPACK);
    # importing it with the package would cost every command about 0.3 s and
    # 24 MB.
    assert _scipy_modules_after("import mixsep, mixsep.cli") == [None, []]


def test_analysis_commands_load_no_scipy(tmp_path):
    rho = (np.arange(64) + 0.5) * 0.25e-6
    write_profile_csv(tmp_path / "radial.csv", rho, 3.0e17 * np.exp(-(rho / 4.0e-6) ** 2),
                      "rho[um]")
    t = np.linspace(0.0, 5.0, 12)
    write_table(tmp_path / "decay.csv", ["t[s]", "N"],
                np.column_stack([t, 2.0e5 / (1.0 + 0.05 * t)]).tolist())
    code = f"""
from mixsep.cli import main
d = {str(tmp_path)!r}
result = [
    main(["criterion", "--abf", "1000"]),
    main(["abel", "forward", "--in", d + "/radial.csv", "--out", d + "/proj.csv"]),
    main(["fit-l3", "--in", d + "/decay.csv", "--temperature-nk", "440", "--nf-peak", "4.5e12"]),
]
"""
    assert _scipy_modules_after(code) == [[0, 0, 0], []]


def test_only_a_full_mode_solve_loads_lapack():
    code = """
import warnings
from mixsep.config import default_scenario
from mixsep.profiles import grid_for_scenario
from mixsep.solver import SolverOptions, minimize
warnings.simplefilter("ignore")
sc = default_scenario()
grid = grid_for_scenario(sc, 16, 32)
minimize(sc, grid, SolverOptions(mode="tf"))
result = sorted(sys.modules)
minimize(sc, grid, SolverOptions(mode="full"))
"""
    before_full, after_full = _scipy_modules_after(code)
    assert not [m for m in before_full if m.split(".")[0] == "scipy"]
    assert "scipy.linalg.lapack" in after_full


def test_thread_cap(monkeypatch):
    monkeypatch.setenv("MIXSEP_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    _apply_thread_cap()
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"


class TestSolve:
    def test_solve_and_save(self, capsys, tmp_path, fast_cfg):
        out_dir = tmp_path / "gs"
        code, out, _ = run(
            capsys, "solve", "--config", fast_cfg, "--abf", "0", "--out", str(out_dir)
        )
        assert code == 0
        vals = kv(out)
        assert vals["converged"] == "True"
        assert vals["mode"] == "tf"
        assert float(vals["n_f_peak_cm3"]) == pytest.approx(1.188e12, rel=0.05)
        assert float(vals["residual_b"]) >= 0.0
        assert float(vals["residual_f"]) > 0.0
        gs = load_ground_state(out_dir)
        assert gs.converged

    def test_field_flag_maps_through_resonance(self, capsys, fast_cfg):
        b = 335.057 - 0.1
        code, out, _ = run(capsys, "solve", "--config", fast_cfg, "--b", str(b))
        assert code == 0
        a_bf = float(kv(out)["a_bf_a0"])
        assert a_bf == pytest.approx(638.84, rel=1e-3)

    def test_unconverged_exits_3_but_saves(self, capsys, tmp_path):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(
            "[grid]\nn_rho = 32\nn_z = 64\n[solver]\nmode = full\nmax_iter = 3\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "gs"
        code, out, err = run(
            capsys, "solve", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == 3
        assert "max_iter" in err
        assert kv(out)["converged"] == "False"
        assert not load_ground_state(out_dir).converged

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[mixture]\nn_atoms = 5\n", encoding="utf-8")
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "n_atoms" in err

    def test_non_finite_config_number_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("[grid]\nn_rho = 32\nbox_factor = nan\n", encoding="utf-8")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert code == 2
        assert "[grid] box_factor on line 3" in err
        assert not (tmp_path / "run").exists()

    def test_odd_n_z_exits_2(self, capsys, tmp_path):
        # rejected by the config, not later by the grid, so the line is named
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("[grid]\nn_rho = 32\nn_z = 63\n", encoding="utf-8")
        code, _, err = run(capsys, "solve", "--config", str(cfg), "--out", str(tmp_path / "gs"))
        assert code == 2
        assert "[grid] n_z on line 3 must be even" in err
        assert not (tmp_path / "gs").exists()

    @pytest.mark.parametrize("key,value", [("span", 0.5), ("n_boot", 200), ("seed", 3)])
    def test_removed_fits_key_exits_2(self, capsys, tmp_path, key, value):
        # smooth-l3 takes these as --span/--boot/--seed, not from a config file
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"[fits]\n{key} = {value}\n", encoding="utf-8")
        code, _, err = run(capsys, "criterion", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err


class TestCriterion:
    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "criterion")
        assert code == 0
        vals = kv(out)
        assert float(vals["critical_a_bf_a0"]) == pytest.approx(607.17, rel=1e-3)
        assert "separated" not in vals

    def test_explicit_density_and_test_value(self, capsys):
        code, out, _ = run(
            capsys, "criterion", "--nf-peak", "1.2e12", "--abf", "1000"
        )
        vals = kv(out)
        assert float(vals["critical_a_bf_a0"]) == pytest.approx(606.18, rel=1e-3)
        assert vals["separated"] == "True"
        code, out, _ = run(capsys, "criterion", "--abf", "100")
        assert kv(out)["separated"] == "False"


class TestAbel:
    def test_forward_then_inverse_round_trip(self, capsys, tmp_path):
        sigma = 4.0e-6
        rho = (np.arange(60) + 0.5) * (sigma / 12.0)
        prof = 3.0e17 * np.exp(-(rho**2) / sigma**2)
        src = tmp_path / "radial.csv"
        write_profile_csv(src, rho, prof, "rho[um]")

        proj = tmp_path / "proj.csv"
        code, out, _ = run(
            capsys, "abel", "forward", "--in", str(src), "--out", str(proj)
        )
        assert code == 0
        y, coldens = read_profile_csv(proj)
        # projection spans -R..R; its peak gains a sqrt(pi)*sigma factor
        assert y[0] < 0.0 < y[-1]
        assert np.max(coldens) == pytest.approx(
            3.0e17 * math.sqrt(math.pi) * sigma, rel=0.01
        )

        back = tmp_path / "back.csv"
        code, _, _ = run(
            capsys, "abel", "inverse", "--in", str(proj), "--out", str(back)
        )
        assert code == 0
        rho2, rec = read_profile_csv(back)
        resampled = np.interp(rho2, rho, prof)
        l2 = np.sqrt(np.sum((rec - resampled) ** 2) / np.sum(resampled**2))
        assert l2 < 0.02

    def test_inverse_with_explicit_center(self, capsys, tmp_path):
        h = 0.5e-6
        y = (np.arange(80) - 39.5) * h
        vals = np.exp(-(y**2) / (4e-6) ** 2)
        src = tmp_path / "slice.csv"
        write_profile_csv(src, y, vals, "y[um]")
        out_csv = tmp_path / "rec.csv"
        code, _, _ = run(
            capsys,
            "abel",
            "inverse",
            "--in",
            str(src),
            "--out",
            str(out_csv),
            "--method",
            "onion",
            "--center",
            "0.0",
        )
        assert code == 0
        rho, rec = read_profile_csv(out_csv)
        assert rec[0] == pytest.approx(1.0 / (math.sqrt(math.pi) * 4e-6), rel=0.05)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_non_finite_value_exits_2(self, capsys, tmp_path, direction):
        rho = (np.arange(40) + 0.5) * 0.25e-6
        values = np.exp(-((rho / 4.0e-6) ** 2))
        values[7] = math.nan
        src = tmp_path / "in.csv"
        write_profile_csv(src, rho, values, "rho[um]")
        out_csv = tmp_path / "out.csv"
        code, _, err = run(capsys, "abel", direction, "--in", str(src), "--out", str(out_csv))
        assert code == 2
        assert "values must be finite" in err
        assert not out_csv.exists()

    def test_missing_input_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "abel",
            "forward",
            "--in",
            str(tmp_path / "absent.csv"),
            "--out",
            str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert "absent.csv" in err


class TestFits:
    def write_decay(self, tmp_path, noise=0.0):
        t = np.linspace(0.0, 3.0, 12)
        n = 1.0e5 * (1.0 - 0.08 * t)
        p = tmp_path / "decay.csv"
        write_table(p, ["t[s]", "N"], np.column_stack([t, n]).tolist())
        return p

    def test_fit_gamma(self, capsys, tmp_path):
        p = self.write_decay(tmp_path)
        out_json = tmp_path / "fit.json"
        code, out, _ = run(
            capsys, "fit-gamma", "--in", str(p), "--out", str(out_json)
        )
        assert code == 0
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["gamma[1/s]"] == pytest.approx(0.08, rel=1e-10)
        assert payload["decaying"] is True
        assert "gamma[1/s]" in kv(out)

    def test_fit_gamma_diverged_exits_3(self, capsys, tmp_path):
        p = tmp_path / "rise.csv"
        write_table(p, ["t[s]", "N"], [[0.0, 1.0], [1.0, 1.0], [2.0, 1000.0]])
        code, _, err = run(
            capsys, "fit-gamma", "--in", str(p), "--window", "0.5"
        )
        assert code == 3
        assert "numerical failure" in err

    def test_fit_l3(self, capsys, tmp_path):
        temp_nk, nf_cm3 = 440.0, 4.5e12
        l3_si = 1.0e-37
        c_t = thermal_peak_coefficient(default_scenario().bosons, temp_nk * 1e-9)
        k = l3_si * (nf_cm3 * 1e6) * c_t / math.sqrt(8.0)
        t = np.linspace(0.0, 5.0, 12)
        n = 2.0e5 / (1.0 + k * 2.0e5 * t)
        p = tmp_path / "decay.csv"
        write_table(p, ["t[s]", "N"], np.column_stack([t, n]).tolist())
        code, out, _ = run(
            capsys,
            "fit-l3",
            "--in",
            str(p),
            "--temperature-nk",
            str(temp_nk),
            "--nf-peak",
            str(nf_cm3),
        )
        assert code == 0
        assert float(kv(out)["L3[cm^6/s]"]) == pytest.approx(1.0e-25, rel=1e-4)

    def test_smooth_l3(self, capsys, tmp_path):
        a = np.geomspace(100.0, 2000.0, 10)
        l3_cm6 = 1e-25 * (a / 1000.0) ** 2
        src = tmp_path / "points.csv"
        write_table(
            src, ["a_bf[a0]", "L3[cm^6/s]"], np.column_stack([a, l3_cm6]).tolist()
        )
        out_csv = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "smooth-l3",
            "--in",
            str(src),
            "--out",
            str(out_csv),
            "--boot",
            "40",
        )
        assert code == 0
        meta, header, data = read_table(out_csv)
        assert header == ["a_bf[a0]", "L3[cm^6/s]", "band_lo[cm^6/s]", "band_hi[cm^6/s]"]
        mid = len(data) // 2
        expect = 1e-25 * (data[mid, 0] / 1000.0) ** 2
        assert data[mid, 1] == pytest.approx(expect, rel=1e-6)

    def test_smooth_l3_zero_boot_exits_2(self, capsys, tmp_path):
        a = np.geomspace(100.0, 2000.0, 7)
        src = tmp_path / "points.csv"
        write_table(
            src, ["a_bf[a0]", "L3[cm^6/s]"], np.column_stack([a, 1e-25 * a / 1000.0]).tolist()
        )
        code, _, err = run(
            capsys, "smooth-l3", "--in", str(src), "--out", str(tmp_path / "c.csv"), "--boot", "0"
        )
        assert code == 2
        assert "n_boot" in err
        assert not (tmp_path / "c.csv").exists()

    def test_output_failure_exits_4(self, capsys, tmp_path):
        p = self.write_decay(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        code, _, err = run(
            capsys,
            "fit-gamma",
            "--in",
            str(p),
            "--out",
            str(blocker / "fit.json"),
        )
        assert code == 4
        assert "output failure" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["fit-l3", "--in", "{decay}", "--temperature-nk", "nan", "--nf-peak", "1e12"],
         "--temperature-nk"),
        (["fit-l3", "--in", "{decay}", "--temperature-nk", "440", "--nf-peak", "inf"],
         "--nf-peak"),
        (["criterion", "--nf-peak", "nan", "--abf", "700"], "--nf-peak"),
        (["solve", "--config", "{cfg}", "--abf", "nan"], "--abf"),
        (["solve", "--config", "{cfg}", "--b", "inf"], "--b"),
    ],
)
def test_non_finite_float_option_exits_2(capsys, tmp_path, fast_cfg, argv, option):
    # every float option takes finite numbers only, and the message names it
    t = np.linspace(0.0, 5.0, 12)
    decay = tmp_path / "decay.csv"
    write_table(decay, ["t[s]", "N"], np.column_stack([t, 2.0e5 / (1.0 + 0.05 * t)]).tolist())
    argv = [a.format(decay=decay, cfg=fast_cfg) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}: not a finite number" in capsys.readouterr().err


class TestSweepAndFig:
    def test_sweep_single_mode(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            FAST_CFG + "[sweep]\na_bf_list_a0 = 100, 800\n", encoding="utf-8"
        )
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys,
            "sweep",
            "--config",
            str(cfg),
            "--mode",
            "tf",
            "--out",
            str(out_dir),
        )
        assert code == 0
        vals = kv(out)
        assert vals["sweep_csv"].endswith("sweep_overlap_tf.csv")
        verify_manifest(vals["manifest"])
        # progress lines go to stderr unless --quiet
        assert "point 1" in err
        code, _, err = run(
            capsys,
            "sweep",
            "--config",
            str(cfg),
            "--mode",
            "tf",
            "--out",
            str(out_dir),
            "--quiet",
        )
        assert code == 0 and "point" not in err

    def test_sweep_failed_or_unconverged_point_exits_3(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            FAST_CFG + "[sweep]\na_bf_list_a0 = 100, 800\n", encoding="utf-8"
        )
        solve = pipeline.minimize

        def flaky(scenario, grid, options, warm_start=None):
            if scenario.a_bf > 500.0 * A_BOHR:
                raise StepUnstable("energy still rising")
            return solve(scenario, grid, options, warm_start=warm_start)

        monkeypatch.setattr(pipeline, "minimize", flaky)
        out_dir = tmp_path / "run"
        argv = ["sweep", "--config", str(cfg), "--mode", "tf", "--out", str(out_dir), "--quiet"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        # the results are still written, and the failed point is named
        verify_manifest(kv(out)["manifest"])
        assert "[tf] a_bf = 800 a0: StepUnstable: energy still rising" in err
        assert "a_bf = 100 a0" not in err

        # a point that hits max_iter fails the run the same way
        cfg.write_text(
            FAST_CFG + "max_iter = 3\n[sweep]\na_bf_list_a0 = 100\n", encoding="utf-8"
        )
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "[tf] a_bf = 100 a0: hit max_iter before converging" in err

    def test_overlap_report(self, capsys, tmp_path, fast_cfg):
        gs_dir = tmp_path / "gs"
        run(capsys, "solve", "--config", fast_cfg, "--abf", "300", "--out", str(gs_dir))
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "overlap",
            "--ground-state",
            str(gs_dir),
            "--l3",
            "1e-25",
            "--out",
            str(report),
        )
        assert code == 0
        vals = kv(out)
        assert 0.0 < float(vals["Omega_eff"]) <= 1.0
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert payload["Omega_eff"] == pytest.approx(float(vals["Omega_eff"]), rel=1e-9)
        assert payload["L3[cm^6/s]"] == pytest.approx(1e-25, rel=1e-12)

    @pytest.mark.parametrize(
        "damage",
        ["non_numeric_cell", "short_row", "bad_header", "missing_key", "truncated_meta",
         "text_for_number", "breakdown_list", "top_level_list"],
    )
    def test_damaged_ground_state_exits_2(self, capsys, tmp_path, fast_cfg, damage):
        gs_dir = tmp_path / "gs"
        run(capsys, "solve", "--config", fast_cfg, "--abf", "300", "--out", str(gs_dir))
        expected = _damage(gs_dir, damage)
        code, _, err = run(
            capsys, "overlap", "--ground-state", str(gs_dir), "--l3", "1e-25"
        )
        assert code == 2
        assert expected in err

    def test_fig3_and_fig2b(self, capsys, tmp_path):
        sweep = tmp_path / "sweep.csv"
        write_table(
            sweep,
            ["a_bf[a0]", "omega_eff_full", "omega_eff_tf", "omega_zero_T"],
            [[100.0, 0.9, 0.8, 0.85], [300.0, 0.5, 0.4, 0.45]],
            meta={"critical_a_bf_a0": 607.0},
        )
        code, out, _ = run(
            capsys, "fig", "fig3", "--in", str(sweep), "--out", str(tmp_path / "f3")
        )
        assert code == 0
        assert (tmp_path / "f3" / "fig3_overlap.csv").exists()

        gamma = tmp_path / "gamma.csv"
        write_table(
            gamma,
            ["a_bf[a0]", "gamma[1/s]", "gamma_err[1/s]"],
            [[300.0, 0.2, 0.01], [100.0, 0.1, 0.02]],
        )
        code, _, _ = run(
            capsys, "fig", "fig2b", "--in", str(gamma), "--out", str(tmp_path / "f2b")
        )
        assert code == 0
        _, _, data = read_table(tmp_path / "f2b" / "fig2b_gamma.csv")
        np.testing.assert_array_equal(data[:, 0], [100.0, 300.0])

    def test_fig2b_without_errors_writes_zeros(self, capsys, tmp_path):
        gamma = tmp_path / "gamma.csv"
        write_table(gamma, ["a_bf[a0]", "gamma[1/s]"], [[300.0, 0.2], [100.0, 0.1]])
        code, _, _ = run(
            capsys, "fig", "fig2b", "--in", str(gamma), "--out", str(tmp_path / "f2b")
        )
        assert code == 0
        _, header, data = read_table(tmp_path / "f2b" / "fig2b_gamma.csv")
        assert header == ["a_bf[a0]", "gamma[1/s]", "gamma_err[1/s]"]
        np.testing.assert_array_equal(data, [[100.0, 0.1, 0.0], [300.0, 0.2, 0.0]])

    def test_fig_requires_input_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "fig", "fig3", "--out", str(tmp_path))
        assert code == 2
        assert "--in" in err

    def test_fig_kinds_are_the_plot_table(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        kind = next(a for a in sub.choices["fig"]._actions if a.dest == "kind")
        assert tuple(kind.choices) == tuple(pipeline.PLOT_KINDS)

    def test_fig2a_bad_curve_metadata_exits_2(self, capsys, tmp_path):
        a = np.geomspace(100.0, 2000.0, 7)
        src = tmp_path / "points.csv"
        write_table(
            src, ["a_bf[a0]", "L3[cm^6/s]"], np.column_stack([a, 1e-25 * a / 1000.0]).tolist()
        )
        curve = tmp_path / "curve.csv"
        code, _, _ = run(
            capsys, "smooth-l3", "--in", str(src), "--out", str(curve), "--boot", "20"
        )
        assert code == 0
        text = curve.read_text(encoding="utf-8")
        assert "# n_boot = 20\n" in text
        curve.write_text(text.replace("# n_boot = 20\n", "# n_boot = many\n"), encoding="utf-8")
        code, _, err = run(
            capsys, "fig", "fig2a", "--in", str(curve), "--out", str(tmp_path / "f2a")
        )
        assert code == 2
        assert "curve.csv" in err and "n_boot" in err

    @pytest.mark.filterwarnings("error::mixsep.errors.NonDecayingWarning")
    def test_fig1b_default_noise_does_not_warn_on_the_shipped_tf_state(self, capsys, tmp_path):
        # The default --noise 0.02 adds 2% of the column peak to every
        # sample, the outermost included; the edge is judged on the
        # noiseless data, which has decayed.
        cfg = importlib.resources.files("mixsep") / "data" / "default.cfg"
        gs_dir = tmp_path / "gs"
        code, _, _ = run(capsys, "solve", "--config", str(cfg), "--mode", "tf", "--out", str(gs_dir))
        assert code == 0
        code, _, _ = run(
            capsys, "fig", "fig1b", "--ground-state", str(gs_dir), "--out", str(tmp_path / "f1b")
        )
        assert code == 0

    def test_fig1b_from_saved_state(self, capsys, tmp_path, fast_cfg):
        gs_dir = tmp_path / "gs"
        run(capsys, "solve", "--config", fast_cfg, "--abf", "800", "--out", str(gs_dir))
        code, out, _ = run(
            capsys,
            "fig",
            "fig1b",
            "--ground-state",
            str(gs_dir),
            "--noise",
            "0",
            "--out",
            str(tmp_path / "f1b"),
        )
        assert code == 0
        assert (tmp_path / "f1b" / "fig1b_column.csv").exists()
        assert (tmp_path / "f1b" / "fig1b_radial.csv").exists()
