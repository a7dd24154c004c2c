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
from mixsep.cli import build_parser, main
from mixsep.config import default_scenario
from mixsep.constants import A_BOHR
from mixsep.errors import StepUnstable
from mixsep.lossfit import smooth_l3
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
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    p = tmp_path / "fast.cfg"
    p.write_text(FAST_CFG, encoding="utf-8")
    return str(p)


# Finite inputs far outside the physical range: (config text, argv, exit
# code, what the output names). Python's float ** raised OverflowError on
# g_bf^2 at --abf 1e300, which now solves to the separated state as 1e200
# does; trap frequencies whose mean, a coupling or a grid spacing whose
# square overflows or underflows are bad input.
EXTREME_INPUTS = [
    ("", ["solve", "--mode", "tf", "--abf", "1e300"], 0, "a_bf_a0 = 1e+300"),
    *(
        (text, argv, 2, names)
        for text, names in (
            ("[fermions]\nnu_rho_hz = 1e300\n", "Li6 trap frequencies"),
            ("[bosons]\nnu_rho_hz = 1e-300\n", "K41 trap frequencies"),
            ("[bosons]\npolarizability_factor = 1e-300\n", "K41 trap frequencies"),
            ("[bosons]\npolarizability_factor = 1e300\n", "K41 trap frequencies"),
            ("[bosons]\na_bb_a0 = 1e-300\n", "K41 scattering length"),
        )
        for argv in (["solve", "--mode", "full"], ["solve", "--mode", "tf"], ["criterion"])
    ),
    ("[fermions]\nnu_z_hz = 1e-300\n", ["solve", "--mode", "full"], 2, "grid spacing d_z"),
    ("[fermions]\nnu_z_hz = 1e300\n", ["solve", "--mode", "full"], 2, "grid spacing d_z"),
]


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
        cells[-1:] = {"non_numeric_cell": ["n/a"], "nan_cell": ["nan"],
                      "negative_cell": ["-1"]}.get(kind, [])
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
    assert payload["a_bohr[m]"] == pytest.approx(5.29177210903e-11, abs=0.0)


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
    # 24 MB. Nor does it load importlib.metadata (about 20 ms): the version
    # is looked up only when a meta.json or a manifest is written.
    code = "import mixsep, mixsep.cli\nresult = 'importlib.metadata' in sys.modules"
    assert _scipy_modules_after(code) == [False, []]


def test_version_is_one_constant(tmp_path):
    # mixsep.__version__ is the one place the version is written: an install
    # reports it (pyproject.toml reads it), and every manifest and meta.json
    # records it without a metadata lookup
    import importlib.metadata

    import mixsep

    try:
        assert mixsep.__version__ == importlib.metadata.version("mixsep")
    except importlib.metadata.PackageNotFoundError:
        pass  # run from a source tree, not installed
    with pytest.raises(AttributeError):
        mixsep.no_such_name
    code = f"""
import json, warnings
from pathlib import Path
from mixsep import pipeline
from mixsep.config import default_scenario
from mixsep.profiles import grid_for_scenario
from mixsep.solver import SolverOptions, minimize
warnings.simplefilter("ignore")
d = Path({str(tmp_path)!r})
pipeline.RunManifest(config_sha256="0" * 64).write(d / "manifest.json")
sc = default_scenario()
pipeline.save_ground_state(minimize(sc, grid_for_scenario(sc, 16, 32), SolverOptions(mode="tf")), d / "gs")
written = [json.loads(p.read_text())["version"] for p in (d / "manifest.json", d / "gs" / "meta.json")]
result = [written, "importlib.metadata" in sys.modules]
"""
    assert _scipy_modules_after(code)[0] == [[mixsep.__version__] * 2, False]


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
    # The line solve binds dptsv from scipy's compiled LAPACK module alone:
    # scipy.linalg's import would load about 320 modules, numpy.f2py and
    # numpy.testing among them, and cost a full-mode solve 0.2-0.3 s
    code = """
import warnings
from mixsep.config import default_scenario
from mixsep.profiles import grid_for_scenario
from mixsep.solver import SolverOptions, minimize
warnings.simplefilter("ignore")
sc = default_scenario()
grid = grid_for_scenario(sc, 16, 32)
minimize(sc, grid, SolverOptions(mode="tf"))
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
minimize(sc, grid, SolverOptions(mode="full"))
result = [before, sorted(m for m in sys.modules if m.startswith(("numpy.f2py", "numpy.testing")))]
"""
    (before_full, numpy_tools), after_full = _scipy_modules_after(code)
    assert before_full == []
    assert "scipy" in after_full
    linalg = [m for m in after_full if m.split(".")[:2] == ["scipy", "linalg"]]
    assert set(linalg) <= {"scipy.linalg._flapack"}
    assert numpy_tools == []


def test_line_solve_gives_the_same_bytes_from_every_lapack_binding():
    # dptsv is loaded from scipy's compiled module where scipy.linalg is not
    # loaded yet, taken from scipy.linalg.lapack where it is, and from there
    # too where the compiled module's file is missing. All three are the same
    # routine: a full-mode solve and a line solve give the same bytes, and
    # scipy.linalg imports and works after the solve.
    code = """
import hashlib, warnings
import numpy as np
from mixsep import functional
from mixsep.config import default_scenario
from mixsep.profiles import grid_for_scenario
from mixsep.solver import SolverOptions, minimize
{prefix}
warnings.simplefilter("ignore")
sc = default_scenario()
grid = grid_for_scenario(sc, 16, 32)
gs = minimize(sc, grid, SolverOptions(mode="full"))
linalg = "scipy.linalg" in sys.modules
rng = np.random.default_rng(3)
b = np.asfortranarray(rng.standard_normal((grid.n_rho, grid.n_z)))
diag = np.asfortranarray(rng.uniform(1.0, 2.0, b.shape) / grid.d_rho**2)
x = functional.KineticStencil(grid).solve_cells(1.0, diag, b)
digest = hashlib.sha256(b"".join(a.tobytes() for a in (gs.n_b.values, gs.n_f.values, x)))
import scipy.linalg
works = scipy.linalg.solve(np.diag([2.0, 4.0]), [1.0, 1.0]).tolist() == [0.5, 0.25]
result = [linalg, digest.hexdigest(), works, scipy.linalg._flapack.dptsv is functional._lapack_dptsv()]
"""
    prefixes = {
        "direct": "",
        "public": "import scipy.linalg",
        "fallback": "functional._FLAPACK = 'scipy.linalg._no_such_module'",
    }
    runs = {k: _scipy_modules_after(code.format(prefix=v))[0] for k, v in prefixes.items()}
    # only the direct load leaves scipy.linalg unloaded through the solve
    assert {k: r[0] for k, r in runs.items()} == {"direct": False, "public": True, "fallback": True}
    assert len({r[1] for r in runs.values()}) == 1
    assert all(r[2] and r[3] for r in runs.values())


class TestSolve:
    def test_solve_and_save(self, capsys, tmp_path, fast_cfg):
        out_dir = tmp_path / "gs"
        code, out, _ = run(
            capsys, "solve", "--mode", "tf", "--config", fast_cfg,
            "--abf", "0", "--out", str(out_dir)
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
        code, out, _ = run(capsys, "solve", "--mode", "tf", "--config", fast_cfg, "--b", str(b))
        assert code == 0
        a_bf = float(kv(out)["a_bf_a0"])
        assert a_bf == pytest.approx(638.84, rel=1e-3)

    def test_unconverged_exits_3_but_saves(self, capsys, tmp_path):
        cfg = tmp_path / "slow.cfg"
        cfg.write_text(
            "[grid]\nn_rho = 32\nn_z = 64\n[solver]\nmax_iter = 3\n",
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

    def test_collapsed_tf_mixture_exits_3_and_saves_nothing(self, capsys, tmp_path, fast_cfg):
        out_dir = tmp_path / "gs"
        code, out, err = run(
            capsys, "solve", "--mode", "tf", "--config", fast_cfg,
            "--abf", "-600", "--out", str(out_dir)
        )
        assert code == 3
        assert "Thomas-Fermi mixture collapses" in err
        assert out == "" and not out_dir.exists()

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[mixture]\nn_atoms = 5\n", encoding="utf-8")
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "n_atoms" in err
        # values the config parses but the scenario or its TF profile rejects
        for text, why in (
            ("[mixture]\nn_bosons = -1\n", "need n_bosons >= 0 and n_fermions >= 1"),
            ("[mixture]\nalpha = 0\n", "alpha must be positive"),
            ("[bosons]\na_bb_a0 = 0\n", "TF condensate needs a repulsive a_intra"),
            ("[grid]\nn_rho = 32\nn_rho = 48\n",
             "option 'n_rho' in section 'grid' already exists"),
        ):
            cfg.write_text(text, encoding="utf-8")
            for command in (["solve", "--mode", "tf"], ["criterion"]):
                code, out, err = run(capsys, *command, "--config", str(cfg))
                assert (code, out) == (2, "")
                assert why in err
        # with the density given, the criterion needs no TF profile
        cfg.write_text("[bosons]\na_bb_a0 = 0\n", encoding="utf-8")
        code, out, err = run(capsys, "criterion", "--config", str(cfg), "--nf-peak", "1e12")
        assert (code, out) == (2, "")
        assert "a_bb must be positive" in err

    @pytest.mark.parametrize("text, argv, code, names", EXTREME_INPUTS,
                             ids=[" ".join([*argv, text.replace("\n", " ")]).strip()
                                  for text, argv, _, _ in EXTREME_INPUTS])
    def test_extreme_finite_input(self, capsys, tmp_path, text, argv, code, names):
        # each of these once ended in a traceback (exit 1)
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("[grid]\nn_rho = 16\nn_z = 32\n" + text, encoding="utf-8")
        got, out, err = run(capsys, *argv, "--config", str(cfg))
        assert got == code
        assert names in (out if code == 0 else err)
        assert "Traceback" not in err

    def test_non_finite_config_number_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("[grid]\nn_rho = 32\nbox_factor = nan\n", encoding="utf-8")
        code, _, err = run(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert code == 2
        assert "[grid] box_factor on line 3" in err
        assert not (tmp_path / "run").exists()

    def test_odd_n_z_exits_2(self, capsys, tmp_path):
        # rejected by the config, not later by the grid, so the line is named,
        # in any case the key is written in
        cfg = tmp_path / "odd.cfg"
        for key in ("n_z", "N_Z"):
            cfg.write_text(f"[grid]\nn_rho = 32\n{key} = 63\n", encoding="utf-8")
            code, _, err = run(capsys, "solve", "--config", str(cfg),
                               "--out", str(tmp_path / "gs"))
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

    def test_negative_noise_reject_exits_2(self, capsys, tmp_path):
        # bad input, not a numerical failure (exit 3)
        y = (np.arange(80) - 39.5) * 0.5e-6
        src = tmp_path / "slice.csv"
        write_profile_csv(src, y, np.exp(-(y**2) / (4e-6) ** 2), "y[um]")
        out_csv = tmp_path / "rec.csv"
        code, _, err = run(
            capsys, "abel", "inverse", "--in", str(src), "--out", str(out_csv),
            "--noise-reject", "-1",
        )
        assert code == 2
        assert "noise_reject" in err
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
        # a profile needs its values beside its positions
        src = tmp_path / "one.csv"
        write_table(src, ["rho[um]"], [[0.5], [1.0], [1.5]])
        code, _, err = run(capsys, "abel", "forward", "--in", str(src),
                           "--out", str(tmp_path / "o.csv"))
        assert code == 2
        assert "need two columns (x[um], value)" in err
        assert not (tmp_path / "o.csv").exists()


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

    def test_fit_gamma_missing_column_exits_2(self, capsys, tmp_path):
        p = tmp_path / "decay.csv"
        write_table(p, ["t[s]", "X"], [[0.0, 1.0e5], [1.0, 0.9e5], [2.0, 0.8e5]])
        code, out, err = run(capsys, "fit-gamma", "--in", str(p))
        assert (code, out) == (2, "")
        assert "missing column 'N'" in err

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
        out_json = tmp_path / "fit.json"
        code, out, _ = run(
            capsys,
            "fit-l3",
            "--in",
            str(p),
            "--temperature-nk",
            str(temp_nk),
            "--nf-peak",
            str(nf_cm3),
            "--out",
            str(out_json),
        )
        assert code == 0
        assert float(kv(out)["L3[cm^6/s]"]) == pytest.approx(1.0e-25, rel=1e-4, abs=0.0)
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload["L3[cm^6/s]"] == pytest.approx(float(kv(out)["L3[cm^6/s]"]),
                                                      rel=1e-11, abs=0.0)
        assert (payload["temperature_nk"], payload["n_f_peak[cm^-3]"]) == (temp_nk, nf_cm3)
        assert payload["overlap_factor"] == 1.0

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
        assert data[mid, 1] == pytest.approx(expect, rel=1e-6, abs=0.0)

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

    @pytest.mark.parametrize("span", ["5", "0", "-1"])
    def test_smooth_l3_span_out_of_range_exits_2(self, capsys, tmp_path, span):
        a = np.geomspace(100.0, 2000.0, 7)
        src = tmp_path / "points.csv"
        write_table(
            src, ["a_bf[a0]", "L3[cm^6/s]"], np.column_stack([a, 1e-25 * a / 1000.0]).tolist()
        )
        code, _, err = run(
            capsys, "smooth-l3", "--in", str(src), "--out", str(tmp_path / "c.csv"),
            "--span", span,
        )
        assert code == 2
        assert "span" in err
        assert not (tmp_path / "c.csv").exists()

    def test_smooth_l3_nan_cell_exits_2(self, capsys, tmp_path):
        # a CSV cell reading nan once ended in "data too sparse"
        a = np.geomspace(100.0, 2000.0, 7)
        l3 = 1e-25 * a / 1000.0
        l3[2] = math.nan
        src = tmp_path / "points.csv"
        write_table(src, ["a_bf[a0]", "L3[cm^6/s]"], np.column_stack([a, l3]).tolist())
        code, _, err = run(capsys, "smooth-l3", "--in", str(src), "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert "L3 values must be finite" in err
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


@pytest.mark.parametrize("argv", [
    ["smooth-l3", "--in", "{tmp}/points.csv", "--out", "{tmp}/out", "--seed", "-1"],
    ["fig", "fig1b", "--ground-state", "{tmp}/gs", "--out", "{tmp}/out", "--seed", "-1"],
], ids=["smooth-l3", "fig1b"])
def test_negative_seed_exits_2(capsys, tmp_path, fast_cfg, argv):
    # on valid inputs, numpy's generator once raised its own ValueError: exit 1
    a = np.geomspace(100.0, 2000.0, 7)
    write_table(tmp_path / "points.csv", ["a_bf[a0]", "L3[cm^6/s]"],
                np.column_stack([a, 1e-25 * a / 1000.0]).tolist())
    if argv[0] == "fig":
        assert run(capsys, "solve", "--mode", "tf", "--config", fast_cfg,
                   "--out", str(tmp_path / "gs"))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    assert "argument --seed: not a non-negative integer: '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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

        # a collapsed tf mixture is recorded as the point's error
        monkeypatch.setattr(pipeline, "minimize", solve)
        cfg.write_text(FAST_CFG + "[sweep]\na_bf_list_a0 = -600, 100\n", encoding="utf-8")
        code, out, err = run(capsys, *argv)
        assert code == 3
        points = verify_manifest(kv(out)["manifest"])["points"]
        assert [p["error"] is None for p in points] == [False, True]
        assert points[0]["error"].startswith("ThomasFermiCollapse: at a_bf = -600 a0")
        assert "[tf] a_bf = -600 a0: ThomasFermiCollapse" in err

        # a point that hits max_iter fails the run the same way; a tf-mode
        # solve takes no iterations, so this one runs in full mode
        cfg.write_text(
            FAST_CFG + "[solver]\nmax_iter = 3\n[sweep]\na_bf_list_a0 = 100\n", encoding="utf-8"
        )
        argv[argv.index("tf")] = "full"
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "[full] a_bf = 100 a0: hit max_iter before converging" in err

    @pytest.mark.parametrize("mode", ["both", "full", "tf"])
    def test_boson_free_sweep_exits_2_before_solving(self, capsys, tmp_path, monkeypatch, mode):
        # a mixture with no bosons has no loss rate to report: every sweep
        # product stops on it before its first solve, where it once ended in
        # a ZeroDivisionError traceback (exit 1)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            FAST_CFG + "[mixture]\nn_bosons = 0\n[sweep]\na_bf_list_a0 = 100, 800\n",
            encoding="utf-8",
        )

        def no_solve(*args, **kwargs):
            raise AssertionError("the sweep solved a point")

        monkeypatch.setattr(pipeline, "minimize", no_solve)
        out_dir = tmp_path / "run"
        code, _, err = run(
            capsys, "sweep", "--config", str(cfg), "--mode", mode, "--out", str(out_dir), "--quiet"
        )
        assert code == 2
        assert "n_bosons" in err
        assert not out_dir.exists()

    def test_boson_free_overlap_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "nob.cfg"
        cfg.write_text(FAST_CFG + "[mixture]\nn_bosons = 0\n", encoding="utf-8")
        gs_dir = tmp_path / "gs"
        assert run(capsys, "solve", "--mode", "tf", "--config", str(cfg),
                   "--out", str(gs_dir))[0] == 0
        code, _, err = run(capsys, "overlap", "--ground-state", str(gs_dir))
        assert code == 2
        assert "n_bosons" in err

    def test_fig1b_negative_noise_exits_2(self, capsys, tmp_path, fast_cfg):
        gs_dir = tmp_path / "gs"
        assert run(capsys, "solve", "--mode", "tf", "--config", fast_cfg,
                   "--out", str(gs_dir))[0] == 0
        code, _, err = run(
            capsys, "fig", "fig1b", "--ground-state", str(gs_dir),
            "--out", str(tmp_path / "f1b"), "--noise", "-0.5",
        )
        assert code == 2
        assert "noise" in err
        assert not (tmp_path / "f1b").exists()

    def test_overlap_report(self, capsys, tmp_path, fast_cfg):
        gs_dir = tmp_path / "gs"
        run(capsys, "solve", "--mode", "tf", "--config", fast_cfg,
            "--abf", "300", "--out", str(gs_dir))
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
        assert payload["L3[cm^6/s]"] == pytest.approx(1e-25, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "damage",
        ["non_numeric_cell", "nan_cell", "negative_cell", "short_row", "bad_header",
         "missing_key", "truncated_meta", "text_for_number", "breakdown_list", "top_level_list"],
    )
    def test_damaged_ground_state_exits_2(self, capsys, tmp_path, fast_cfg, damage):
        gs_dir = tmp_path / "gs"
        run(capsys, "solve", "--mode", "tf", "--config", fast_cfg,
            "--abf", "300", "--out", str(gs_dir))
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
        with pytest.raises(SystemExit) as exc:
            main(["fig", "fig3", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--in" in capsys.readouterr().err

    def test_fig3_unreadable_table_leaves_no_directory(self, capsys, tmp_path):
        src = tmp_path / "sweep.csv"
        src.write_text("# critical_a_bf_a0 = 600\n", encoding="utf-8")
        out_dir = tmp_path / "f3"
        code, _, err = run(capsys, "fig", "fig3", "--in", str(src), "--out", str(out_dir))
        assert code == 2 and "no header row" in err
        assert not out_dir.exists()

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

    def test_fig2a_writes_the_measured_points(self, capsys, tmp_path):
        # The curve CSV carries the points it was smoothed from, so fig2a from
        # the CLI writes the tables the library writes from the curve itself.
        a = np.geomspace(100.0, 2000.0, 7)
        l3_cm6 = 1e-25 * a / 1000.0
        src = tmp_path / "points.csv"
        write_table(src, ["a_bf[a0]", "L3[cm^6/s]"], np.column_stack([a, l3_cm6]).tolist())
        curve = tmp_path / "curve.csv"
        assert run(capsys, "smooth-l3", "--in", str(src), "--out", str(curve),
                   "--boot", "20")[0] == 0
        assert run(capsys, "fig", "fig2a", "--in", str(curve),
                   "--out", str(tmp_path / "cli"))[0] == 0
        a0, l3, _ = pipeline.read_l3_points_csv(src)
        pipeline.emit_plot_data("fig2a", tmp_path / "lib",
                                smoothed=smooth_l3(a0, l3, n_boot=20, seed=42))
        for name in ("fig2a_curve.csv", "fig2a_points.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()
        _, _, points = read_table(tmp_path / "cli" / "fig2a_points.csv")
        np.testing.assert_allclose(points, np.column_stack([a, l3_cm6]), rtol=1e-11)

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
        run(capsys, "solve", "--mode", "tf", "--config", fast_cfg,
            "--abf", "800", "--out", str(gs_dir))
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

    @pytest.mark.parametrize("option, value", [
        ("--alpha", "0"), ("--alpha", "-1"), ("--alpha", "1e308"), ("--l3", "0"), ("--l3", "-1"),
    ])
    def test_overlap_loss_parameter_out_of_range_exits_2(self, capsys, tmp_path, fast_cfg,
                                                         option, value):
        # --alpha 0 once reported Omega_eff = 1 and --alpha 1e308 a nan; the
        # negative values and --l3 0 exited 3, a numerical failure
        gs_dir = tmp_path / "gs"
        assert run(capsys, "solve", "--mode", "tf", "--config", fast_cfg,
                   "--out", str(gs_dir))[0] == 0
        report = tmp_path / "report.json"
        code, out, err = run(
            capsys, "overlap", "--ground-state", str(gs_dir), option, value, "--out", str(report)
        )
        assert code == 2
        assert "must be positive and finite" in err or "is not finite" in err
        assert out == "" and not report.exists()

    def test_sweep_names_a_failed_point_in_its_progress(self, capsys, tmp_path):
        # twice the fermions on 24x48: 300 a0 solves, and at 500 a0 no side
        # assignment of the kink search settles
        cfg = tmp_path / "nf2.cfg"
        cfg.write_text(
            "[grid]\nn_rho = 24\nn_z = 48\n[mixture]\nn_fermions = 280000\n"
            "[sweep]\na_bf_list_a0 = 300, 500\n",
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "sweep", "--config", str(cfg), "--mode", "tf", "--out", str(tmp_path / "run")
        )
        assert code == 3
        assert "[tf] point 1: a_bf = 300 a0, converged in 0 steps\n" in err
        assert "[tf] point 2: a_bf = 500 a0, FAILED\n" in err
        assert "[tf] a_bf = 500 a0: NumericsError: " in err


# Options that a command parsed and then dropped: fig1b reads no --in, the
# table kinds no --ground-state, --noise or --seed, and abel forward none of
# the inverse's options. Each exited 0 having ignored it, as did solve with
# both --abf and --b, where --b was dropped.
IGNORED_OPTIONS = [
    ["abel", "forward", "--in", "{radial}", "--out", "{out}", "--method", "onion"],
    ["abel", "forward", "--in", "{radial}", "--out", "{out}", "--center", "0"],
    ["abel", "forward", "--in", "{radial}", "--out", "{out}", "--noise-reject", "-5"],
    ["fig", "fig1b", "--ground-state", "{gs}", "--out", "{out}", "--in", "{radial}"],
    *(
        ["fig", kind, "--in", f"{{{kind}}}", "--out", "{out}", option, value]
        for kind in ("fig2a", "fig2b", "fig3")
        for option, value in (("--ground-state", "{tmp}/absent"), ("--noise", "5"),
                              ("--seed", "3"))
    ),
    ["solve", "--config", "{cfg}", "--out", "{out}", "--abf", "300", "--b", "335.5"],
]


@pytest.mark.parametrize(
    "argv", IGNORED_OPTIONS,
    ids=lambda argv: " ".join([a for a in argv[:2] if not a.startswith("-")] + argv[-2:-1]),
)
def test_option_the_command_does_not_read_exits_2(capsys, tmp_path, fast_cfg, argv):
    rho = (np.arange(40) + 0.5) * 0.25e-6
    paths = {"tmp": tmp_path, "cfg": fast_cfg, "out": tmp_path / "out",
             "radial": tmp_path / "radial.csv", "gs": tmp_path / "gs",
             "fig2a": tmp_path / "curve.csv", "fig2b": tmp_path / "gamma.csv",
             "fig3": tmp_path / "sweep.csv"}
    write_profile_csv(paths["radial"], rho, np.exp(-((rho / 4.0e-6) ** 2)), "rho[um]")
    a = np.geomspace(100.0, 2000.0, 7)
    write_table(tmp_path / "points.csv", ["a_bf[a0]", "L3[cm^6/s]"],
                np.column_stack([a, 1e-25 * a / 1000.0]).tolist())
    assert run(capsys, "smooth-l3", "--in", str(tmp_path / "points.csv"),
               "--out", str(paths["fig2a"]), "--boot", "20")[0] == 0
    write_table(paths["fig2b"], ["a_bf[a0]", "gamma[1/s]"], [[300.0, 0.2], [100.0, 0.1]])
    write_table(paths["fig3"], ["a_bf[a0]", "omega_eff_full", "omega_eff_tf", "omega_zero_T"],
                [[100.0, 0.9, 0.8, 0.85]])
    if argv[1] == "fig1b":
        assert run(capsys, "solve", "--mode", "tf", "--config", fast_cfg,
                   "--out", str(paths["gs"]))[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "not allowed with argument --abf" in err
    assert not paths["out"].exists()
