"""On-disk formats, manifests, sweep orchestration, plot-data emitters."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mixsep.config import default_scenario, parse_config
from mixsep.constants import A_BOHR
from mixsep import pipeline
from mixsep.errors import (
    MissingInput,
    NonDecayingWarning,
    OutputError,
    ParseError,
    StepUnstable,
    ValidationError,
)
from mixsep.grid import DensityField
from mixsep.lossfit import smooth_l3
from mixsep.overlap import omega_eff_from_ground_state, reference_fields
from mixsep.pipeline import (
    RunManifest,
    atomic_write_text,
    emit_plot_data,
    load_ground_state,
    read_decay_csv,
    read_density_field,
    read_l3_points_csv,
    read_profile_csv,
    read_smoothed_csv,
    read_table,
    run_figure3_pipeline,
    run_overlap_sweep,
    save_ground_state,
    sha256_text,
    verify_manifest,
    write_density_field,
    write_profile_csv,
    write_smoothed_csv,
    write_table,
)
from mixsep.profiles import fra_peak_quantities, grid_for_scenario
from mixsep.solver import SolverOptions, minimize

SC = default_scenario()

# Ways a hand-edited file may differ from what the writers emit.
LAYOUTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank_lines": lambda text: "\n" + text.replace("\n", "\n\n"),
    "bare_comments": lambda text: "#\n" + text.replace("\n", "\n#\n"),
}


def _relayout(path, layout: str) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_bytes(LAYOUTS[layout](text).encode("utf-8"))


@pytest.fixture(scope="module")
def grid32():
    return grid_for_scenario(SC, 32, 64)


@pytest.fixture(scope="module")
def gs_tf(grid32):
    return minimize(SC, grid32, SolverOptions(mode="tf"))


@pytest.fixture(scope="module")
def gs_sep(grid32):
    return minimize(SC.with_a_bf(800.0 * A_BOHR), grid32, SolverOptions(mode="tf"))


class TestTableIO:
    def test_round_trip_with_meta(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [[1.0, 2.5e-7], [3.0, None]]
        write_table(p, ["x[um]", "y[nK]"], rows, meta={"label": "abc", "gain": 2.5})
        meta, header, data = read_table(p)
        assert meta == {"label": "abc", "gain": "2.5"}
        assert header == ["x[um]", "y[nK]"]
        assert data.shape == (2, 2)
        assert data[0, 1] == 2.5e-7
        assert np.isnan(data[1, 1])

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_round_trip_any_layout(self, tmp_path, layout):
        p = tmp_path / "t.csv"
        write_table(p, ["x[um]", "y[nK]"], [[1.0, 2.5e-7], [3.0, None]], meta={"label": "abc"})
        want_meta, want_header, want = read_table(p)
        _relayout(p, layout)
        meta, header, data = read_table(p)
        assert meta == want_meta and header == want_header
        np.testing.assert_array_equal(data, want)
        # a bad cell is still reported at its line in the edited file
        p.write_bytes(p.read_bytes().replace(b"2.5e-07", b"oops"))
        lines = p.read_text(encoding="utf-8").splitlines()
        with pytest.raises(ParseError) as exc:
            read_table(p)
        assert exc.value.line == next(i for i, ln in enumerate(lines, 1) if "oops" in ln)

    def test_full_precision(self, tmp_path):
        p = tmp_path / "t.csv"
        val = 0.1234567890123
        write_table(p, ["v"], [[val]])
        _, _, data = read_table(p)
        assert data[0, 0] == pytest.approx(val, rel=1e-12)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInput):
            read_table(tmp_path / "absent.csv")

    def test_bad_number_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,oops\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_table(p)
        assert exc.value.line == 3

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4,5\n6,7\n", encoding="utf-8")
        with pytest.raises(ParseError, match="row width") as exc:
            read_table(p)
        assert exc.value.line == 3

    def test_header_required(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# only = meta\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header"):
            read_table(p)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        p = atomic_write_text(tmp_path / "out.txt", "body\n")
        assert p.read_text(encoding="utf-8") == "body\n"
        assert list(tmp_path.iterdir()) == [p]


class TestDensityFieldIO:
    def test_round_trip(self, tmp_path, grid32, gs_tf):
        p = tmp_path / "n_b.csv"
        write_density_field(gs_tf.n_b, p)
        back = read_density_field(p)
        # spacings survive the 12-significant-digit file format
        assert back.grid.n_rho == grid32.n_rho and back.grid.n_z == grid32.n_z
        assert back.grid.d_rho == pytest.approx(grid32.d_rho, rel=1e-11)
        assert back.grid.d_z == pytest.approx(grid32.d_z, rel=1e-11)
        assert back.species == gs_tf.n_b.species
        np.testing.assert_allclose(back.values, gs_tf.n_b.values, rtol=1e-11, atol=1e-3)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_round_trip_any_layout(self, tmp_path, gs_tf, layout):
        p = tmp_path / "n_b.csv"
        write_density_field(gs_tf.n_b, p)
        want = read_density_field(p)
        _relayout(p, layout)
        back = read_density_field(p)
        assert (back.grid.n_rho, back.grid.n_z, back.grid.d_rho, back.grid.d_z) == (
            want.grid.n_rho, want.grid.n_z, want.grid.d_rho, want.grid.d_z
        )
        assert back.species == want.species
        np.testing.assert_array_equal(back.values, want.values)

    def test_shape_mismatch(self, tmp_path, gs_tf):
        p = tmp_path / "n.csv"
        write_density_field(gs_tf.n_b, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="header says"):
            read_density_field(p)

    def test_missing_header_field(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("# n_rho = 2\n1,2\n3,4\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_density_field(p)


class TestGroundStateIO:
    def test_round_trip(self, tmp_path, gs_tf):
        d = save_ground_state(gs_tf, tmp_path / "gs")
        assert (d / "meta.json").exists()
        back = load_ground_state(d)
        assert back.mode == gs_tf.mode
        assert back.converged == gs_tf.converged
        assert back.iterations == gs_tf.iterations
        assert back.scenario.n_bosons == gs_tf.scenario.n_bosons
        assert back.scenario.a_bf == pytest.approx(gs_tf.scenario.a_bf, abs=1e-15)
        assert back.mu_b == pytest.approx(gs_tf.mu_b, rel=1e-9)
        assert back.energy == pytest.approx(gs_tf.energy, rel=1e-9)
        np.testing.assert_allclose(back.n_f.values, gs_tf.n_f.values, rtol=1e-11, atol=1e-3)
        assert back.residual == gs_tf.residual
        # iteration history is not persisted
        assert back.energy_history.size == 0

    def test_missing_residual_reads_nan(self, tmp_path, gs_tf):
        d = save_ground_state(gs_tf, tmp_path / "gs")
        meta = json.loads((d / "meta.json").read_text(encoding="utf-8"))
        del meta["results"]["residual_b"], meta["results"]["residual_f"]
        (d / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        back = load_ground_state(d)
        assert all(math.isnan(r) for r in back.residual)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(MissingInput):
            load_ground_state(tmp_path / "nowhere")


class TestManifest:
    def build(self, tmp_path):
        f1 = atomic_write_text(tmp_path / "a.csv", "x\n1\n")
        f2 = atomic_write_text(tmp_path / "b.csv", "y\n2\n")
        man = RunManifest(config_sha256=sha256_text("cfg"))
        man.add_file(tmp_path, f1, "table")
        man.add_file(tmp_path, f2, "table")
        return man.write(tmp_path / "manifest.json")

    def test_verify_ok(self, tmp_path):
        mp = self.build(tmp_path)
        payload = verify_manifest(mp)
        assert len(payload["files"]) == 2
        assert payload["config_sha256"] == sha256_text("cfg")

    def test_tampered_file(self, tmp_path):
        mp = self.build(tmp_path)
        (tmp_path / "a.csv").write_text("x\n999\n", encoding="utf-8")
        with pytest.raises(OutputError, match="hash mismatch"):
            verify_manifest(mp)

    def test_deleted_file(self, tmp_path):
        mp = self.build(tmp_path)
        (tmp_path / "b.csv").unlink()
        with pytest.raises(OutputError, match="missing"):
            verify_manifest(mp)

    def test_absent_manifest(self, tmp_path):
        with pytest.raises(MissingInput):
            verify_manifest(tmp_path / "manifest.json")

    def test_truncated_manifest(self, tmp_path):
        mp = self.build(tmp_path)
        mp.write_bytes(mp.read_bytes()[:100])
        with pytest.raises(ParseError, match="manifest.json"):
            verify_manifest(mp)

    @pytest.mark.parametrize("key", ["path", "sha256"])
    def test_file_entry_without_key(self, tmp_path, key):
        mp = self.build(tmp_path)
        payload = json.loads(mp.read_text(encoding="utf-8"))
        del payload["files"][1][key]
        mp.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParseError, match=f"missing key '{key}'"):
            verify_manifest(mp)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda payload: [payload], "the top level must be a JSON object"),
            (lambda payload: {**payload, "files": {"a.csv": "0" * 64}}, "files must be a list"),
            (lambda payload: {**payload, "files": ["a.csv"]}, "'a.csv' is not an object"),
            (lambda payload: {**payload, "files": [{"path": 3, "sha256": "0"}]},
             "needs string values"),
        ],
        ids=["top_level_list", "files_not_a_list", "entry_not_an_object", "entry_not_strings"],
    )
    def test_wrongly_typed_manifest(self, tmp_path, damage, message):
        mp = self.build(tmp_path)
        payload = json.loads(mp.read_text(encoding="utf-8"))
        mp.write_text(json.dumps(damage(payload)), encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            verify_manifest(mp)


class TestPointFiles:
    def test_decay_csv(self, tmp_path):
        p = tmp_path / "decay.csv"
        write_table(
            p,
            ["t[s]", "N", "sigma_N"],
            [[0.0, 1e5, 500.0], [1.0, 9e4, 450.0], [2.0, 8e4, 400.0]],
        )
        series = read_decay_csv(p)
        np.testing.assert_array_equal(series.times, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(series.numbers, [1e5, 9e4, 8e4])
        np.testing.assert_array_equal(series.sigma, [500.0, 450.0, 400.0])

    def test_decay_csv_sigma_optional(self, tmp_path):
        p = tmp_path / "decay.csv"
        write_table(p, ["t[s]", "N"], [[0.0, 1e5], [1.0, 9e4], [2.0, 8e4]])
        assert read_decay_csv(p).sigma is None

    def test_l3_points_csv_converts_units(self, tmp_path):
        p = tmp_path / "l3.csv"
        write_table(
            p,
            ["a_bf[a0]", "L3[cm^6/s]", "sigma[cm^6/s]"],
            [[100.0, 1e-26, 1e-27], [300.0, 5e-26, 5e-27]],
        )
        a0, l3, sigma = read_l3_points_csv(p)
        np.testing.assert_array_equal(a0, [100.0, 300.0])
        np.testing.assert_allclose(l3, [1e-38, 5e-38], rtol=1e-12)
        np.testing.assert_allclose(sigma, [1e-39, 5e-39], rtol=1e-12)

    def test_smoothed_round_trip(self, tmp_path):
        a = np.geomspace(100.0, 2000.0, 9)
        curve = smooth_l3(a, 1e-25 * (a / 1000.0) ** 2, n_boot=30, seed=4)
        p = write_smoothed_csv(curve, tmp_path / "smooth.csv")
        back = read_smoothed_csv(p)
        np.testing.assert_allclose(back.a_bf_a0, curve.a_bf_a0, rtol=1e-11)
        np.testing.assert_allclose(back.l3, curve.l3, rtol=1e-11)
        np.testing.assert_allclose(back.band_hi, curve.band_hi, rtol=1e-11)
        assert back.span == curve.span
        assert back.n_boot == curve.n_boot
        assert back.seed == curve.seed

    @pytest.mark.parametrize(
        "key, text", [("n_boot", "many"), ("seed", "nan"), ("span", "wide"), ("n_boot", "inf")]
    )
    def test_smoothed_bad_metadata_names_key(self, tmp_path, key, text):
        a = np.geomspace(100.0, 2000.0, 9)
        curve = smooth_l3(a, 1e-25 * (a / 1000.0) ** 2, n_boot=30, seed=4)
        p = write_smoothed_csv(curve, tmp_path / "smooth.csv")
        lines = p.read_text(encoding="utf-8").splitlines(keepends=True)
        p.write_text(
            "".join(f"# {key} = {text}\n" if ln.startswith(f"# {key} =") else ln for ln in lines),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=f"smooth.csv: metadata {key} = '{text}'"):
            read_smoothed_csv(p)

    def test_profile_round_trip(self, tmp_path):
        x = np.linspace(0.0, 20e-6, 11)
        v = np.cos(x * 1e5)
        p = write_profile_csv(tmp_path / "prof.csv", x, v, "rho[um]")
        x2, v2 = read_profile_csv(p)
        np.testing.assert_allclose(x2, x, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(v2, v, rtol=1e-11)


class TestPlotData:
    def test_unknown_kind(self, tmp_path):
        out = tmp_path / "plots"
        with pytest.raises(ValidationError, match="unknown plot kind"):
            emit_plot_data("fig9", out)
        assert not out.exists()

    def test_fig1b_requires_ground_state(self, tmp_path):
        with pytest.raises(MissingInput):
            emit_plot_data("fig1b", tmp_path)

    @pytest.mark.parametrize(
        "kind, required",
        [("fig1b", "ground_state"), ("fig2a", "smoothed"),
         ("fig2b", "gamma_records"), ("fig3", "pipeline_csv")],
    )
    def test_each_kind_requires_its_input(self, tmp_path, kind, required):
        out = tmp_path / "plots"
        with pytest.raises(MissingInput, match=f"{kind} needs {required}"):
            emit_plot_data(kind, out)
        assert not out.exists()

    def test_fig2b_rejects_empty_records(self, tmp_path):
        with pytest.raises(MissingInput, match="fig2b needs gamma_records"):
            emit_plot_data("fig2b", tmp_path, gamma_records=[])

    def test_input_the_writer_does_not_take(self, tmp_path, gs_sep):
        with pytest.raises(TypeError, match="nosie"):
            emit_plot_data("fig1b", tmp_path, ground_state=gs_sep, nosie=0.1)

    def test_fig1b_warns_on_a_profile_that_has_not_decayed(self, tmp_path, gs_sep):
        # a Fermi sea that fills the box to its edge has not decayed there,
        # with noise or without
        flat = DensityField(gs_sep.grid, np.full(gs_sep.n_f.values.shape, 1.0e18), "fermions")
        gs = replace(gs_sep, n_f=flat)
        for noise in (0.0, 0.02):
            with pytest.warns(NonDecayingWarning, match="has not decayed at the outer edge"):
                emit_plot_data("fig1b", tmp_path, ground_state=gs, noise=noise)

    @pytest.mark.filterwarnings("ignore::mixsep.errors.NonDecayingWarning")
    def test_fig1b_outputs(self, tmp_path, gs_sep):
        paths = emit_plot_data("fig1b", tmp_path, ground_state=gs_sep, noise=0.005, seed=3)
        assert [p.name for p in paths] == ["fig1b_column.csv", "fig1b_radial.csv"]
        meta, header, col = read_table(paths[0])
        assert header[0] == "y[um]"
        assert meta["species"] == gs_sep.n_f.species
        assert np.max(col[:, 1]) == pytest.approx(1.0)
        # noisy column differs from the true one but stays near it
        assert 1e-4 < np.max(np.abs(col[:, 2] - col[:, 1])) < 0.2
        _, header2, rad = read_table(paths[1])
        assert header2 == ["rho[um]", "n_f_true_norm", "n_f_recon_norm"]
        # reconstruction should track the true profile once clear of the
        # hole rim, where the sharp edge makes any inversion ring
        mask = rad[:, 0] > 4.5
        err = np.max(np.abs(rad[mask, 2] - rad[mask, 1]))
        assert err < 0.15
        # the separated state is depleted on the axis and the
        # reconstruction must show it
        assert rad[0, 1] < 0.05
        assert rad[0, 2] < 0.3

    def test_fig2a(self, tmp_path):
        a = np.geomspace(100.0, 2000.0, 8)
        curve = smooth_l3(a, 1e-25 * (a / 1000.0) ** 1.5, n_boot=25)
        paths = emit_plot_data("fig2a", tmp_path, smoothed=curve)
        names = {p.name for p in paths}
        assert names == {"fig2a_curve.csv", "fig2a_points.csv"}
        _, _, pts = read_table(tmp_path / "fig2a_points.csv")
        assert pts.shape == (8, 2)

    def test_fig2b_sorts(self, tmp_path):
        recs = [
            {"a_bf_a0": 300.0, "gamma": 0.2, "gamma_stderr": 0.01},
            {"a_bf_a0": 100.0, "gamma": 0.1},
        ]
        (path,) = emit_plot_data("fig2b", tmp_path, gamma_records=recs)
        _, _, data = read_table(path)
        np.testing.assert_array_equal(data[:, 0], [100.0, 300.0])
        assert data[1, 2] == 0.01

    def test_fig3_reorders(self, tmp_path):
        src = write_table(
            tmp_path / "sweep.csv",
            ["a_bf[a0]", "omega_eff_full", "omega_eff_tf", "omega_zero_T"],
            [[300.0, 0.5, 0.4, 0.45], [100.0, 0.9, 0.8, 0.85]],
            meta={"critical_a_bf_a0": 600.0, "l3_cm6_per_s": 1e-25},
        )
        (path,) = emit_plot_data("fig3", tmp_path, pipeline_csv=src)
        meta, header, data = read_table(path)
        assert header == ["a_bf[a0]", "omega_zero_T", "omega_eff_tf", "omega_eff_full"]
        np.testing.assert_array_equal(data[:, 0], [100.0, 300.0])
        assert data[0, 3] == 0.9
        assert meta == {"critical_a_bf_a0": "600"}


class TestSweepRuns:
    CFG_TEXT = """
[grid]
n_rho = 32
n_z = 64
[sweep]
a_bf_list_a0 = 100, 800
"""

    def test_figure3_pipeline(self, tmp_path):
        cfg = parse_config(self.CFG_TEXT)
        calls = []
        csv_path, man_path = run_figure3_pipeline(
            cfg, tmp_path, progress=lambda mode, i, a, gs: calls.append((mode, i))
        )
        meta, header, data = read_table(csv_path)
        assert header == ["a_bf[a0]", "omega_eff_full", "omega_eff_tf", "omega_zero_T"]
        np.testing.assert_allclose(data[:, 0], [100.0, 800.0])
        # both modes normalized to their own zero-interaction reference
        assert 0.5 < data[0, 1] < 1.0
        assert 0.5 < data[0, 2] < 1.0
        assert data[1, 1] < data[0, 1]
        assert float(meta["critical_a_bf_a0"]) == pytest.approx(607.0, rel=0.05)
        assert calls == [("full", 0), ("full", 1), ("tf", 0), ("tf", 1)]

        payload = verify_manifest(man_path)
        kinds = {f["kind"] for f in payload["files"]}
        assert kinds == {"sweep", "config"}
        roles = [p.get("role") for p in payload["points"]]
        assert roles.count("reference") == 2
        assert len(payload["points"]) == 6
        assert all(p["converged"] for p in payload["points"])
        assert all(p["residual_b"] >= 0.0 and p["residual_f"] > 0.0 for p in payload["points"])
        snap = tmp_path / "config_snapshot.cfg"
        assert payload["config_sha256"] == sha256_text(
            snap.read_text(encoding="utf-8")
        )

    def test_manifest_records_provenance(self, tmp_path):
        cfg = parse_config(self.CFG_TEXT + "[mixture]\nn_bosons = 29000\n")
        _, man_path = run_overlap_sweep(cfg, tmp_path, mode="tf")
        provenance = verify_manifest(man_path)["provenance"]
        assert provenance == cfg.provenance
        assert provenance["mixture.n_bosons"] == "file"
        assert provenance["mixture.n_fermions"] == "default"
        assert provenance["bosons.nu_rho_hz"] == "derived"

    def test_overlap_sweep_single_mode(self, tmp_path):
        cfg = parse_config(self.CFG_TEXT)
        csv_path, man_path = run_overlap_sweep(cfg, tmp_path, mode="tf")
        meta, header, data = read_table(csv_path)
        assert csv_path.name == "sweep_overlap_tf.csv"
        assert meta["mode"] == "tf"
        assert header[1] == "Omega"
        assert data.shape == (2, 10)
        assert data[1, 1] < data[0, 1]  # overlap falls with interaction
        assert np.all(data[:, 3] > 0.0)  # predicted rates positive
        verify_manifest(man_path)

    def test_overlap_sweep_columns_are_the_reports(self, tmp_path, monkeypatch):
        cfg = parse_config(self.CFG_TEXT)
        solve, states = pipeline.minimize, []

        def collect(*args, **kwargs):
            states.append(solve(*args, **kwargs))
            return states[-1]

        monkeypatch.setattr(pipeline, "minimize", collect)
        csv_path, _ = run_overlap_sweep(cfg, tmp_path, mode="full")
        _, header, data = read_table(csv_path)
        # header -> (OverlapReport field, factor from SI to the file's unit)
        columns = {
            "Omega": ("omega", 1.0),
            "Omega_eff": ("omega_eff", 1.0),
            "gamma_pred[1/s]": ("gamma_pred", 1.0),
            "I_bb[cm^-6]": ("i_bb", 1e-12),
            "I_bt[cm^-6]": ("i_bt", 1e-12),
            "I_tt[cm^-6]": ("i_tt_fra", 1e-12),
            "n_f_peak[cm^-3]": ("n_f_peak", 1e-6),
            "n_b_peak[cm^-3]": ("n_b_peak", 1e-6),
            "n_t_peak[cm^-3]": ("n_t_peak", 1e-6),
        }
        assert header == ["a_bf[a0]", *columns]
        assert len(states) == len(data) == 2
        grid = grid_for_scenario(cfg.scenario, cfg.n_rho, cfg.n_z, cfg.box_factor)
        reference = reference_fields(cfg.scenario, grid)
        peaks = fra_peak_quantities(cfg.scenario)
        for row, gs in zip(data, states):
            rep = omega_eff_from_ground_state(gs, l3=cfg.l3, reference=reference, peaks=peaks)
            want = [float(format(getattr(rep, name) * scale, ".12g"))
                    for name, scale in columns.values()]
            assert list(row[1:]) == want

    def test_failed_point_is_isolated(self, tmp_path, monkeypatch):
        cfg = parse_config(self.CFG_TEXT.replace("100, 800", "100, 400, 800"))
        solve = pipeline.minimize
        starts = []

        def flaky(scenario, grid, options, warm_start=None):
            starts.append(warm_start)
            if len(starts) == 2:
                raise StepUnstable("energy still rising")
            return solve(scenario, grid, options, warm_start=warm_start)

        monkeypatch.setattr(pipeline, "minimize", flaky)
        seen = []
        csv_path, man_path = run_overlap_sweep(
            cfg, tmp_path, mode="tf", progress=lambda mode, i, a, gs: seen.append((i, gs))
        )
        _, _, data = read_table(csv_path)
        np.testing.assert_allclose(data[:, 0], [100.0, 400.0, 800.0])
        assert np.all(np.isnan(data[1, 1:]))
        assert np.all(np.isfinite(data[[0, 2], 1:]))
        points = verify_manifest(man_path)["points"]
        assert points[1]["error"] == "StepUnstable: energy still rising"
        assert "converged" not in points[1]
        assert points[0]["error"] is None and points[2]["error"] is None
        # the point after the failure starts cold
        assert starts[0] is None and starts[1] is not None and starts[2] is None
        assert [i for i, _ in seen] == [0, 1, 2]
        assert seen[1][1] is None and seen[2][1] is not None
