"""Config parsing, defaults, provenance, and exact serialization."""

import importlib.resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsep.config import (
    SWEEP_DEFAULT_POINTS,
    SWEEP_DEFAULT_RANGE_A0,
    default_config,
    default_scenario,
    default_sweep_a0,
    load_config,
    parse_config,
    serialize_config,
)
from mixsep.constants import A_BOHR
from mixsep.errors import ParseError, ValidationError
from mixsep.physics import FeshbachResonance, scattering_length


def test_defaults_match_shipped_scenario():
    cfg = default_config()
    sc = cfg.scenario
    assert sc.n_bosons == 2.9e4
    assert sc.n_fermions == 1.4e5
    assert sc.condensate_fraction == 0.5
    assert sc.a_bf == 0.0
    assert sc.thermal_model == "gaussian"
    assert cfg.n_rho == 128 and cfg.n_z == 256
    assert cfg.solver.mode == "full"
    assert cfg.sweep_b_gauss is None
    assert cfg.l3 == pytest.approx(1.0e-25 * 1.0e-12, rel=1e-15)
    np.testing.assert_allclose(
        np.array(cfg.sweep_a_bf) / A_BOHR, default_sweep_a0(), rtol=1e-12
    )
    # the library's default mixture is the one the CLI and config files solve
    assert default_scenario() == sc
    assert cfg.resonance == FeshbachResonance(335.057, 0.949, 60.9 * A_BOHR)


def test_default_sweep_is_geometric():
    pts = default_sweep_a0()
    assert len(pts) == SWEEP_DEFAULT_POINTS
    assert pts[0] == SWEEP_DEFAULT_RANGE_A0[0]
    assert pts[-1] == SWEEP_DEFAULT_RANGE_A0[1]
    ratios = pts[1:] / pts[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_empty_text_equals_defaults():
    assert parse_config("") == default_config()


def test_provenance_tags():
    cfg = parse_config("[mixture]\nn_bosons = 1e4\n")
    assert cfg.provenance["mixture.n_bosons"] == "file"
    assert cfg.provenance["mixture.n_fermions"] == "default"
    # boson trap frequencies come from the fermion trap via the mass and
    # polarizability ratio unless the file pins them
    assert cfg.provenance["bosons.nu_rho_hz"] == "derived"
    cfg2 = parse_config("[bosons]\nnu_rho_hz = 150\n")
    assert cfg2.provenance["bosons.nu_rho_hz"] == "file"
    assert cfg2.provenance["bosons.nu_z_hz"] == "derived"


def test_serialize_round_trips_bit_exact():
    text = """
[mixture]
n_bosons = 31234.0
a_bf_a0 = 613.77
condensate_fraction = 0.41
[grid]
box_factor = 1.35
[solver]
seed = 7
[fits]
l3_cm6_per_s = 2.75e-26
"""
    cfg = parse_config(text)
    cfg2 = parse_config(serialize_config(cfg))
    assert cfg2 == cfg
    assert cfg2.raw == cfg.raw
    assert cfg2.sweep_a_bf == cfg.sweep_a_bf


def test_serialize_round_trips_field_list():
    cfg = parse_config("[sweep]\nb_list_gauss = 335.5, 335.7, 335.9\n")
    assert cfg.sweep_b_gauss == (335.5, 335.7, 335.9)
    expect = tuple(scattering_length(cfg.resonance, b) for b in cfg.sweep_b_gauss)
    assert cfg.sweep_a_bf == expect
    assert cfg.provenance["sweep.a_bf_list_a0"] == "derived"
    out = serialize_config(cfg)
    assert "b_list_gauss" in out
    assert "a_bf_list_a0" not in out
    assert parse_config(out) == cfg


def test_explicit_a_bf_list():
    cfg = parse_config("[sweep]\na_bf_list_a0 = 100 300 900\n")
    assert cfg.sweep_b_gauss is None
    np.testing.assert_allclose(
        np.array(cfg.sweep_a_bf), np.array([100.0, 300.0, 900.0]) * A_BOHR
    )


def test_both_sweep_lists_rejected():
    with pytest.raises(ValidationError, match="not both"):
        parse_config(
            "[sweep]\na_bf_list_a0 = 100 200\nb_list_gauss = 335.5 335.6\n"
        )


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match=r"\[lasers\]"):
        parse_config("[lasers]\npower = 5\n")


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="n_atoms"):
        parse_config("[mixture]\nn_atoms = 1e4\n")


def test_bad_value_reports_line():
    # in every key spelling configparser accepts: any case, "=" or ":"
    for line in ("n_rho = hello", "N_RHO = hello", "n_rho: hello"):
        with pytest.raises(ParseError) as exc:
            parse_config(f"[grid]\n{line}\n")
        assert exc.value.line == 2
        assert "n_rho on line 2" in str(exc.value)


def test_malformed_ini():
    with pytest.raises(ParseError):
        parse_config("key_without_section = 1\n")


def test_condensate_fraction_bounds():
    with pytest.raises(ValidationError, match="condensate_fraction"):
        parse_config("[mixture]\ncondensate_fraction = 1.2\n")


def test_grid_and_solver_validation():
    with pytest.raises(ValidationError, match="8 x 8"):
        parse_config("[grid]\nn_rho = 4\n")
    # the solver mirrors the z > 0 half onto z < 0, so n_z must be even
    with pytest.raises(ValidationError, match=r"\[grid\] n_z on line 3 must be even.*got 9"):
        parse_config("# run\n[grid]\nn_z = 9\n")
    with pytest.raises(ValidationError, match="box_factor"):
        parse_config("[grid]\nbox_factor = 0.9\n")
    with pytest.raises(ValidationError, match="mode"):
        parse_config("[solver]\nmode = exact\n")
    with pytest.raises(ValidationError, match="unknown key 'span'"):
        parse_config("[fits]\nspan = 1.5\n")
    with pytest.raises(ValidationError, match="l3"):
        parse_config("[fits]\nl3_cm6_per_s = 0\n")
    with pytest.raises(ValidationError, match="max_iter"):
        parse_config("[solver]\nmax_iter = -5\n")
    # the stop rule is fixed in the code, not a setting; the former energy
    # test's keys and the former warm-start noise's stay unknown
    for key, value in (("tol_energy", "1e-10"), ("consecutive", "10"), ("warm_noise", "0.01")):
        with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
            parse_config(f"[solver]\n{key} = {value}\n")


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("grid", "box_factor", "nan"),
        ("mixture", "n_bosons", "nan"),
        ("fermions", "nu_rho_hz", "inf"),
        ("fits", "l3_cm6_per_s", "nan"),
        ("sweep", "a_bf_list_a0", "100, nan"),
    ],
)
def test_non_finite_number_rejected(section, key, value):
    with pytest.raises(ParseError, match="not a finite number") as exc:
        parse_config(f"# run\n[{section}]\n{key} = {value}\n")
    assert exc.value.line == 3
    assert f"[{section}] {key} on line 3" in str(exc.value)


def test_inline_comments_stripped():
    cfg = parse_config("[mixture]\nn_bosons = 5e4  # bump for contrast\n")
    assert cfg.scenario.n_bosons == 5.0e4


def test_packaged_default_file_matches_defaults():
    res = importlib.resources.files("mixsep") / "data" / "default.cfg"
    cfg = parse_config(res.read_text(encoding="utf-8"))
    assert cfg == default_config()


def test_solver_seed_is_accepted_and_read_by_nothing():
    # sweeps no longer perturb their warm starts, so [solver] seed sets
    # nothing; it stays legal, and a snapshot carries it only when set
    cfg = parse_config("[solver]\nseed = 7\n")
    assert cfg == default_config()
    assert "seed = 7\n" in serialize_config(cfg)
    assert "seed" not in serialize_config(default_config())


def test_load_config_reads_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("[mixture]\na_bf_a0 = 444\n", encoding="utf-8")
    cfg = load_config(p)
    assert cfg.scenario.a_bf == pytest.approx(444 * A_BOHR)


def test_serialize_requires_raw_values():
    cfg = default_config()
    bare = type(cfg)(
        scenario=cfg.scenario,
        resonance=cfg.resonance,
        n_rho=cfg.n_rho,
        n_z=cfg.n_z,
        box_factor=cfg.box_factor,
        solver=cfg.solver,
        sweep_a_bf=cfg.sweep_a_bf,
        sweep_b_gauss=cfg.sweep_b_gauss,
        l3=cfg.l3,
    )
    with pytest.raises(ValidationError):
        serialize_config(bare)


def _maybe(strategy):
    return st.none() | strategy


def _positive(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def _config_text(draw):
    """INI text setting a random subset of the schema's keys to valid values."""
    sections = {
        "bosons": {
            "nu_rho_hz": draw(_maybe(_positive(1.0, 1e4))),
            "nu_z_hz": draw(_maybe(_positive(1.0, 1e4))),
            "a_bb_a0": draw(_maybe(_positive(1.0, 500.0))),
            "polarizability_factor": draw(_maybe(_positive(0.1, 10.0))),
        },
        "fermions": {
            "nu_rho_hz": draw(_maybe(_positive(1.0, 1e4))),
            "nu_z_hz": draw(_maybe(_positive(1.0, 1e4))),
        },
        "mixture": {
            "n_bosons": draw(_maybe(_positive(0.0, 1e7))),
            "n_fermions": draw(_maybe(_positive(1.0, 1e7))),
            "condensate_fraction": draw(_maybe(_positive(0.0, 1.0))),
            "a_bf_a0": draw(_maybe(_positive(-3000.0, 3000.0))),
            "alpha": draw(_maybe(_positive(0.01, 10.0))),
            "thermal_model": draw(_maybe(st.sampled_from(["gaussian", "semiclassical"]))),
        },
        "resonance": {
            "b0_gauss": draw(_maybe(_positive(1.0, 1000.0))),
            "delta_gauss": draw(_maybe(_positive(0.01, 10.0))),
            "a_bg_a0": draw(_maybe(_positive(-500.0, 500.0))),
        },
        "grid": {
            "n_rho": draw(_maybe(st.integers(8, 1024))),
            "n_z": draw(_maybe(st.integers(4, 1024).map(lambda k: 2 * k))),
            "box_factor": draw(_maybe(_positive(1.01, 5.0))),
        },
        "solver": {
            "mode": draw(_maybe(st.sampled_from(["full", "tf"]))),
            "max_iter": draw(_maybe(st.integers(1, 10**6))),
            "seed": draw(_maybe(st.integers(0, 2**32 - 1))),
        },
        "sweep": {},
        "fits": {"l3_cm6_per_s": draw(_maybe(_positive(1e-30, 1e-20)))},
    }
    points = st.lists(_positive(-3000.0, 3000.0), min_size=1, max_size=6)
    sweep = draw(st.sampled_from(["default", "a_bf_list_a0", "b_list_gauss"]))
    if sweep == "a_bf_list_a0":
        sections["sweep"][sweep] = draw(points)
    elif sweep == "b_list_gauss":
        # fields at least 1 mG off the pole at the drawn (or default) b0
        b0 = sections["resonance"]["b0_gauss"] or 335.057
        offset = _positive(-50.0, 50.0).filter(lambda x: abs(x) >= 1e-3)
        sections["sweep"][sweep] = [b0 + x for x in draw(st.lists(offset, min_size=1, max_size=6))]
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        for key, val in keys.items():
            if isinstance(val, list):
                val = ", ".join(map(str, val))
            if val is not None:
                lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None)
@given(_config_text())
def test_serialize_round_trips_random_configs(text):
    cfg = parse_config(text)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert again.raw == cfg.raw
