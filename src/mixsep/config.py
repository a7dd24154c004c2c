"""INI run configuration: parsing, validation, defaults, serialization.

A config file describes one run: the mixture, the resonance, the grid, the
solver settings, the sweep points, and the fit settings. Unknown sections
or keys are rejected rather than ignored, and every effective value carries
provenance ("file", "default", or "derived") so a run manifest can record
exactly what was assumed.

The shipped mixture is this module's defaults: default_scenario() and
default_resonance() are what an empty config file parses to.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import A_BOHR, hz_to_angular
from .errors import ParseError, ValidationError
from .physics import FeshbachResonance, SpeciesParams, scattering_length
from .scenario import (
    MASS_K41,
    MASS_LI6,
    POLARIZABILITY_FACTOR,
    MixtureScenario,
    boson_frequency_scale,
)
from .solver import SolverOptions

SWEEP_DEFAULT_POINTS = 12
SWEEP_DEFAULT_RANGE_A0 = (100.0, 2000.0)

# Every legal key with its type tag and default. None means "derived".
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "bosons": {
        "nu_rho_hz": ("float", None),
        "nu_z_hz": ("float", None),
        "a_bb_a0": ("float", 60.9),
        "polarizability_factor": ("float", POLARIZABILITY_FACTOR),
    },
    "fermions": {
        "nu_rho_hz": ("float", 291.0),
        "nu_z_hz": ("float", 41.6),
    },
    "mixture": {
        "n_bosons": ("float", 2.9e4),
        "n_fermions": ("float", 1.4e5),
        "condensate_fraction": ("float", 0.5),
        "a_bf_a0": ("float", 0.0),
        "alpha": ("float", 1.5),
        "thermal_model": ("str", "gaussian"),
    },
    "resonance": {
        "b0_gauss": ("float", 335.057),
        "delta_gauss": ("float", 0.949),
        "a_bg_a0": ("float", 60.9),
    },
    "grid": {
        "n_rho": ("int", 128),
        "n_z": ("int", 256),
        "box_factor": ("float", 1.3),
    },
    "solver": {
        "mode": ("str", "full"),
        "max_iter": ("int", 60000),
        "seed": ("int", 42),
    },
    "sweep": {
        "a_bf_list_a0": ("floatlist", None),
        "b_list_gauss": ("floatlist", None),
    },
    "fits": {
        "l3_cm6_per_s": ("float", 1.0e-25),
    },
}


def default_sweep_a0() -> np.ndarray:
    lo, hi = SWEEP_DEFAULT_RANGE_A0
    return np.geomspace(lo, hi, SWEEP_DEFAULT_POINTS)


@dataclass(frozen=True)
class RunConfig:
    scenario: MixtureScenario
    resonance: FeshbachResonance
    n_rho: int
    n_z: int
    box_factor: float
    solver: SolverOptions
    sweep_a_bf: tuple[float, ...]          # meters
    sweep_b_gauss: tuple[float, ...] | None
    l3: float                              # m^6/s
    provenance: dict[str, str] = field(compare=False, repr=False, default_factory=dict)
    # Effective values in file units, kept so serialization round-trips exactly.
    raw: dict = field(compare=False, repr=False, default_factory=dict)


def _line_of(text: str, section: str, key: str) -> int | None:
    in_section = False
    for i, line in enumerate(text.splitlines(), start=1):
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            in_section = s[1:-1].strip() == section
        elif in_section and (s.startswith(key + " ") or s.startswith(key + "=")
                             or s == key or s.startswith(key + "\t")):
            return i
    return None


def _finite(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _convert(raw: str, kind: str, section: str, key: str, text: str):
    try:
        if kind == "float":
            return _finite(raw)
        if kind == "int":
            return int(raw)
        if kind == "floatlist":
            parts = [p for p in raw.replace(",", " ").split() if p]
            if not parts:
                raise ValueError("empty list")
            return tuple(_finite(p) for p in parts)
        return raw.strip()
    except ValueError as exc:
        line = _line_of(text, section, key)
        where = "" if line is None else f" on line {line}"
        raise ParseError(
            f"bad value for [{section}] {key}{where}: {raw!r} ({exc})", line=line
        ) from exc


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse INI text into a RunConfig; see load_config for files."""
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text, source=source)
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if getattr(exc, "errors", None) else None
        raise ParseError(f"malformed config {source}: {exc}", line=line) from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed config {source}: {exc}") from exc

    values: dict[str, dict[str, object]] = {}
    provenance: dict[str, str] = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ValidationError(f"unknown config section [{sec}]")
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                raise ValidationError(f"unknown key {key!r} in section [{sec}]")
    for sec, keys in _SCHEMA.items():
        values[sec] = {}
        for key, (kind, default) in keys.items():
            tag = f"{sec}.{key}"
            if cp.has_option(sec, key):
                values[sec][key] = _convert(cp.get(sec, key), kind, sec, key, text)
                provenance[tag] = "file"
            else:
                values[sec][key] = default
                provenance[tag] = "default"

    fer = values["fermions"]
    fermions = SpeciesParams(
        name="Li6",
        mass=MASS_LI6,
        omega_rho=hz_to_angular(fer["nu_rho_hz"]),
        omega_z=hz_to_angular(fer["nu_z_hz"]),
        a_intra=0.0,
    )
    bos = values["bosons"]
    scale = boson_frequency_scale(MASS_K41, MASS_LI6, bos["polarizability_factor"])
    for key in ("nu_rho_hz", "nu_z_hz"):
        if bos[key] is None:
            bos[key] = fer[key] * scale
            provenance[f"bosons.{key}"] = "derived"
    bosons = SpeciesParams(
        name="K41",
        mass=MASS_K41,
        omega_rho=hz_to_angular(bos["nu_rho_hz"]),
        omega_z=hz_to_angular(bos["nu_z_hz"]),
        a_intra=bos["a_bb_a0"] * A_BOHR,
    )

    mix = values["mixture"]
    scenario = MixtureScenario(
        bosons=bosons,
        fermions=fermions,
        n_bosons=mix["n_bosons"],
        n_fermions=mix["n_fermions"],
        condensate_fraction=mix["condensate_fraction"],
        a_bf=mix["a_bf_a0"] * A_BOHR,
        alpha=mix["alpha"],
        thermal_model=mix["thermal_model"],
    )

    res = values["resonance"]
    resonance = FeshbachResonance(
        b0=res["b0_gauss"],
        delta=res["delta_gauss"],
        a_bg=res["a_bg_a0"] * A_BOHR,
    )

    grid = values["grid"]
    if grid["n_rho"] < 8 or grid["n_z"] < 8:
        raise ValidationError("grid must be at least 8 x 8 cells")
    if grid["n_z"] % 2 != 0:
        # the solver relaxes the z > 0 half and mirrors it onto z < 0
        line = _line_of(text, "grid", "n_z")
        where = "" if line is None else f" on line {line}"
        raise ValidationError(
            f"[grid] n_z{where} must be even, so that every cell has a "
            f"mirror partner across z = 0; got {grid['n_z']}"
        )
    if grid["box_factor"] <= 1.0:
        raise ValidationError("box_factor must exceed 1")

    sol = values["solver"]
    if sol["mode"] not in ("full", "tf"):
        raise ValidationError(f"solver mode must be 'full' or 'tf', got {sol['mode']!r}")
    if sol["max_iter"] < 1:
        raise ValidationError(f"solver max_iter must be at least 1, got {sol['max_iter']}")
    if sol["seed"] < 0:
        raise ValidationError(f"solver seed must be non-negative, got {sol['seed']}")
    solver = SolverOptions(**sol)

    swp = values["sweep"]
    a_list, b_list = swp["a_bf_list_a0"], swp["b_list_gauss"]
    if a_list is not None and b_list is not None:
        raise ValidationError(
            "give exactly one of [sweep] a_bf_list_a0 or b_list_gauss, not both"
        )
    sweep_b = None
    if b_list is not None:
        sweep_b = tuple(b_list)
        sweep_a = tuple(scattering_length(resonance, b) for b in b_list)
        provenance["sweep.a_bf_list_a0"] = "derived"
    else:
        if a_list is None:
            a_list = swp["a_bf_list_a0"] = tuple(float(v) for v in default_sweep_a0())
        sweep_a = tuple(v * A_BOHR for v in a_list)
    if len(sweep_a) < 1:
        raise ValidationError("sweep needs at least one point")

    fits = values["fits"]
    if fits["l3_cm6_per_s"] <= 0.0:
        raise ValidationError("l3_cm6_per_s must be positive")

    return RunConfig(
        scenario=scenario,
        resonance=resonance,
        n_rho=grid["n_rho"],
        n_z=grid["n_z"],
        box_factor=grid["box_factor"],
        solver=solver,
        sweep_a_bf=sweep_a,
        sweep_b_gauss=sweep_b,
        l3=fits["l3_cm6_per_s"] * 1.0e-12,
        provenance=provenance,
        raw=values,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def default_config() -> RunConfig:
    return parse_config("", source="<defaults>")


def default_scenario(a_bf: float = 0.0) -> MixtureScenario:
    return default_config().scenario.with_a_bf(a_bf)


def default_resonance() -> FeshbachResonance:
    return default_config().resonance


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, tuple):
        return ", ".join(repr(float(x)) for x in v)
    return str(v)


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to INI text that parses to an equal config.

    The raw file-unit values captured at parse time are written back with
    full-precision repr, so parse(serialize(cfg)) == cfg bit for bit.
    Derived keys (boson frequencies inferred from the fermion trap, sweep
    scattering lengths converted from fields) are omitted; they derive
    identically on the next parse.
    """
    if not cfg.raw:
        raise ValidationError("config carries no raw values; build it via parse_config")
    buf = io.StringIO()
    for sec, keys in cfg.raw.items():
        lines = []
        for key, val in keys.items():
            if val is None or cfg.provenance.get(f"{sec}.{key}") == "derived":
                continue
            lines.append(f"{key} = {_fmt(val)}\n")
        if lines:
            buf.write(f"[{sec}]\n")
            buf.writelines(lines)
            buf.write("\n")
    return buf.getvalue()
