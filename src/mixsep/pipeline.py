"""Run orchestration and on-disk formats: CSV tables, manifests, plot data.

The CSVs, meta.json, manifests and fit records use experiment units (a0,
G, nK, Hz, cm^-3, cm^6/s, s), with the unit in every CSV column header.
The overlap report's JSON (OverlapReport.as_dict, which mixsep overlap
--out writes) is the exception: its four overlap integrals are in m^-6,
as their keys say. Floats are written with %.12g so identical
runs produce byte-identical files; nothing time-dependent goes into a CSV.
Writes are atomic (temp file + rename). The manifest records the config
hash and a sha256 for every emitted file.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .abel import ColumnSlice, RadialProfile, center_and_symmetrize, forward_abel, inverse_abel
from .config import RunConfig, serialize_config
from .constants import A_BOHR, ATOMIC_MASS, joule_to_nk, nk_to_joule
from .errors import (
    MissingInput,
    MixsepError,
    NonDecayingWarning,
    OutputError,
    ParseError,
    ValidationError,
)
from .grid import DensityField, Grid2D
from .lossfit import DecaySeries, SmoothedCurve
from .overlap import (
    OverlapReport,
    omega_eff_from_ground_state,
    reference_fields,
    require_bosons,
)
from .physics import SpeciesParams, critical_scattering_length
from .profiles import PeakQuantities, fra_peak_quantities, grid_for_scenario
from .scenario import MixtureScenario
from .solver import GroundState, SolverOptions, minimize


FLOAT_FMT = ".12g"
M3_TO_CM3 = 1.0e-6        # density m^-3 -> cm^-3
M6_TO_CM6 = 1.0e-12       # overlap integral m^-6 -> cm^-6
M6S_TO_CM6S = 1.0e12      # rate coefficient m^6/s -> cm^6/s
CONFIG_SNAPSHOT = "config_snapshot.cfg"


def _f(v: float) -> str:
    return format(float(v), FLOAT_FMT)


def atomic_write_text(path, text: str) -> Path:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc
    return path


def write_json(path, payload) -> Path:
    """Indented, key-sorted JSON with a trailing newline."""
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _ensure_dir(path) -> Path:
    d = Path(path)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create directory {d}: {exc}") from exc
    return d


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# generic CSV table with "# key = value" metadata lines


def write_table(path, header: list[str], rows, meta: dict | None = None) -> Path:
    buf = io.StringIO()
    for key, val in (meta or {}).items():
        buf.write(f"# {key} = {val if isinstance(val, str) else _f(val)}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join("nan" if v is None else _f(v) for v in row) + "\n")
    return atomic_write_text(path, buf.getvalue())


def _read_commented(path: Path) -> tuple[dict[str, str], list[tuple[int, str]]]:
    """({key: value} from "# key = value" lines, [(line number, text)] of data lines)."""
    if not path.exists():
        raise MissingInput(f"no such file: {path}")
    meta: dict[str, str] = {}
    lines: list[tuple[int, str]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if s.startswith("#"):
                body = s.lstrip("#").strip()
                if "=" in body:
                    k, _, v = body.partition("=")
                    meta[k.strip()] = v.strip()
            elif s:
                lines.append((lineno, s))
    return meta, lines


def read_table(path):
    """Returns (meta, header, rows ndarray). Inverse of write_table."""
    path = Path(path)
    meta, lines = _read_commented(path)
    if not lines:
        raise ParseError(f"{path}: no header row found")
    header = [c.strip() for c in next(csv.reader([lines[0][1]]))]
    rows: list[list[float]] = []
    for lineno, s in lines[1:]:
        try:
            row = [float(c) for c in next(csv.reader([s]))]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad number ({exc})", line=lineno) from exc
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: row width does not match header", line=lineno)
        rows.append(row)
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return meta, header, data


def _column(header: list[str], data: np.ndarray, name: str, path,
            optional: bool = False) -> np.ndarray | None:
    """The column named name, units in brackets ignored; None if optional and absent."""
    for i, h in enumerate(header):
        if h == name or h.split("[")[0] == name:
            return data[:, i]
    if optional:
        return None
    raise MissingInput(f"{path}: missing column {name!r}")


# ---------------------------------------------------------------------------
# density fields and ground states


def write_density_field(fld: DensityField, path) -> Path:
    g = fld.grid
    buf = io.StringIO()
    buf.write("# mixsep density-field\n")
    buf.write(f"# species = {fld.species}\n")
    buf.write(f"# n_rho = {g.n_rho}\n")
    buf.write(f"# n_z = {g.n_z}\n")
    buf.write(f"# d_rho_um = {_f(g.d_rho * 1e6)}\n")
    buf.write(f"# d_z_um = {_f(g.d_z * 1e6)}\n")
    buf.write("# units = cm^-3\n")
    for i in range(g.n_rho):
        buf.write(",".join(_f(v * M3_TO_CM3) for v in fld.values[i]) + "\n")
    return atomic_write_text(path, buf.getvalue())


def read_density_field(path) -> DensityField:
    path = Path(path)
    meta, lines = _read_commented(path)
    values: list[list[float]] = []
    for lineno, s in lines:
        try:
            row = [float(c) for c in s.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}, line {lineno}: {exc}", line=lineno) from exc
        if values and len(row) != len(values[0]):
            raise ParseError(
                f"{path}, line {lineno}: {len(row)} values, "
                f"the first row has {len(values[0])}",
                line=lineno,
            )
        values.append(row)
    try:
        n_rho, n_z = int(meta["n_rho"]), int(meta["n_z"])
        d_rho = float(meta["d_rho_um"]) * 1e-6
        d_z = float(meta["d_z_um"]) * 1e-6
        species = meta.get("species", "")
    except KeyError as exc:
        raise ParseError(f"{path}: missing header field {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: bad header field: {exc}") from exc
    arr = np.array(values, dtype=float) / M3_TO_CM3
    if arr.shape != (n_rho, n_z):
        raise ParseError(
            f"{path}: value block is {arr.shape}, header says {(n_rho, n_z)}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(arr) & (arr >= 0.0), axis=1))
    if bad.size:
        lineno = lines[bad[0]][0]
        raise ParseError(f"{path}, line {lineno}: densities must be finite and "
                         "non-negative", line=lineno)
    return DensityField(Grid2D(n_rho, n_z, d_rho, d_z), arr, species)


def _species_meta(sp: SpeciesParams) -> dict:
    return {
        "name": sp.name,
        "mass_amu": sp.mass / ATOMIC_MASS,
        "nu_rho_hz": sp.omega_rho / (2.0 * math.pi),
        "nu_z_hz": sp.omega_z / (2.0 * math.pi),
        "a_intra_a0": sp.a_intra / A_BOHR,
    }


def _species_from_meta(d: dict) -> SpeciesParams:
    return SpeciesParams(
        name=d["name"],
        mass=d["mass_amu"] * ATOMIC_MASS,
        omega_rho=d["nu_rho_hz"] * 2.0 * math.pi,
        omega_z=d["nu_z_hz"] * 2.0 * math.pi,
        a_intra=d["a_intra_a0"] * A_BOHR,
    )


def _convergence(gs: GroundState) -> dict:
    """How a solve ended, as meta.json and the manifest record it."""
    return {
        "converged": gs.converged,
        "iterations": gs.iterations,
        "energy_nk": joule_to_nk(gs.energy),
        "residual_b": gs.residual[0],
        "residual_f": gs.residual[1],
    }


def save_ground_state(gs: GroundState, dirpath) -> Path:
    """Write n_b.csv, n_f.csv and meta.json into dirpath."""
    d = _ensure_dir(dirpath)
    write_density_field(gs.n_b, d / "n_b.csv")
    write_density_field(gs.n_f, d / "n_f.csv")
    sc = gs.scenario
    meta = {
        "tool": "mixsep",
        "version": __version__,
        "bosons": _species_meta(sc.bosons),
        "fermions": _species_meta(sc.fermions),
        "scenario": {
            "n_bosons": sc.n_bosons,
            "n_fermions": sc.n_fermions,
            "condensate_fraction": sc.condensate_fraction,
            "a_bf_a0": sc.a_bf / A_BOHR,
            "alpha": sc.alpha,
            "thermal_model": sc.thermal_model,
        },
        "results": {
            "mode": gs.mode,
            **_convergence(gs),
            "energy_breakdown_nk": {
                k: joule_to_nk(v) for k, v in gs.energy_breakdown.items()
            },
            "mu_b_nk": joule_to_nk(gs.mu_b),
            "mu_f_nk": joule_to_nk(gs.mu_f),
        },
    }
    write_json(d / "meta.json", meta)
    return d


def _read_json_object(path: Path) -> dict:
    """The JSON object in path; a ParseError naming path if it holds anything else."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}", line=exc.lineno) from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: the top level must be a JSON object")
    return payload


def load_ground_state(dirpath) -> GroundState:
    d = Path(dirpath)
    meta_path = d / "meta.json"
    if not meta_path.exists():
        raise MissingInput(f"no ground state at {d} (missing meta.json)")
    meta = _read_json_object(meta_path)
    n_b = read_density_field(d / "n_b.csv")
    n_f = read_density_field(d / "n_f.csv")
    try:
        sc_meta = meta["scenario"]
        scenario = MixtureScenario(
            bosons=_species_from_meta(meta["bosons"]),
            fermions=_species_from_meta(meta["fermions"]),
            n_bosons=sc_meta["n_bosons"],
            n_fermions=sc_meta["n_fermions"],
            condensate_fraction=sc_meta["condensate_fraction"],
            a_bf=sc_meta["a_bf_a0"] * A_BOHR,
            alpha=sc_meta["alpha"],
            thermal_model=sc_meta["thermal_model"],
        )
        res = meta["results"]
        return GroundState(
            scenario=scenario,
            n_b=n_b,
            n_f=n_f,
            mu_b=nk_to_joule(res["mu_b_nk"]),
            mu_f=nk_to_joule(res["mu_f_nk"]),
            energy=nk_to_joule(res["energy_nk"]),
            energy_breakdown={
                k: nk_to_joule(v) for k, v in res["energy_breakdown_nk"].items()
            },
            energy_history=np.empty(0),
            iterations=res["iterations"],
            converged=res["converged"],
            mode=res["mode"],
            residual=(res.get("residual_b", math.nan), res.get("residual_f", math.nan)),
        )
    except KeyError as exc:
        raise ParseError(f"{meta_path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"{meta_path}: wrongly typed value ({exc})") from exc


# ---------------------------------------------------------------------------
# manifest


@dataclass
class RunManifest:
    config_sha256: str
    files: list = field(default_factory=list)    # {"path", "sha256", "kind"}
    points: list = field(default_factory=list)   # per-point convergence records
    provenance: dict = field(default_factory=dict)  # config key -> file/default/derived

    def add_file(self, base: Path, path: Path, kind: str) -> None:
        self.files.append(
            {
                "path": str(path.relative_to(base)),
                "sha256": sha256_file(path),
                "kind": kind,
            }
        )

    def write(self, path) -> Path:
        payload = {
            "tool": "mixsep",
            "version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config_sha256": self.config_sha256,
            "files": self.files,
            "points": self.points,
            "provenance": self.provenance,
        }
        return write_json(path, payload)


def verify_manifest(manifest_path) -> dict:
    """Check that every file the manifest lists exists with a matching hash."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise MissingInput(f"no such manifest: {manifest_path}")
    payload = _read_json_object(manifest_path)
    files = payload.get("files", [])
    if not isinstance(files, list):
        raise ParseError(f"{manifest_path}: files must be a list")
    base = manifest_path.parent
    for entry in files:
        if not isinstance(entry, dict):
            raise ParseError(f"{manifest_path}: file entry {entry!r} is not an object")
        try:
            rel, expected = entry["path"], entry["sha256"]
        except KeyError as exc:
            raise ParseError(f"{manifest_path}: file entry missing key {exc}") from exc
        if not (isinstance(rel, str) and isinstance(expected, str)):
            raise ParseError(f"{manifest_path}: file entry {entry!r} needs string values")
        p = base / rel
        if not p.exists():
            raise OutputError(f"manifest lists missing file {rel}")
        actual = sha256_file(p)
        if actual != expected:
            raise OutputError(
                f"hash mismatch for {rel}: manifest {expected[:12]}, file {actual[:12]}"
            )
    return payload


# ---------------------------------------------------------------------------
# sweeps


def _critical_a_bf(scenario: MixtureScenario, peaks: PeakQuantities) -> float:
    """Separation threshold in Bohr radii, from the reference peak density."""
    return critical_scattering_length(scenario.bosons.a_intra, peaks.n_f_peak) / A_BOHR


def sweep_ground_states(
    scenario: MixtureScenario,
    a_bf_values,
    grid: Grid2D,
    options: SolverOptions = SolverOptions(),
    progress=None,
) -> list[tuple[GroundState | None, str | None]]:
    """Solve at each a_bf, in full mode warm-starting each point from the previous one.

    Returns one (state, None) or (None, "ErrorType: message") per point: a
    point whose solve raises a MixsepError is recorded and the next point
    starts cold. A full-mode point starts from the previous state's
    (sqrt(n_b), sqrt(n_f)) as it is, so a sweep is a plain warm chain and
    every state is a function of its scenario, grid, mode, max_iter and
    start. minimize folds the start onto the z > 0 half; every returned
    state is mirror-symmetric. A tf-mode point is the pointwise minimum,
    which reads no start, so it takes none. progress(mode, idx, a_bf,
    state or None) is called after each point.
    """
    out = []
    warm = None
    for idx, a_bf in enumerate(a_bf_values):
        try:
            gs = minimize(scenario.with_a_bf(float(a_bf)), grid, options, warm_start=warm)
        except MixsepError as exc:
            gs, err, warm = None, f"{type(exc).__name__}: {exc}", None
        else:
            err = None
            if options.mode == "full":
                warm = (np.sqrt(gs.n_b.values), np.sqrt(gs.n_f.values))
        out.append((gs, err))
        if progress is not None:
            progress(options.mode, idx, float(a_bf), gs)
    return out


def _point_record(mode: str, a_bf: float, gs: GroundState | None, err: str | None) -> dict:
    rec = {"a_bf_a0": a_bf / A_BOHR, "mode": mode, "error": err}
    if gs is not None:
        rec.update(_convergence(gs))
    return rec


def _start_sweep(config: RunConfig,
                 out_dir) -> tuple[Path, Grid2D, PeakQuantities, RunManifest]:
    """Output directory, grid, peak densities and manifest; writes the config snapshot.

    A mixture with no bosons has no loss rate to report, so it raises
    NonPositiveInput here, before anything is solved or written.
    """
    require_bosons(config.scenario)
    out = _ensure_dir(out_dir)
    grid = grid_for_scenario(config.scenario, config.n_rho, config.n_z, config.box_factor)
    config_text = serialize_config(config)
    atomic_write_text(out / CONFIG_SNAPSHOT, config_text)
    manifest = RunManifest(sha256_text(config_text), provenance=dict(config.provenance))
    return out, grid, fra_peak_quantities(config.scenario), manifest


def _finish_sweep(out: Path, manifest: RunManifest, csv_path: Path) -> Path:
    """List the sweep table and the config snapshot, then write the manifest."""
    manifest.add_file(out, csv_path, "sweep")
    manifest.add_file(out, out / CONFIG_SNAPSHOT, "config")
    return manifest.write(out / "manifest.json")


def _sweep_reports(config: RunConfig, grid: Grid2D, peaks: PeakQuantities,
                   options: SolverOptions, reference: tuple[DensityField, DensityField],
                   manifest: RunManifest, progress) -> list[OverlapReport | None]:
    """One sweep-list chain in options.mode: an OverlapReport, or None, per point.

    Both sweep products run each mode through here. Each report is taken
    against reference, (n_f, n_b). Every point's record, a convergence
    record or an error, goes into the manifest.
    """
    states = sweep_ground_states(config.scenario, config.sweep_a_bf, grid, options, progress)
    reports = []
    for (gs, err), a_bf in zip(states, config.sweep_a_bf):
        manifest.points.append(_point_record(options.mode, a_bf, gs, err))
        reports.append(None if gs is None else omega_eff_from_ground_state(
            gs, l3=config.l3, reference=reference, peaks=peaks))
    return reports


def run_figure3_pipeline(config: RunConfig, out_dir, progress=None) -> tuple[Path, Path]:
    """Both solver modes over the sweep list; returns (csv_path, manifest_path).

    The CSV has one row per a_bf with the effective overlap from each mode
    and the zero-temperature overlap factor from the full mode; the
    predicted separation threshold rides along as metadata. Failed points
    get nan columns and an entry in the manifest.
    """
    out, grid, peaks, manifest = _start_sweep(config, out_dir)
    scenario = config.scenario
    results: dict[str, list] = {}
    gamma_zero: dict[str, float] = {}
    for mode in ("full", "tf"):
        options = replace(config.solver, mode=mode)
        # Full-overlap reference: the same functional at a_bf = 0. Each
        # mode's curve is normalized by its own zero-interaction solution,
        # so the overlap columns start at exactly 1.
        gs0 = minimize(scenario.with_a_bf(0.0), grid, options)
        reference = (gs0.n_f, gs0.n_b)
        gamma_zero[mode] = omega_eff_from_ground_state(
            gs0, l3=config.l3, reference=reference, peaks=peaks
        ).gamma_pred
        manifest.points.append({**_point_record(mode, 0.0, gs0, None), "role": "reference"})
        results[mode] = _sweep_reports(
            config, grid, peaks, options, reference, manifest, progress
        )

    rows = [
        [a_bf / A_BOHR,
         None if full is None else full.gamma_pred / gamma_zero["full"],
         None if tf is None else tf.gamma_pred / gamma_zero["tf"],
         None if full is None else full.omega]
        for a_bf, full, tf in zip(config.sweep_a_bf, results["full"], results["tf"])
    ]
    csv_path = write_table(
        out / "sweep_omega_eff.csv",
        ["a_bf[a0]", "omega_eff_full", "omega_eff_tf", "omega_zero_T"],
        rows,
        meta={
            "critical_a_bf_a0": _critical_a_bf(scenario, peaks),
            "l3_cm6_per_s": config.l3 * M6S_TO_CM6S,
            "gamma_full_overlap_full[1/s]": gamma_zero["full"],
            "gamma_full_overlap_tf[1/s]": gamma_zero["tf"],
        },
    )
    return csv_path, _finish_sweep(out, manifest, csv_path)


# (header, OverlapReport field, unit scale) of each sweep_overlap_<mode>.csv
# column after a_bf[a0].
_OVERLAP_COLUMNS = (
    ("Omega", "omega", 1.0),
    ("Omega_eff", "omega_eff", 1.0),
    ("gamma_pred[1/s]", "gamma_pred", 1.0),
    ("I_bb[cm^-6]", "i_bb", M6_TO_CM6),
    ("I_bt[cm^-6]", "i_bt", M6_TO_CM6),
    ("I_tt[cm^-6]", "i_tt_fra", M6_TO_CM6),
    ("n_f_peak[cm^-3]", "n_f_peak", M3_TO_CM3),
    ("n_b_peak[cm^-3]", "n_b_peak", M3_TO_CM3),
    ("n_t_peak[cm^-3]", "n_t_peak", M3_TO_CM3),
)


def run_overlap_sweep(config: RunConfig, out_dir, mode: str, progress=None) -> tuple[Path, Path]:
    """One-mode sweep emitting the per-point overlap report columns.

    The columns are _OVERLAP_COLUMNS against the default reference fields;
    a failed point's row is nan after its a_bf.
    """
    out, grid, peaks, manifest = _start_sweep(config, out_dir)
    scenario = config.scenario
    reference = reference_fields(scenario, grid)
    reports = _sweep_reports(
        config, grid, peaks, replace(config.solver, mode=mode), reference, manifest, progress
    )
    rows = [
        [a_bf / A_BOHR] + [
            None if rep is None else getattr(rep, name) * scale
            for _, name, scale in _OVERLAP_COLUMNS
        ]
        for a_bf, rep in zip(config.sweep_a_bf, reports)
    ]
    csv_path = write_table(
        out / f"sweep_overlap_{mode}.csv",
        ["a_bf[a0]"] + [header for header, _, _ in _OVERLAP_COLUMNS],
        rows,
        meta={
            "mode": mode,
            "critical_a_bf_a0": _critical_a_bf(scenario, peaks),
            "l3_cm6_per_s": config.l3 * M6S_TO_CM6S,
            "alpha": scenario.alpha,
        },
    )
    return csv_path, _finish_sweep(out, manifest, csv_path)


# ---------------------------------------------------------------------------
# decay/L3 point files


def read_decay_csv(path) -> DecaySeries:
    """Columns t[s], N and optionally sigma_N."""
    meta, header, data = read_table(path)
    t = _column(header, data, "t", path)
    n = _column(header, data, "N", path)
    sigma = _column(header, data, "sigma_N", path, optional=True)
    return DecaySeries(times=t, numbers=n, sigma=sigma)


def read_l3_points_csv(path):
    """Columns a_bf[a0], L3[cm^6/s], optional sigma[cm^6/s]; returns SI L3."""
    meta, header, data = read_table(path)
    a0 = _column(header, data, "a_bf", path)
    l3 = _column(header, data, "L3", path) / M6S_TO_CM6S
    sigma = _column(header, data, "sigma", path, optional=True)
    return a0, l3, None if sigma is None else sigma / M6S_TO_CM6S


def read_gamma_csv(path) -> list[dict]:
    """Columns a_bf[a0], gamma[1/s], optional gamma_err[1/s] (0 when absent)."""
    meta, header, data = read_table(path)
    a = _column(header, data, "a_bf", path)
    g = _column(header, data, "gamma", path)
    ge = _column(header, data, "gamma_err", path, optional=True)
    if ge is None:
        ge = np.zeros_like(a)
    return [
        {"a_bf_a0": float(ai), "gamma": float(gi), "gamma_stderr": float(ei)}
        for ai, gi, ei in zip(a, g, ge)
    ]


def _smoothed_table(curve: SmoothedCurve):
    """(header, rows, meta) of a smoothed curve's CSV."""
    rows = [
        [a, l * M6S_TO_CM6S, lo * M6S_TO_CM6S, hi * M6S_TO_CM6S]
        for a, l, lo, hi in zip(curve.a_bf_a0, curve.l3, curve.band_lo, curve.band_hi)
    ]
    return (
        ["a_bf[a0]", "L3[cm^6/s]", "band_lo[cm^6/s]", "band_hi[cm^6/s]"],
        rows,
        {"span": curve.span, "n_boot": curve.n_boot, "seed": curve.seed},
    )


def write_smoothed_csv(curve: SmoothedCurve, path) -> Path:
    """The curve's table, with its measured points in the points_* metadata."""
    header, rows, meta = _smoothed_table(curve)
    if curve.points:
        a, l3 = zip(*curve.points)
        meta["points_a_bf_a0"] = " ".join(map(_f, a))
        meta["points_l3_cm6_per_s"] = " ".join(_f(v * M6S_TO_CM6S) for v in l3)
    return write_table(path, header, rows, meta)


def _meta_number(meta: dict[str, str], key: str, default: str, path, integer: bool = False):
    """The "# key = value" metadata as a float (an int if integer), default if absent."""
    text = meta.get(key, default)
    try:
        value = float(text)
        return int(value) if integer else value
    except (ValueError, OverflowError) as exc:
        kind = "an integer" if integer else "a number"
        raise ParseError(f"{path}: metadata {key} = {text!r} is not {kind}") from exc


def _meta_numbers(meta: dict[str, str], key: str, path) -> list[float]:
    """The space-separated numbers of "# key = ...", none if absent."""
    text = meta.get(key, "")
    try:
        return [float(v) for v in text.split()]
    except ValueError as exc:
        raise ParseError(f"{path}: metadata {key} = {text!r} is not a list of numbers") from exc


def read_smoothed_csv(path) -> SmoothedCurve:
    meta, header, data = read_table(path)
    a = _meta_numbers(meta, "points_a_bf_a0", path)
    l3 = _meta_numbers(meta, "points_l3_cm6_per_s", path)
    if len(a) != len(l3):
        raise ParseError(
            f"{path}: {len(a)} points_a_bf_a0 values but {len(l3)} points_l3_cm6_per_s"
        )
    return SmoothedCurve(
        a_bf_a0=_column(header, data, "a_bf", path),
        l3=_column(header, data, "L3", path) / M6S_TO_CM6S,
        band_lo=_column(header, data, "band_lo", path) / M6S_TO_CM6S,
        band_hi=_column(header, data, "band_hi", path) / M6S_TO_CM6S,
        span=_meta_number(meta, "span", "nan", path),
        n_boot=_meta_number(meta, "n_boot", "0", path, integer=True),
        seed=_meta_number(meta, "seed", "0", path, integer=True),
        points=tuple((x, v / M6S_TO_CM6S) for x, v in zip(a, l3)),
    )


def read_profile_csv(path):
    """Two-column (x[um], value) file; returns x in meters plus values."""
    meta, header, data = read_table(path)
    if data.shape[1] < 2:
        raise ParseError(f"{path}: need two columns (x[um], value)")
    return data[:, 0] * 1e-6, data[:, 1]


def write_profile_csv(path, x_m, values, x_name: str) -> Path:
    rows = [[x * 1e6, v] for x, v in zip(x_m, values)]
    return write_table(path, [x_name, "value"], rows)


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(kind: str, out_dir, **inputs) -> list[Path]:
    """Write plot-ready CSVs for one figure; returns the paths written.

    fig1b: ground_state + noise/seed -> projected column slice and its
    Abel reconstruction next to the true radial profile.
    fig2a: smoothed -> curve with confidence band, and the measured points
    it was smoothed from.
    fig2b: gamma_records -> measured loss rates per set.
    fig3: pipeline_csv -> overlap curves reordered for plotting.

    The first input named for a kind is required: an absent or empty one
    raises MissingInput. An input the kind's tables do not take raises
    TypeError. Every table is made before out_dir is created, so a rejected
    input leaves no directory behind.
    """
    if kind not in PLOT_KINDS:
        raise ValidationError(f"unknown plot kind {kind!r}")
    tables, required, _, _ = PLOT_KINDS[kind]
    if not inputs.get(required):
        raise MissingInput(f"{kind} needs {required}")
    made = tables(**inputs)
    out = _ensure_dir(out_dir)
    return [write_table(out / name, header, rows, meta) for name, header, rows, meta in made]


# Each kind's tables, [(file name, header, rows, meta)]: made in full before
# emit_plot_data creates the directory and writes them.
def _fig1b_tables(ground_state: GroundState, noise: float = 0.0, seed: int = 0):
    if not 0.0 <= noise < math.inf:
        raise ValidationError(f"fig1b noise must be finite and non-negative, got {noise!r}")
    gs = ground_state
    grid = gs.grid
    true_radial = RadialProfile(grid.rho.copy(), gs.n_f.axial_slice().copy())
    slc = forward_abel(true_radial)
    values = slc.values
    if noise > 0.0:
        rng = np.random.default_rng(seed)
        values = values + noise * float(np.max(values)) * rng.standard_normal(values.shape)
    noisy = ColumnSlice(slc.y, values)
    # The edge is judged on the noiseless data: forward_abel warns if the
    # radial profile has not decayed, and its projection ends at exactly 0
    # (the chord through the last sample has no length). So only the noise
    # added above, a share of the peak on every sample, could trip the
    # inversion's own edge test, and it is not heeded.
    # The projection is symmetric about zero by construction; auto-detection
    # would lock onto one of the twin humps a depleted profile projects to.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonDecayingWarning)
        recon = inverse_abel(center_and_symmetrize(noisy, center=0.0))

    peak_col = float(np.max(slc.values))
    peak_rad = float(np.max(true_radial.values))
    col_rows = [
        [y * 1e6, t / peak_col, v / peak_col]
        for y, t, v in zip(slc.y, slc.values, noisy.values)
    ]
    meta = {"noise": noise, "seed": seed, "species": gs.n_f.species}
    true_on_recon = np.interp(recon.rho, true_radial.rho, true_radial.values)
    rad_rows = [
        [r * 1e6, t / peak_rad, v / peak_rad]
        for r, t, v in zip(recon.rho, true_on_recon, recon.values)
    ]
    return [
        ("fig1b_column.csv", ["y[um]", "coldens_true_norm", "coldens_noisy_norm"],
         col_rows, meta),
        ("fig1b_radial.csv", ["rho[um]", "n_f_true_norm", "n_f_recon_norm"], rad_rows, meta),
    ]


def _fig2a_tables(smoothed: SmoothedCurve):
    tables = [("fig2a_curve.csv", *_smoothed_table(smoothed))]
    if smoothed.points:
        rows = [[a, l * M6S_TO_CM6S] for a, l in smoothed.points]
        tables.append(("fig2a_points.csv", ["a_bf[a0]", "L3[cm^6/s]"], rows, None))
    return tables


def _fig2b_tables(gamma_records: list[dict]):
    rows = [
        [rec["a_bf_a0"], rec["gamma"], rec.get("gamma_stderr", 0.0)]
        for rec in gamma_records
    ]
    rows.sort(key=lambda r: r[0])
    return [("fig2b_gamma.csv", ["a_bf[a0]", "gamma[1/s]", "gamma_err[1/s]"], rows, None)]


def _fig3_tables(pipeline_csv):
    meta, header, data = read_table(pipeline_csv)
    a = _column(header, data, "a_bf", pipeline_csv)
    order = np.argsort(a)
    cols = [
        _column(header, data, name, pipeline_csv)[order]
        for name in ("a_bf", "omega_zero_T", "omega_eff_tf", "omega_eff_full")
    ]
    rows = [list(r) for r in zip(*cols)]
    keep = {k: v for k, v in meta.items() if k == "critical_a_bf_a0"}
    out_header = ["a_bf[a0]", "omega_zero_T", "omega_eff_tf", "omega_eff_full"]
    return [("fig3_overlap.csv", out_header, rows, keep)]


# kind -> (its tables, its required input, the reader that makes that input
# from the path the CLI is given, what that path names)
PLOT_KINDS = {
    "fig1b": (_fig1b_tables, "ground_state", load_ground_state, "ground-state directory"),
    "fig2a": (_fig2a_tables, "smoothed", read_smoothed_csv, "smoothed curve CSV"),
    "fig2b": (_fig2b_tables, "gamma_records", read_gamma_csv, "gamma CSV"),
    "fig3": (_fig3_tables, "pipeline_csv", str, "pipeline sweep CSV"),
}
