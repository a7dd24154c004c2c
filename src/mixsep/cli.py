"""Command-line interface.

Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 output failure.
MIXSEP_THREADS caps BLAS/OpenMP parallelism; it must take effect before
numpy loads, so this module imports only the standard library at the top
and pulls in the heavy modules inside the command handlers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _apply_thread_cap() -> None:
    cap = os.environ.get("MIXSEP_THREADS")
    if not cap:
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


def _print_kv(pairs) -> None:
    for key, val in pairs:
        if isinstance(val, float):
            print(f"{key} = {val:.12g}")
        else:
            print(f"{key} = {val}")


def _load_config(args):
    from .config import default_config, load_config

    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


# ---------------------------------------------------------------------------
# command handlers


def cmd_constants(args) -> int:
    from .constants import Constants

    payload = Constants().as_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_solve(args) -> int:
    from .constants import A_BOHR, joule_to_nk
    from .physics import scattering_length
    from .pipeline import M3_TO_CM3, save_ground_state
    from .solver import minimize
    from .profiles import grid_for_scenario

    cfg = _load_config(args)
    scenario = cfg.scenario
    if args.abf is not None:
        scenario = scenario.with_a_bf(args.abf * A_BOHR)
    elif args.b is not None:
        scenario = scenario.with_a_bf(scattering_length(cfg.resonance, args.b))
    mode = args.mode or cfg.solver.mode
    grid = grid_for_scenario(scenario, cfg.n_rho, cfg.n_z, cfg.box_factor)
    gs = minimize(scenario, grid, replace(cfg.solver, mode=mode))
    if args.out:
        save_ground_state(gs, args.out)
    _print_kv(
        [
            ("a_bf_a0", scenario.a_bf / A_BOHR),
            ("mode", gs.mode),
            ("converged", gs.converged),
            ("iterations", gs.iterations),
            ("energy_nk", joule_to_nk(gs.energy)),
            ("residual_b", gs.residual[0]),
            ("residual_f", gs.residual[1]),
            ("n_b_peak_cm3", gs.n_b.peak() * M3_TO_CM3),
            ("n_f_peak_cm3", gs.n_f.peak() * M3_TO_CM3),
            ("n_f_center_cm3", gs.n_f.center_value() * M3_TO_CM3),
        ]
    )
    if args.out:
        print(f"ground state written to {args.out}")
    if not gs.converged:
        print("solver hit max_iter before converging", file=sys.stderr)
        return 3
    return 0


def _progress(mode, idx, a_bf, gs) -> None:
    from .constants import A_BOHR

    if gs is None:
        status = "FAILED"
    else:
        status = f"{'converged' if gs.converged else 'max_iter'} in {gs.iterations} steps"
    print(f"[{mode}] point {idx + 1}: a_bf = {a_bf / A_BOHR:.6g} a0, {status}",
          file=sys.stderr)


def cmd_sweep(args) -> int:
    from .pipeline import run_figure3_pipeline, run_overlap_sweep

    cfg = _load_config(args)
    progress = None if args.quiet else _progress
    if args.mode == "both":
        csv_path, manifest_path = run_figure3_pipeline(cfg, args.out, progress)
    else:
        csv_path, manifest_path = run_overlap_sweep(cfg, args.out, args.mode, progress)
    _print_kv([("sweep_csv", str(csv_path)), ("manifest", str(manifest_path))])
    points = json.loads(manifest_path.read_text(encoding="utf-8"))["points"]
    failed = [p for p in points if p["error"] or not p["converged"]]
    for p in failed:
        reason = p["error"] or "hit max_iter before converging"
        print(f"[{p['mode']}] a_bf = {p['a_bf_a0']:.6g} a0: {reason}", file=sys.stderr)
    return 3 if failed else 0


def cmd_overlap(args) -> int:
    from .overlap import omega_eff_from_ground_state
    from .pipeline import atomic_write_text, load_ground_state

    gs = load_ground_state(args.ground_state)
    l3 = args.l3 * 1.0e-12 if args.l3 is not None else None
    kwargs = {} if l3 is None else {"l3": l3}
    report = omega_eff_from_ground_state(gs, alpha=args.alpha, **kwargs)
    payload = report.as_dict()
    if args.out:
        atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"report written to {args.out}")
    _print_kv(
        [
            ("Omega", report.omega),
            ("Omega_eff", report.omega_eff),
            ("gamma_pred_1_s", report.gamma_pred),
        ]
    )
    return 0


def cmd_criterion(args) -> int:
    from .constants import A_BOHR
    from .physics import (
        critical_scattering_length,
        fermi_wavenumber,
        is_phase_separated,
    )
    from .profiles import fra_peak_quantities

    cfg = _load_config(args)
    scenario = cfg.scenario
    if args.nf_peak is not None:
        n_f = args.nf_peak * 1.0e6
    else:
        n_f = fra_peak_quantities(scenario).n_f_peak
    crit = critical_scattering_length(scenario.bosons.a_intra, n_f)
    pairs = [
        ("a_bb_a0", scenario.bosons.a_intra / A_BOHR),
        ("n_f_peak_cm3", n_f * 1.0e-6),
        ("k_fermi_1_m", fermi_wavenumber(n_f)),
        ("critical_a_bf_a0", crit / A_BOHR),
    ]
    if args.abf is not None:
        a_bf = args.abf * A_BOHR
        pairs.append(("a_bf_a0", args.abf))
        pairs.append(("separated", is_phase_separated(a_bf, scenario.bosons.a_intra, n_f)))
    _print_kv(pairs)
    return 0


def cmd_abel(args) -> int:
    from .abel import (
        ColumnSlice,
        RadialProfile,
        center_and_symmetrize,
        forward_abel,
        inverse_abel,
    )
    from .pipeline import read_profile_csv, write_profile_csv

    x_m, values = read_profile_csv(args.infile)
    if args.direction == "forward":
        slc = forward_abel(RadialProfile(x_m, values))
        path = write_profile_csv(args.out, slc.y, slc.values, "y[um]")
    else:
        slc = ColumnSlice(x_m, values)
        if x_m[0] < 0.0 or args.center is not None:
            center = args.center * 1e-6 if args.center is not None else None
            slc = center_and_symmetrize(slc, center)
        prof = inverse_abel(slc, method=args.method, noise_reject=args.noise_reject)
        path = write_profile_csv(args.out, prof.rho, prof.values, "rho[um]")
    print(f"written {path}")
    return 0


def cmd_fit_gamma(args) -> int:
    from .lossfit import fit_gamma
    from .pipeline import atomic_write_text, read_decay_csv

    series = read_decay_csv(args.infile)
    fit = fit_gamma(series, window_fraction=args.window)
    payload = {
        "gamma[1/s]": fit.gamma,
        "gamma_stderr[1/s]": fit.gamma_stderr,
        "n0": fit.n0,
        "n_used": fit.n_used,
        "decaying": fit.decaying,
    }
    if args.out:
        atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print_kv(sorted(payload.items()))
    return 0


def cmd_fit_l3(args) -> int:
    from .lossfit import fit_l3
    from .pipeline import M6S_TO_CM6S, atomic_write_text, read_decay_csv

    cfg = _load_config(args)
    series = read_decay_csv(args.infile)
    fit = fit_l3(
        series,
        species=cfg.scenario.bosons,
        temperature=args.temperature_nk * 1.0e-9,
        n_f_peak=args.nf_peak / 1.0e-6,
        overlap_factor=args.overlap_factor,
    )
    payload = {
        "L3[cm^6/s]": fit.l3 * M6S_TO_CM6S,
        "L3_stderr[cm^6/s]": fit.l3_stderr * M6S_TO_CM6S,
        "n0": fit.n0,
        "temperature_nk": args.temperature_nk,
        "n_f_peak[cm^-3]": args.nf_peak,
        "overlap_factor": fit.overlap_factor,
    }
    if args.out:
        atomic_write_text(args.out, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print_kv(sorted(payload.items()))
    return 0


def cmd_smooth_l3(args) -> int:
    from .lossfit import smooth_l3
    from .pipeline import read_l3_points_csv, write_smoothed_csv

    a0, l3, sigma = read_l3_points_csv(args.infile)
    curve = smooth_l3(
        a0, l3, sigma, span=args.span, n_boot=args.boot, seed=args.seed
    )
    path = write_smoothed_csv(curve, args.out)
    _print_kv(
        [
            ("points", len(a0)),
            ("eval_range_a0", f"{curve.a_bf_a0[0]:.6g}..{curve.a_bf_a0[-1]:.6g}"),
            ("curve_csv", str(path)),
        ]
    )
    return 0


def cmd_fig(args) -> int:
    from .pipeline import emit_plot_data, load_ground_state, read_smoothed_csv, read_table, _column

    inputs: dict = {}
    if args.kind == "fig1b":
        if not args.ground_state:
            raise_missing("--ground-state is required for fig1b")
        inputs["ground_state"] = load_ground_state(args.ground_state)
        inputs["noise"] = args.noise
        inputs["seed"] = args.seed
    elif args.kind == "fig2a":
        if not args.infile:
            raise_missing("--in is required for fig2a (smoothed curve CSV)")
        inputs["smoothed"] = read_smoothed_csv(args.infile)
    elif args.kind == "fig2b":
        if not args.infile:
            raise_missing("--in is required for fig2b (gamma CSV)")
        meta, header, data = read_table(args.infile)
        a = _column(header, data, "a_bf", args.infile)
        g = _column(header, data, "gamma", args.infile)
        try:
            ge = _column(header, data, "gamma_err", args.infile)
        except Exception:
            ge = [0.0] * len(a)
        inputs["gamma_records"] = [
            {"a_bf_a0": float(ai), "gamma": float(gi), "gamma_stderr": float(ei)}
            for ai, gi, ei in zip(a, g, ge)
        ]
    else:
        if not args.infile:
            raise_missing("--in is required for fig3 (pipeline sweep CSV)")
        inputs["pipeline_csv"] = args.infile
    paths = emit_plot_data(args.kind, args.out, **inputs)
    for p in paths:
        print(f"written {p}")
    return 0


def raise_missing(message: str):
    from .errors import MissingInput

    raise MissingInput(message)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsep",
        description="Ground-state profiles, overlap factors and loss fits "
        "for a trapped Bose-Fermi mixture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="print the physical constants in use")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("solve", help="relax one ground state and save it")
    p.add_argument("--config", help="INI config file (defaults if omitted)")
    p.add_argument("--abf", type=float, help="interspecies scattering length, a0")
    p.add_argument("--b", type=float, help="magnetic field in G (alternative to --abf)")
    p.add_argument("--mode", choices=("full", "tf"), help="solver mode")
    p.add_argument("--out", help="output directory for the ground state")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="solve over the configured a_bf list")
    p.add_argument("--config", help="INI config file (defaults if omitted)")
    p.add_argument(
        "--mode",
        choices=("both", "full", "tf"),
        default="both",
        help="'both' runs the two-mode overlap pipeline (default)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("overlap", help="overlap report for a saved ground state")
    p.add_argument("--ground-state", required=True, help="directory from solve --out")
    p.add_argument("--alpha", type=float, default=None, help="thermal loss weight")
    p.add_argument("--l3", type=float, default=None, help="L3 in cm^6/s")
    p.add_argument("--out", help="write the full report as JSON")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("criterion", help="phase-separation threshold")
    p.add_argument("--config", help="INI config file (defaults if omitted)")
    p.add_argument("--abf", type=float, help="value to test against, a0")
    p.add_argument("--nf-peak", type=float, help="fermion peak density, cm^-3")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("abel", help="project or reconstruct a radial profile")
    p.add_argument("direction", choices=("forward", "inverse"))
    p.add_argument("--in", dest="infile", required=True, help="two-column CSV")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--method", choices=("dasch3", "onion"), default="dasch3")
    p.add_argument("--center", type=float, default=None,
                   help="slice center in um (auto-detected if omitted)")
    p.add_argument("--noise-reject", type=float, default=0.2,
                   help="negative-mass fraction treated as failure")
    p.set_defaults(func=cmd_abel)

    p = sub.add_parser("fit-gamma", help="initial loss rate from a decay series")
    p.add_argument("--in", dest="infile", required=True, help="CSV t[s],N[,sigma_N]")
    p.add_argument("--window", type=float, default=0.7,
                   help="fit points with N >= window * N(0)")
    p.add_argument("--out", help="write the fit record as JSON")
    p.set_defaults(func=cmd_fit_gamma)

    p = sub.add_parser("fit-l3", help="L3 from a thermal-cloud decay series")
    p.add_argument("--in", dest="infile", required=True, help="CSV t[s],N[,sigma_N]")
    p.add_argument("--config", help="INI config for the boson trap")
    p.add_argument("--temperature-nk", type=float, required=True)
    p.add_argument("--nf-peak", type=float, required=True,
                   help="fermion peak density, cm^-3")
    p.add_argument("--overlap-factor", type=float, default=1.0)
    p.add_argument("--out", help="write the fit record as JSON")
    p.set_defaults(func=cmd_fit_l3)

    p = sub.add_parser("smooth-l3", help="smooth L3(a_bf) with a confidence band")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV a_bf[a0],L3[cm^6/s][,sigma]")
    p.add_argument("--span", type=float, default=0.5)
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=True, help="output curve CSV")
    p.set_defaults(func=cmd_smooth_l3)

    p = sub.add_parser("fig", help="emit plot-ready CSVs")
    p.add_argument("kind", choices=("fig1b", "fig2a", "fig2b", "fig3"))
    p.add_argument("--in", dest="infile", help="input CSV (fig2a, fig2b, fig3)")
    p.add_argument("--ground-state", help="ground-state directory (fig1b)")
    p.add_argument("--noise", type=float, default=0.02, help="fig1b noise level")
    p.add_argument("--seed", type=int, default=0, help="fig1b noise seed")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fig)

    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    from .errors import InputError, NumericsError, OutputError, MixsepError

    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return 4
    except MixsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
