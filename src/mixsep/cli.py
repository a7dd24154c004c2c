"""Command-line interface.

Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 output failure.
Importing the package already loads numpy and every module used here; scipy
loads only at a full-mode solve's first radial line solve. BLAS threads are
set by the usual OPENBLAS_NUM_THREADS/OMP_NUM_THREADS before Python starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import config
from .abel import ColumnSlice, RadialProfile, center_and_symmetrize, forward_abel, inverse_abel
from .constants import A_BOHR, ATOMIC_MASS, HBAR, K_B
from .errors import InputError, MixsepError, NumericsError, OutputError
from .lossfit import fit_gamma, fit_l3, smooth_l3
from .overlap import omega_eff_from_ground_state
from .physics import (
    critical_scattering_length,
    fermi_wavenumber,
    is_phase_separated,
    scattering_length,
)
from .pipeline import (
    M3_TO_CM3,
    M6S_TO_CM6S,
    PLOT_KINDS,
    _convergence,
    emit_plot_data,
    load_ground_state,
    read_decay_csv,
    read_l3_points_csv,
    read_profile_csv,
    run_figure3_pipeline,
    run_overlap_sweep,
    save_ground_state,
    write_json,
    write_profile_csv,
    write_smoothed_csv,
)
from .profiles import fra_peak_quantities, grid_for_scenario
from .solver import minimize

# Why a returned state is not converged: only a full-mode solve returns one
# (a tf-mode solve that finds no state raises a NumericsError).
_NOT_CONVERGED = "hit max_iter before converging"


def _finite(raw: str) -> float:
    """argparse type of every float option: config's finite float, else exit 2."""
    try:
        return config._finite(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}: {raw!r}") from None


def _seed(raw: str) -> int:
    """argparse type of every --seed option: a non-negative integer, else exit 2."""
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {raw!r}")
    return value


def _print_kv(pairs) -> None:
    for key, val in pairs:
        if isinstance(val, float):
            print(f"{key} = {val:.12g}")
        else:
            print(f"{key} = {val}")


def _load_config(args):
    if getattr(args, "config", None):
        return config.load_config(args.config)
    return config.default_config()


# ---------------------------------------------------------------------------
# command handlers


def cmd_constants(args) -> int:
    payload = {"hbar[J*s]": HBAR, "k_B[J/K]": K_B, "a_bohr[m]": A_BOHR,
               "atomic_mass[kg]": ATOMIC_MASS}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_solve(args) -> int:
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
            *_convergence(gs).items(),
            ("n_b_peak_cm3", gs.n_b.peak() * M3_TO_CM3),
            ("n_f_peak_cm3", gs.n_f.peak() * M3_TO_CM3),
            ("n_f_center_cm3", gs.n_f.center_value() * M3_TO_CM3),
        ]
    )
    if args.out:
        print(f"ground state written to {args.out}")
    if not gs.converged:
        print(f"solver {_NOT_CONVERGED}", file=sys.stderr)
        return 3
    return 0


def _progress(mode, idx, a_bf, gs) -> None:
    if gs is None:
        status = "FAILED"
    else:
        status = f"{'converged' if gs.converged else 'not converged'} in {gs.iterations} steps"
    print(f"[{mode}] point {idx + 1}: a_bf = {a_bf / A_BOHR:.6g} a0, {status}",
          file=sys.stderr)


def cmd_sweep(args) -> int:
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
        reason = p["error"] or _NOT_CONVERGED
        print(f"[{p['mode']}] a_bf = {p['a_bf_a0']:.6g} a0: {reason}", file=sys.stderr)
    return 3 if failed else 0


def cmd_overlap(args) -> int:
    gs = load_ground_state(args.ground_state)
    kwargs = {} if args.l3 is None else {"l3": args.l3 * 1.0e-12}
    report = omega_eff_from_ground_state(gs, alpha=args.alpha, **kwargs)
    payload = report.as_dict()
    if args.out:
        write_json(args.out, payload)
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


def cmd_abel_forward(args) -> int:
    slc = forward_abel(RadialProfile(*read_profile_csv(args.infile)))
    print(f"written {write_profile_csv(args.out, slc.y, slc.values, 'y[um]')}")
    return 0


def cmd_abel_inverse(args) -> int:
    slc = ColumnSlice(*read_profile_csv(args.infile))
    if slc.y[0] < 0.0 or args.center is not None:
        center = args.center * 1e-6 if args.center is not None else None
        slc = center_and_symmetrize(slc, center)
    prof = inverse_abel(slc, method=args.method, noise_reject=args.noise_reject)
    print(f"written {write_profile_csv(args.out, prof.rho, prof.values, 'rho[um]')}")
    return 0


def cmd_fit_gamma(args) -> int:
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
        write_json(args.out, payload)
    _print_kv(sorted(payload.items()))
    return 0


def cmd_fit_l3(args) -> int:
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
        write_json(args.out, payload)
    _print_kv(sorted(payload.items()))
    return 0


def cmd_smooth_l3(args) -> int:
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
    _, name, read, _ = PLOT_KINDS[args.kind]
    extra = {"noise": args.noise, "seed": args.seed} if args.kind == "fig1b" else {}
    for p in emit_plot_data(args.kind, args.out, **{name: read(args.source)}, **extra):
        print(f"written {p}")
    return 0


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
    a_bf = p.add_mutually_exclusive_group()
    a_bf.add_argument("--abf", type=_finite, help="interspecies scattering length, a0")
    a_bf.add_argument("--b", type=_finite, help="magnetic field in G, mapped through [resonance]")
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
    p.add_argument("--alpha", type=_finite, default=None, help="thermal loss weight")
    p.add_argument("--l3", type=_finite, default=None, help="L3 in cm^6/s")
    p.add_argument("--out", help="write the full report as JSON")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("criterion", help="phase-separation threshold")
    p.add_argument("--config", help="INI config file (defaults if omitted)")
    p.add_argument("--abf", type=_finite, help="value to test against, a0")
    p.add_argument("--nf-peak", type=_finite, help="fermion peak density, cm^-3")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("abel", help="project or reconstruct a radial profile")
    directions = p.add_subparsers(dest="direction", required=True)
    forward = directions.add_parser("forward", help="radial profile to its column slice")
    inverse = directions.add_parser("inverse", help="column slice to its radial profile")
    for d, func in ((forward, cmd_abel_forward), (inverse, cmd_abel_inverse)):
        d.add_argument("--in", dest="infile", required=True, help="two-column CSV")
        d.add_argument("--out", required=True, help="output CSV")
        d.set_defaults(func=func)
    inverse.add_argument("--method", choices=("dasch3", "onion"), default="dasch3")
    inverse.add_argument("--center", type=_finite, default=None,
                         help="slice center in um (auto-detected if omitted)")
    inverse.add_argument("--noise-reject", type=_finite, default=0.2,
                         help="negative-mass fraction treated as failure")

    p = sub.add_parser("fit-gamma", help="initial loss rate from a decay series")
    p.add_argument("--in", dest="infile", required=True, help="CSV t[s],N[,sigma_N]")
    p.add_argument("--window", type=_finite, default=0.7,
                   help="fit points with N >= window * N(0)")
    p.add_argument("--out", help="write the fit record as JSON")
    p.set_defaults(func=cmd_fit_gamma)

    p = sub.add_parser("fit-l3", help="L3 from a thermal-cloud decay series")
    p.add_argument("--in", dest="infile", required=True, help="CSV t[s],N[,sigma_N]")
    p.add_argument("--config", help="INI config for the boson trap")
    p.add_argument("--temperature-nk", type=_finite, required=True)
    p.add_argument("--nf-peak", type=_finite, required=True,
                   help="fermion peak density, cm^-3")
    p.add_argument("--overlap-factor", type=_finite, default=1.0)
    p.add_argument("--out", help="write the fit record as JSON")
    p.set_defaults(func=cmd_fit_l3)

    p = sub.add_parser("smooth-l3", help="smooth L3(a_bf) with a confidence band")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV a_bf[a0],L3[cm^6/s][,sigma]")
    p.add_argument("--span", type=_finite, default=0.5)
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--seed", type=_seed, default=42)
    p.add_argument("--out", required=True, help="output curve CSV")
    p.set_defaults(func=cmd_smooth_l3)

    p = sub.add_parser("fig", help="emit plot-ready CSVs")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (_, _, _, what) in PLOT_KINDS.items():
        k = kinds.add_parser(kind, help=f"plot data from a {what}")
        if kind == "fig1b":
            k.add_argument("--ground-state", dest="source", metavar="DIR", required=True,
                           help=what)
            k.add_argument("--noise", type=_finite, default=0.02,
                           help="noise on every sample, a share of the column peak")
            k.add_argument("--seed", type=_seed, default=0, help="noise seed")
        else:
            k.add_argument("--in", dest="source", metavar="CSV", required=True, help=what)
        k.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fig)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
