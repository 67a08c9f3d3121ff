"""Command-line front end.

Subcommands: coeffs, phi, extremal, sample, functionals, optimize, radius,
constants, convolution-check, search, report.  Flags follow the subcommand,
and each subcommand takes only the flags its handler reads, so a flag it
would ignore is a usage error.  Results go to stdout as canonical JSON (or
CSV with --csv, where the subcommand has a table); diagnostics go to stderr.
Exit codes: 0 success, 2 usage error (bad flags or values, a size over its
bound, or one too large to allocate), 3 verification failure (a failed
report row, an enforced search flag or containment failure, or a numerical
self-check raising RuntimeError).
"""

from __future__ import annotations

import argparse
import cmath
import sys
from dataclasses import asdict

# Each handler imports its own modules, so a process loads what its
# subcommand runs.
from .serialize import canonical_json, csv_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

DEFAULT_ORDER = 16
# validation.DEFAULT_SEED, copied: importing validation here would load
# numpy on every cold start.
DEFAULT_SEED = 0xC0FFEE
MAX_ORDER = 64
#: Most members one command synthesises (sample --count, search and report
#: --samples): 100 000 is about 10 s of search work.
MAX_COUNT = 100_000
#: Bounds of the other size flags, checked before anything is allocated; at
#: its bound a flag's arrays take at most about 150 MB.
MAX_SAMPLES = 100_000  # phi and constants --samples
MAX_THETA_SAMPLES = 1_000_000  # convolution-check --theta-samples
MAX_Z_NODES = 1_000  # convolution-check --z-radii and --z-angles, each
#: optimize --grid, by axis count.  Every objective but g_h3 evaluates its
#: whole grid, so the two-axis bound also bounds time: h4 and h5, the slowest,
#: take under a minute at 30 000 (9 x 10^8 nodes).
MAX_GRID = {1: 1_000_000, 2: 30_000, 3: 2_000}


def _emit(args, payload, csv_header=None, csv_rows=None) -> None:
    if csv_header is not None and args.csv:
        sys.stdout.write(csv_lines(csv_header, csv_rows))
    else:
        sys.stdout.write(canonical_json(payload))


def _rational_guess(x: float) -> str:
    from fractions import Fraction
    frac = Fraction(x).limit_denominator(10**6)
    return f"{frac.numerator}/{frac.denominator}"


def _at_most(flag: str, value: int | None, bound: int) -> int | None:
    if value is not None and value > bound:
        raise ValueError(f"{flag} must be at most {bound}")
    return value


def _objective(name: str) -> str:
    from . import objectives
    if name not in objectives.OBJECTIVES:
        choices = ", ".join(map(repr, sorted(objectives.OBJECTIVES)))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {choices})")
    return name


def _point(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        z = None
    if z is None or not cmath.isfinite(z):
        raise ValueError("--z must be a finite complex number")
    return z


def _require_order(args, least: int) -> None:
    if args.order < least:
        raise ValueError(f"{args.command} needs --order of at least {least}")


def _samples(args, what: str, least: int) -> int:
    """--samples, 4096 when omitted; ``what`` names the subcommand and mode."""
    samples = _at_most("--samples", args.samples or 4096, MAX_SAMPLES)
    if samples < least:
        raise ValueError(f"{what} needs --samples of at least {least}")
    return samples


def _max_atoms(args) -> int:
    """--max-atoms, caratheodory.MAX_ATOMS when omitted."""
    from . import caratheodory
    bound = caratheodory.MAX_ATOMS
    max_atoms = bound if args.max_atoms is None else args.max_atoms
    if not 1 <= max_atoms <= bound:
        raise ValueError(f"--max-atoms must lie in [1, {bound}]")
    return max_atoms


def _member_from_args(args, least_order: int):
    if args.n is not None and (args.seed is not None or args.max_atoms is not None):
        raise ValueError("--n takes no --seed or --max-atoms")
    _require_order(args, max(least_order, args.n or 0))  # f_n needs a_n
    if args.n is not None:
        from . import extremal
        return extremal.build_extremal(args.n, args.order)
    from . import caratheodory
    m = caratheodory.sample_measure(
        DEFAULT_SEED if args.seed is None else args.seed, _max_atoms(args))
    return caratheodory.member_from_measure(m, args.order)


# -- subcommand handlers ----------------------------------------------------


def _cmd_coeffs(args) -> int:
    from . import generator
    from .series import elementary
    if args.function == "phi":
        c = generator.phi_series(args.order)
    elif args.function == "g":
        c = generator.g_series(args.order)
    else:
        c = elementary(args.function, args.order)
    coeffs = c.tolist()
    _emit(args, {"function": args.function, "order": args.order, "coeffs": coeffs},
          csv_header=["n", "re", "im"],
          csv_rows=[[i, c.real, c.imag] for i, c in enumerate(coeffs)])
    return EXIT_OK


def _cmd_phi(args) -> int:
    from . import generator
    if args.circle is not None:
        sample = generator.sample_circle(
            args.circle, _samples(args, "phi --circle", generator.CIRCLE_MIN_SAMPLES))
        points = [[float(t), v.real, v.imag]
                  for t, v in zip(sample.thetas, sample.values)]
        _emit(args, {"radius": sample.radius, "count": sample.count, "points": points},
              csv_header=["theta", "re", "im"], csv_rows=points)
        return EXIT_OK
    if args.bounds:
        bounds = asdict(generator.phi_global_bounds(
            _samples(args, "phi --bounds", generator.BOUNDS_MIN_SAMPLES)))
        _emit(args, bounds, csv_header=list(bounds), csv_rows=[list(bounds.values())])
        return EXIT_OK
    if args.samples is not None:
        raise ValueError("--samples needs --bounds or --circle")
    z = _point(args.z) if args.z is not None else 0j
    try:
        val = generator.phi_eval(z)
    except OverflowError:
        raise ValueError("--z is out of range: cos z overflows") from None
    _emit(args, {"z": z, "value": val},
          csv_header=["z_re", "z_im", "re", "im"],
          csv_rows=[[z.real, z.imag, val.real, val.imag]])
    return EXIT_OK


def _cmd_extremal(args) -> int:
    from . import extremal
    _require_order(args, args.n)
    member = extremal.build_extremal(args.n, args.order)
    coeffs = member.coeffs.tolist()
    guesses = [_rational_guess(c.real) for c in coeffs]
    payload = {"n": args.n, "order": args.order, "provenance": member.provenance,
               "coefficients": coeffs, "rational_guesses": guesses}
    _emit(args, payload,
          csv_header=["k", "re", "im", "rational_guess"],
          csv_rows=[[k, c.real, c.imag, guess]
                    for k, (c, guess) in enumerate(zip(coeffs, guesses))])
    return EXIT_OK


def _cmd_sample(args) -> int:
    from . import caratheodory
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    _at_most("--count", args.count, MAX_COUNT)
    _require_order(args, 2)  # the CSV rows carry a2
    max_atoms = _max_atoms(args)
    measures = [caratheodory.sample_measure(args.seed + i, max_atoms)
                for i in range(args.count)]
    out = []
    for start in range(0, args.count, caratheodory.BLOCK):
        block = measures[start:start + caratheodory.BLOCK]
        coeffs = caratheodory.member_rows(*caratheodory.pack_measures(block), args.order)
        out += [{"seed": m.seed, "atoms": [list(a) for a in m.atoms], "coefficients": c}
                for m, c in zip(block, coeffs.tolist())]
    _emit(args, out,
          csv_header=["seed", "atom_count", "a2_re", "a2_im"],
          csv_rows=[[d["seed"], len(d["atoms"]), d["coefficients"][2].real,
                     d["coefficients"][2].imag] for d in out])
    return EXIT_OK


def _cmd_functionals(args) -> int:
    from . import functionals
    member = _member_from_args(args, 5)
    rep = functionals.compute_report(member, convolution=args.convolution)
    payload = {"provenance": member.provenance, "order": member.order, **asdict(rep)}
    payload["fs"] = {f"{mu:g}": v for mu, v in rep.fs.items()}
    _emit(args, payload,
          csv_header=["name", "value"],
          csv_rows=[["t21", rep.t21], ["t31", rep.t31],
                    ["abs_h22", abs(rep.h22)], ["abs_h31", abs(rep.h31)]])
    return EXIT_OK if rep.enforced_flags_pass() else EXIT_VERIFY


def _cmd_optimize(args) -> int:
    from . import objectives
    _at_most("--grid", args.grid, MAX_GRID[len(objectives.OBJECTIVES[args.objective][1])])
    argmax, value = objectives.maximize_box(args.objective, grid=args.grid)
    payload = {"objective": args.objective, "argmax": list(argmax),
               "value": value, "grid": args.grid or "default", "refined": True}
    _emit(args, payload,
          csv_header=["objective", "value"] + [f"x{i}" for i in range(len(argmax))],
          csv_rows=[[args.objective, value] + list(argmax)])
    return EXIT_OK


def _cmd_radius(args) -> int:
    from . import radii
    res = radii.solve_radius(args.kind, args.param)
    payload = {"kind": args.kind, "param": args.param, **asdict(res)}
    _emit(args, payload,
          csv_header=["kind", "param", "r", "residual"],
          csv_rows=[[args.kind, args.param, res.r, res.residual]])
    if res.iterations > 0 and res.residual >= args.tolerance:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_constants(args) -> int:
    from . import generator, radii, subordination
    from .published import PUBLISHED
    samples = _samples(args, "constants",
                       max(radii.STP_MIN_SAMPLES, generator.BOUNDS_MIN_SAMPLES))
    # (name, computed value, report row whose published value applies)
    entries = [(rep.name, rep.computed, rep.name)
               for rep in subordination.gamma_constants().values()]
    entries += [(f"threshold_{t}", subordination.subordination_threshold(t), None)
                for t in ("exp", "cardioid", "sine")]
    par = subordination.parabola_b0()
    entries += [("parabola_min_value", par.min_value, "parabola_min_value"),
                ("parabola_theta", par.theta_min, "parabola_theta"),
                ("b0", par.b0, "parabola_b0")]
    entries += [(name, val, None)
                for name, val in subordination.misc_constants().items()]
    inc = radii.inclusion_constants()
    entries += [("kst_threshold", inc.kst_threshold, "kst_threshold"),
                ("mu_beta_threshold", inc.mu_beta_threshold, None)]
    t0, a0 = radii.stp_constant(samples)
    entries += [("stp_theta0", t0, "stp_theta0"), ("stp_a0", a0, "stp_a0")]
    b = generator.phi_global_bounds(samples)
    entries.append(("gamma0", b.im_abs_max, "gamma0"))
    rows = []
    for name, computed, row in entries:
        paper = None if row is None else PUBLISHED[row][0]
        rows.append({"name": name, "computed": computed, "paper_value": paper,
                     "abs_diff": None if paper is None else abs(computed - paper)})
    _emit(args, rows, csv_header=list(rows[0]), csv_rows=[list(r.values()) for r in rows])
    return EXIT_OK


def _cmd_convolution_check(args) -> int:
    from . import functionals
    _at_most("--z-radii", args.z_radii, MAX_Z_NODES)
    _at_most("--z-angles", args.z_angles, MAX_Z_NODES)
    theta_samples = _at_most("--theta-samples", args.theta_samples, MAX_THETA_SAMPLES)
    member = _member_from_args(args, 1)
    if theta_samples is None:
        theta_samples = functionals.THETA_SAMPLES
    margin = functionals.convolution_margin(member, theta_samples=theta_samples,
                                            z_radii=args.z_radii,
                                            z_angles=args.z_angles)
    satisfied, worst = functionals.sufficient_coefficient_check(member)
    payload = {"provenance": member.provenance, "margin": margin,
               "sufficient_condition_satisfied": satisfied,
               "sufficient_condition_value": worst}
    _emit(args, payload,
          csv_header=["provenance", "margin", "sufficient_satisfied",
                      "sufficient_value"],
          csv_rows=[[member.provenance, margin, satisfied, worst]])
    return EXIT_OK


def _cmd_search(args) -> int:
    from . import validation
    _require_order(args, 5)
    summary = validation.run_search(validation.SearchConfig(
        count=_at_most("--samples", args.samples or 10_000, MAX_COUNT), seed=args.seed,
        order=args.order))
    _emit(args, asdict(summary))
    failed = summary.enforced_failures() or summary.containment_failures
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_report(args) -> int:
    from . import report as report_mod
    rows = report_mod.discrepancy_report(
        search_count=_at_most("--samples", args.samples or 2000, MAX_COUNT), seed=args.seed)
    out = [asdict(r) for r in rows]
    # The CSV table leaves out the last field, the free-text note.
    _emit(args, out, csv_header=list(out[0])[:-1],
          csv_rows=[list(r.values())[:-1] for r in out])
    return EXIT_OK if report_mod.report_ok(rows) else EXIT_VERIFY


# -- parser -----------------------------------------------------------------

# The shared flags.  Each subcommand takes only those its handler reads.
_FLAGS = {
    "order": dict(type=int, default=DEFAULT_ORDER,
                  help=f"truncation order (default {DEFAULT_ORDER}, max {MAX_ORDER})"),
    "seed": dict(type=lambda s: int(s, 0), default=DEFAULT_SEED,
                 help="base seed for anything randomized (default 0xC0FFEE)"),
    "samples": dict(type=int, help="sample count (per-command default when omitted)"),
    "csv": dict(action="store_true", help="emit CSV instead of JSON"),
    "tolerance": dict(type=float, default=1e-12,
                      help="residual tolerance for a verification exit (default 1e-12)"),
}


def _subcommand(sub, name, handler, summary, flags):
    p = sub.add_parser(name, help=summary)
    p.set_defaults(handler=handler)
    for flag in flags:
        p.add_argument(f"--{flag}", **_FLAGS[flag])
    return p


def _member_options(p) -> None:
    # --seed and --max-atoms draw a random member and --n replaces it, so
    # _member_from_args rejects --n with either; None means "not given".
    p.add_argument("--n", type=int, help="use the lacunary extremal f_n")
    p.add_argument("--seed", **dict(_FLAGS["seed"], default=None))
    p.add_argument("--max-atoms", type=int, dest="max_atoms",
                   help="atoms of the random member (default: the most allowed)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="secstar",
        description="Numerical workbench for the starlike class generated by "
                    "(1+z)/cos z.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "coeffs", _cmd_coeffs, "series coefficients of a named function",
                    ["order", "csv"])
    p.add_argument("--function", default="phi",
                   choices=["phi", "g", "sec", "cos", "sin", "exp",
                            "geometric", "identity"])

    p = _subcommand(sub, "phi", _cmd_phi, "evaluate the generator or its bounds",
                    ["samples", "csv"])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--z", help="evaluation point, e.g. '0.5+0.25j' (default 0); "
                                  "write a value that starts with '-' as --z=-0.3-0.7j")
    mode.add_argument("--bounds", action="store_true",
                      help="global image bounds instead of a point value")
    mode.add_argument("--circle", type=float,
                      help="sample the circle |z| = R (CSV has theta,re,im)")

    p = _subcommand(sub, "extremal", _cmd_extremal,
                    "coefficients of the lacunary extremal f_n", ["order", "csv"])
    p.add_argument("--n", type=int, default=2)

    p = _subcommand(sub, "sample", _cmd_sample, "seeded random members",
                    ["order", "seed", "csv"])
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-atoms", type=int, dest="max_atoms")

    p = _subcommand(sub, "functionals", _cmd_functionals,
                    "coefficient functionals of one member", ["order", "csv"])
    _member_options(p)
    p.add_argument("--convolution", action="store_true",
                   help="include the convolution margin (slower)")

    p = _subcommand(sub, "optimize", _cmd_optimize, "maximize a named bound surface",
                    ["csv"])
    p.add_argument("--objective", required=True, type=_objective,
                   help="bound surface to maximize; an unknown name lists them all")
    p.add_argument("--grid", type=int, default=None)

    p = _subcommand(sub, "radius", _cmd_radius, "solve a radius problem",
                    ["tolerance", "csv"])
    p.add_argument("kind", choices=["starlike_order", "mu_beta", "convexity",
                                    "m_starlike"])
    p.add_argument("param", type=float)

    _subcommand(sub, "constants", _cmd_constants,
                "subordination and inclusion constants", ["samples", "csv"])

    p = _subcommand(sub, "convolution-check", _cmd_convolution_check,
                    "convolution nonvanishing margin", ["order", "csv"])
    _member_options(p)
    p.add_argument("--theta-samples", type=int, dest="theta_samples")
    p.add_argument("--z-radii", type=int, default=24, dest="z_radii")
    p.add_argument("--z-angles", type=int, default=96, dest="z_angles")

    _subcommand(sub, "search", _cmd_search, "seeded random-search validation summary",
                ["samples", "seed", "order"])
    _subcommand(sub, "report", _cmd_report, "consolidated discrepancy report",
                ["samples", "seed", "csv"])
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    order, seed, samples, tolerance, n = (
        getattr(args, flag, None) for flag in ("order", "seed", "samples", "tolerance", "n"))
    if order is not None and not 0 <= order <= MAX_ORDER:
        ap.error(f"--order must lie in [0, {MAX_ORDER}]")
    if seed is not None and seed < 0:
        ap.error("--seed must be a non-negative integer")
    if samples is not None and samples < 1:
        ap.error("--samples must be at least 1")
    if tolerance is not None and not tolerance >= 0:  # also rejects NaN
        ap.error("--tolerance must be a non-negative number")
    if n is not None and not 2 <= n <= MAX_ORDER:  # f_n needs a_n, so n <= --order
        ap.error(f"--n must lie in [2, {MAX_ORDER}]")
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        # MemoryError: a grid or sample count too large to allocate.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # The numerical self-checks (the series tail of g, sampled ranges,
        # missing minima) raise RuntimeError: a verification failure, not
        # bad input.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
