"""Command-line front end.

Subcommands: coeffs, phi, extremal, sample, functionals, optimize, radius,
constants, convolution-check, search, report.  Results go to stdout as
canonical JSON (or CSV with --csv); diagnostics go to stderr.  Exit codes:
0 success, 2 usage error, 3 verification failure (a failed report row, an
enforced search flag or containment failure, or a numerical self-check
raising RuntimeError).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from fractions import Fraction

from . import caratheodory, extremal, functionals, generator, objectives
from . import radii, report as report_mod, subordination, validation
from .published import PUBLISHED
from .serialize import canonical_json, complex_pair, csv_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3

DEFAULT_ORDER = 16
DEFAULT_SEED = 0xC0FFEE
MAX_ORDER = 64


def _emit(args, payload, csv_header=None, csv_rows=None) -> None:
    if args.csv and csv_header is not None:
        sys.stdout.write(csv_lines(csv_header, csv_rows))
    else:
        sys.stdout.write(canonical_json(payload))


def _rational_guess(x: float) -> str:
    frac = Fraction(x).limit_denominator(10**6)
    return f"{frac.numerator}/{frac.denominator}"


def _member_from_args(args) -> extremal.ClassMember:
    if getattr(args, "n", None) is not None:
        return extremal.build_extremal(args.n, args.order)
    m = caratheodory.sample_measure(args.seed, args.max_atoms)
    return caratheodory.member_from_measure(m, args.order)


# -- subcommand handlers ----------------------------------------------------


def _cmd_coeffs(args) -> int:
    from .series import elementary
    if args.function in ("cos", "sin", "exp", "geometric", "identity"):
        s = elementary(args.function, args.order)
    elif args.function == "sec":
        s = 1.0 / elementary("cos", args.order)
    elif args.function == "phi":
        s = generator.phi_series(args.order)
    else:
        s = generator.g_series(args.order)
    coeffs = [complex_pair(c) for c in s.coeffs]
    _emit(args, {"function": args.function, "order": args.order, "coeffs": coeffs},
          csv_header=["n", "re", "im"],
          csv_rows=[[i, c[0], c[1]] for i, c in enumerate(coeffs)])
    return EXIT_OK


def _cmd_phi(args) -> int:
    if args.circle is not None:
        sample = generator.sample_circle(args.circle, args.samples or 4096)
        points = [[float(t), v.real, v.imag]
                  for t, v in zip(sample.thetas, sample.values)]
        _emit(args, {"radius": sample.radius, "count": sample.count, "points": points},
              csv_header=["theta", "re", "im"], csv_rows=points)
        return EXIT_OK
    if args.bounds:
        b = generator.phi_global_bounds(args.samples or 4096)
        _emit(args, {"re_min": b.re_min, "re_max": b.re_max,
                     "im_abs_max": b.im_abs_max, "arg_abs_max": b.arg_abs_max},
              csv_header=["re_min", "re_max", "im_abs_max", "arg_abs_max"],
              csv_rows=[[b.re_min, b.re_max, b.im_abs_max, b.arg_abs_max]])
        return EXIT_OK
    z = complex(args.z.replace(" ", "")) if args.z is not None else 0j
    val = generator.phi_eval(z)
    _emit(args, {"z": complex_pair(z), "value": complex_pair(val)},
          csv_header=["z_re", "z_im", "re", "im"],
          csv_rows=[[z.real, z.imag, val.real, val.imag]])
    return EXIT_OK


def _cmd_extremal(args) -> int:
    member = extremal.build_extremal(args.n, args.order)
    coeffs = member.coeffs.coeffs
    payload = {
        "n": args.n,
        "order": args.order,
        "provenance": member.provenance,
        "coefficients": [complex_pair(c) for c in coeffs],
        "rational_guesses": [_rational_guess(c.real) for c in coeffs],
    }
    _emit(args, payload,
          csv_header=["k", "re", "im", "rational_guess"],
          csv_rows=[[k, c.real, c.imag, _rational_guess(c.real)]
                    for k, c in enumerate(coeffs)])
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    if args.order < 2:
        # The CSV rows carry a2.
        raise ValueError("sample needs --order of at least 2")
    measures = [caratheodory.sample_measure(args.seed + i, args.max_atoms)
                for i in range(args.count)]
    out = []
    for m, member in zip(measures,
                         caratheodory.members_from_measures(measures, args.order)):
        out.append({
            "seed": int(m.seed),
            "atoms": [[w, a] for w, a in m.atoms],
            "coefficients": [complex_pair(c) for c in member.coeffs.coeffs],
        })
    _emit(args, out,
          csv_header=["seed", "atom_count", "a2_re", "a2_im"],
          csv_rows=[[d["seed"], len(d["atoms"]), d["coefficients"][2][0],
                     d["coefficients"][2][1]] for d in out])
    return EXIT_OK


def _cmd_functionals(args) -> int:
    member = _member_from_args(args)
    rep = functionals.compute_report(member, convolution=args.convolution)
    payload = {
        "provenance": member.provenance,
        "order": member.order,
        "a2": complex_pair(rep.a2),
        "a3": complex_pair(rep.a3),
        "a4": complex_pair(rep.a4),
        "a5": complex_pair(rep.a5),
        "h22": complex_pair(rep.h22),
        "h31": complex_pair(rep.h31),
        "t21": rep.t21,
        "t31": rep.t31,
        "fs": {f"{mu:g}": v for mu, v in rep.fs.items()},
        "coeff_sum_margin": rep.coeff_sum_margin,
        "convolution_margin": rep.convolution_margin,
        "flags": rep.flags,
    }
    _emit(args, payload,
          csv_header=["name", "value"],
          csv_rows=[["t21", rep.t21], ["t31", rep.t31],
                    ["abs_h22", abs(rep.h22)], ["abs_h31", abs(rep.h31)]])
    return EXIT_OK if rep.enforced_flags_pass() else EXIT_VERIFY


def _cmd_optimize(args) -> int:
    argmax, value = objectives.maximize_box(args.objective, grid=args.grid)
    payload = {"objective": args.objective, "argmax": list(argmax),
               "value": value, "grid": args.grid or "default", "refined": True}
    _emit(args, payload,
          csv_header=["objective", "value"] + [f"x{i}" for i in range(len(argmax))],
          csv_rows=[[args.objective, value] + list(argmax)])
    return EXIT_OK


def _cmd_radius(args) -> int:
    res = radii.solve_radius(args.kind, args.param)
    payload = {"kind": args.kind, "param": args.param, "r": res.r,
               "residual": res.residual, "bracket": list(res.bracket),
               "iterations": res.iterations}
    _emit(args, payload,
          csv_header=["kind", "param", "r", "residual"],
          csv_rows=[[args.kind, args.param, res.r, res.residual]])
    if res.iterations > 0 and res.residual >= args.tolerance:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_constants(args) -> int:
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
    t0, a0 = radii.stp_constant(args.samples or 4096)
    entries += [("stp_theta0", t0, "stp_theta0"), ("stp_a0", a0, "stp_a0")]
    b = generator.phi_global_bounds(args.samples or 4096)
    entries.append(("gamma0", b.im_abs_max, "gamma0"))
    rows = []
    for name, computed, row in entries:
        paper = None if row is None else PUBLISHED[row][0]
        rows.append({"name": name, "computed": computed, "paper_value": paper,
                     "abs_diff": None if paper is None else abs(computed - paper)})
    _emit(args, rows,
          csv_header=["name", "computed", "paper_value", "abs_diff"],
          csv_rows=[[r["name"], r["computed"],
                     "" if r["paper_value"] is None else r["paper_value"],
                     "" if r["abs_diff"] is None else r["abs_diff"]]
                    for r in rows])
    return EXIT_OK


def _cmd_convolution_check(args) -> int:
    member = _member_from_args(args)
    margin = functionals.convolution_margin(member,
                                            theta_samples=args.theta_samples,
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
    summary = validation.run_search(validation.SearchConfig(
        count=args.samples or 10_000, seed=args.seed, order=args.order))
    _emit(args, asdict(summary))
    failed = summary.enforced_failures() or summary.containment_failures
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_report(args) -> int:
    rows = report_mod.discrepancy_report(search_count=args.samples or 2000,
                                         seed=args.seed)
    _emit(args, [asdict(r) for r in rows],
          csv_header=["constant_name", "paper_value", "computed_value",
                      "abs_diff", "status", "tolerance", "expected_status"],
          csv_rows=[[r.constant_name, r.paper_value, r.computed_value,
                     r.abs_diff, r.status, r.tolerance, r.expected_status]
                    for r in rows])
    return EXIT_OK if report_mod.report_ok(rows) else EXIT_VERIFY


# -- parser -----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, top_level: bool) -> None:
    # On subparsers the defaults are SUPPRESS so flags given after the
    # subcommand override the top-level values instead of resetting them.
    d = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    p.add_argument("--order", type=int, default=d(DEFAULT_ORDER),
                   help=f"truncation order (default {DEFAULT_ORDER}, max {MAX_ORDER})")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=d(DEFAULT_SEED),
                   help="base seed for anything randomized (default 0xC0FFEE)")
    p.add_argument("--samples", type=int, default=d(None),
                   help="sample count for scans and searches "
                        "(per-command defaults when omitted)")
    p.add_argument("--csv", action="store_true", default=d(False),
                   help="emit CSV instead of JSON")
    p.add_argument("--tolerance", type=float, default=d(1e-12),
                   help="residual tolerance for verification exits")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="secstar",
        description="Numerical workbench for the starlike class generated by "
                    "(1+z)/cos z.")
    _add_common(ap, top_level=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="series coefficients of a named function")
    p.add_argument("--function", default="phi",
                   choices=["phi", "g", "sec", "cos", "sin", "exp",
                            "geometric", "identity"])
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("phi", help="evaluate the generator or its bounds")
    p.add_argument("--z", help="evaluation point, e.g. '0.5+0.25j'")
    p.add_argument("--bounds", action="store_true",
                   help="global image bounds instead of a point value")
    p.add_argument("--circle", type=float,
                   help="sample the circle |z| = R (CSV has theta,re,im)")
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_phi)

    p = sub.add_parser("extremal", help="coefficients of the lacunary extremal f_n")
    p.add_argument("--n", type=int, default=2)
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_extremal)

    p = sub.add_parser("sample", help="seeded random members")
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-atoms", type=int, default=8, dest="max_atoms")
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("functionals", help="coefficient functionals of one member")
    p.add_argument("--n", type=int, help="use the lacunary extremal f_n")
    p.add_argument("--max-atoms", type=int, default=8, dest="max_atoms")
    p.add_argument("--convolution", action="store_true",
                   help="include the convolution margin (slower)")
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_functionals)

    p = sub.add_parser("optimize", help="maximize a named bound surface")
    p.add_argument("--objective", required=True,
                   choices=sorted(objectives.OBJECTIVES))
    p.add_argument("--grid", type=int, default=None)
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_optimize)

    p = sub.add_parser("radius", help="solve a radius problem")
    p.add_argument("kind", choices=["starlike_order", "mu_beta", "convexity",
                                    "m_starlike"])
    p.add_argument("param", type=float)
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_radius)

    p = sub.add_parser("constants", help="subordination and inclusion constants")
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_constants)

    p = sub.add_parser("convolution-check", help="convolution nonvanishing margin")
    p.add_argument("--n", type=int, help="use the lacunary extremal f_n")
    p.add_argument("--max-atoms", type=int, default=8, dest="max_atoms")
    p.add_argument("--theta-samples", type=int, default=720, dest="theta_samples")
    p.add_argument("--z-radii", type=int, default=24, dest="z_radii")
    p.add_argument("--z-angles", type=int, default=96, dest="z_angles")
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_convolution_check)

    p = sub.add_parser("search", help="seeded random-search validation summary")
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("report", help="consolidated discrepancy report")
    _add_common(p, top_level=False)
    p.set_defaults(handler=_cmd_report)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not 0 <= args.order <= MAX_ORDER:
        ap.error(f"--order must lie in [0, {MAX_ORDER}]")
    if args.samples is not None and args.samples < 1:
        ap.error("--samples must be at least 1")
    if not args.tolerance >= 0:  # also rejects NaN
        ap.error("--tolerance must be a non-negative number")
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        # The numerical self-checks (series tail, quadrature depth, sampled
        # ranges) raise RuntimeError: a verification failure, not bad input.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
