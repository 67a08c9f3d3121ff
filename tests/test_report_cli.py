import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from secstar import (caratheodory, cli, extremal, generator, subordination,
                     validation)
from secstar.published import PUBLISHED
from secstar.series import PowerSeries
from secstar.report import CONFLICT, MATCH, MISMATCH, report_ok
from secstar.serialize import canonical_json


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


# -- discrepancy report ------------------------------------------------------


def test_report_rows_have_expected_statuses(report_rows):
    assert report_ok(report_rows)
    by_name = {r.constant_name: r for r in report_rows}
    assert by_name["gamma0"].status == MATCH
    assert by_name["gamma1"].status == MISMATCH
    assert by_name["gamma2"].status == MISMATCH
    assert by_name["im_g_i"].status == MISMATCH
    assert by_name["convexity_radius"].status == MISMATCH
    assert by_name["a5_extremal"].status == CONFLICT
    assert by_name["parabola_b0"].status == MATCH
    assert by_name["parabola_global_min"].status == CONFLICT
    assert by_name["h2_reduced_poly_max"].status == CONFLICT
    assert by_name["p4_printed_rho_factor_eig"].status == CONFLICT
    assert by_name["h3_majorant_domination_violation"].status == MATCH
    assert by_name["kst_threshold"].status == MATCH


def test_report_match_iff_within_tolerance(report_rows):
    for r in report_rows:
        assert (r.status == MATCH) == (r.abs_diff <= r.tolerance)


def test_report_a5_row_flags_printed_value(report_rows):
    row = {r.constant_name: r for r in report_rows}["a5_extremal"]
    assert abs(row.paper_value - 35 / 96) < 1e-15
    assert abs(row.computed_value - 5 / 12) < 1e-12


def test_report_rows_follow_the_published_table(report_rows):
    assert [r.constant_name for r in report_rows] == list(PUBLISHED)
    for r in report_rows:
        assert (r.paper_value, r.tolerance, r.expected_status, r.note) == \
            PUBLISHED[r.constant_name]


def test_cli_constants_paper_values_come_from_report_rows(capsys):
    code, out = run_cli(capsys, ["constants"])
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)}
    report_row = {"gamma1": "gamma1", "gamma2": "gamma2", "im_g_i": "im_g_i",
                  "parabola_min_value": "parabola_min_value",
                  "parabola_theta": "parabola_theta", "b0": "parabola_b0",
                  "kst_threshold": "kst_threshold", "stp_theta0": "stp_theta0",
                  "stp_a0": "stp_a0", "gamma0": "gamma0"}
    assert {n for n, r in rows.items() if r["paper_value"] is not None} == set(report_row)
    for name, row in report_row.items():
        assert rows[name]["paper_value"] == PUBLISHED[row][0]
        assert rows[name]["abs_diff"] == abs(rows[name]["computed"] - PUBLISHED[row][0])


# -- CLI ----------------------------------------------------------------------


def test_cli_extremal_output(capsys):
    code, out = run_cli(capsys, ["extremal", "--n", "2", "--order", "8"])
    assert code == 0
    data = json.loads(out)
    coeffs = [c[0] for c in data["coefficients"]]
    assert np.allclose(coeffs[:5], [0, 1, 1, 0.75, 7 / 12], atol=1e-12)
    assert data["rational_guesses"][5] == "5/12"


def test_cli_optimize_cuboid(capsys):
    code, out = run_cli(capsys, ["optimize", "--objective", "g_h3",
                                 "--grid", "101"])
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 1 / 9) < 1e-6
    assert data["argmax"] == [0, 0, 1]


def test_cli_radius_trivial(capsys):
    code, out = run_cli(capsys, ["radius", "starlike_order", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["r"] == 1.0 and data["residual"] == 0


def test_cli_radius_verifies_residual(capsys):
    code, out = run_cli(capsys, ["radius", "starlike_order", "0.5"])
    assert code == 0
    assert json.loads(out)["residual"] < 1e-12


def test_cli_json_round_trip_is_byte_identical(capsys):
    for argv in (["extremal", "--n", "3", "--order", "10"],
                 ["coeffs", "--function", "g", "--order", "12"],
                 ["radius", "convexity", "0.25"],
                 ["sample", "--count", "2", "--seed", "42"]):
        _, out = run_cli(capsys, argv)
        assert canonical_json(json.loads(out)) == out


def test_cli_deterministic_given_seed(capsys):
    _, out1 = run_cli(capsys, ["sample", "--count", "3", "--seed", "99"])
    _, out2 = run_cli(capsys, ["sample", "--count", "3", "--seed", "99"])
    assert out1 == out2


def test_cli_seed_changes_output(capsys):
    _, out1 = run_cli(capsys, ["sample", "--count", "1", "--seed", "1"])
    _, out2 = run_cli(capsys, ["sample", "--count", "1", "--seed", "2"])
    assert out1 != out2


def test_cli_circle_csv(capsys):
    code, out = run_cli(capsys, ["phi", "--circle", "1.0", "--samples", "64",
                                 "--csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,re,im"
    assert len(lines) == 65


def test_cli_functionals_extremal(capsys):
    code, out = run_cli(capsys, ["functionals", "--n", "2"])
    assert code == 0  # a5 flag is reported-only, no verification failure
    data = json.loads(out)
    assert data["flags"]["a5_le_third"] is False
    assert abs(data["t31"] - (-1 / 16)) < 1e-12


def test_cli_constants_lists_gamma_rows(capsys):
    code, out = run_cli(capsys, ["constants", "--samples", "4096"])
    assert code == 0
    names = {r["name"] for r in json.loads(out)}
    assert {"gamma1", "gamma2", "im_g_i", "b0", "kst_threshold",
            "stp_a0", "gamma0", "k2"} <= names


def test_cli_convolution_check(capsys):
    code, out = run_cli(capsys, ["convolution-check", "--n", "2",
                                 "--order", "24", "--theta-samples", "360",
                                 "--z-radii", "8", "--z-angles", "32"])
    assert code == 0
    data = json.loads(out)
    assert data["margin"] > 0
    assert data["sufficient_condition_satisfied"] is False


def test_cli_report_exits_zero_with_expected_pattern(capsys):
    code, out = run_cli(capsys, ["report", "--samples", "200"])
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] == r["expected_status"] for r in rows)


def test_cli_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["radius", "starlike_order"])
    assert exc.value.code == 2


def test_cli_domain_errors_exit_two(capsys):
    code = cli.main(["radius", "starlike_order", "1.5"])
    assert code == 2


@pytest.mark.parametrize("kind", ["starlike_order", "mu_beta", "convexity", "m_starlike"])
@pytest.mark.parametrize("param", ["nan", "inf"])
def test_cli_radius_rejects_non_finite_param(capsys, kind, param):
    code = cli.main(["radius", kind, param])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: radius parameter must be finite\n"


def test_cli_order_cap(capsys):
    for argv in (["--order", "100", "extremal", "--n", "2"],
                 ["extremal", "--n", "2", "--order", "100"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: --order must lie in [0, 64]\n")


# Every option each subcommand accepts; the shared ones are --order, --seed,
# --samples, --csv and --tolerance, each only where its handler reads it.
SUBCOMMAND_OPTIONS = {
    "coeffs": {"--function", "--order", "--csv"},
    "phi": {"--z", "--bounds", "--circle", "--samples", "--csv"},
    "extremal": {"--n", "--order", "--csv"},
    "sample": {"--count", "--max-atoms", "--order", "--seed", "--csv"},
    "functionals": {"--n", "--seed", "--max-atoms", "--convolution", "--order", "--csv"},
    "optimize": {"--objective", "--grid", "--csv"},
    "radius": {"--tolerance", "--csv"},
    "constants": {"--samples", "--csv"},
    "convolution-check": {"--n", "--seed", "--max-atoms", "--theta-samples",
                          "--z-radii", "--z-angles", "--order", "--csv"},
    "search": {"--samples", "--seed", "--order"},
    "report": {"--samples", "--seed", "--csv"},
}


def _option_strings(parser):
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


def test_cli_each_subcommand_takes_its_own_options():
    ap = cli.build_parser()
    assert _option_strings(ap) == set()  # no flag before the subcommand
    (sub,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: _option_strings(p) for name, p in sub.choices.items()} == \
        SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv", [
    ["optimize", "--objective", "k6", "--order", "3"],
    ["report", "--tolerance", "1e-3"],
    ["phi", "--z", "0.5", "--circle", "1"],
    ["phi", "--z", "0.5", "--samples", "9"],
    ["phi", "--samples", "9"],
    ["functionals", "--n", "2", "--seed", "5"],
    ["functionals", "--n", "2", "--max-atoms", "3"],
    ["convolution-check", "--n", "2", "--seed", "5"],
    ["convolution-check", "--n", "2", "--max-atoms", "3"],
    ["search", "--csv"],
    ["--seed", "3", "sample"],
])
def test_cli_rejects_flags_nothing_reads(capsys, argv):
    try:
        code = cli.main(argv)  # a combination the handler rejects
    except SystemExit as exc:  # a flag the parser does not take
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


# 10**15 elements (7 PiB of float64) exceed a 47-bit address space, so the
# allocation fails at once whatever the machine's memory or overcommit.
@pytest.mark.parametrize("argv", [
    ["optimize", "--objective", "k6", "--grid", str(10**15)],
    ["phi", "--circle", "1", "--samples", str(10**15)],
    ["constants", "--samples", str(10**15)],
])
def test_cli_allocation_failure_exits_two(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")


@pytest.mark.parametrize("argv,message", [
    (["sample", "--count", "-1"], "--count must be at least 1"),
    (["sample", "--count", "0"], "--count must be at least 1"),
    (["convolution-check", "--n", "2", "--z-radii", "0"],
     "need at least 2 z radii and 2 z angles"),
    (["convolution-check", "--n", "2", "--z-radii", "1", "--z-angles", "1"],
     "need at least 2 z radii and 2 z angles"),
])
def test_cli_rejects_degenerate_counts(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# Member counts above cli.MAX_COUNT are refused before any measure is drawn.
@pytest.mark.parametrize("argv,flag", [
    (["sample", "--count", "100001"], "--count"),
    (["sample", "--count", "100000000"], "--count"),
    (["search", "--samples", "100001"], "--samples"),
    (["search", "--samples", "100000000"], "--samples"),
    (["report", "--samples", "100001"], "--samples"),
    (["report", "--samples", "100000000"], "--samples"),
])
def test_cli_caps_member_counts(capsys, monkeypatch, argv, flag):
    def no_measure(*args, **kwargs):
        raise AssertionError("a measure was drawn")

    monkeypatch.setattr(caratheodory, "sample_measure", no_measure)
    monkeypatch.setattr(validation, "sample_measure", no_measure)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at most {cli.MAX_COUNT}\n"
    assert cli.MAX_COUNT == 100_000


def test_cli_negative_zero_round_trips(capsys):
    code, out = run_cli(capsys, ["phi", "--z", "2"])
    assert code == 0
    assert out.endswith(", -0.0]}\n")  # Im phi(2) is a negative zero
    assert canonical_json(json.loads(out)) == out


@pytest.mark.parametrize("argv,message", [
    (["sample", "--order", "1"], "sample needs --order of at least 2"),
    (["phi", "--z", "1e300j"], "math range error"),
])
def test_cli_rejects_out_of_range_values(capsys, argv, message):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["report", "--samples", "0"],
    ["report", "--samples", "-5"],
    ["constants", "--samples", "0"],
    ["phi", "--bounds", "--samples", "0"],
])
def test_cli_rejects_samples_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: --samples must be at least 1\n")


@pytest.mark.parametrize("argv", [
    ["radius", "convexity", "0.25", "--tolerance", "nan"],
    ["radius", "convexity", "0.25", "--tolerance", "-1"],
])
def test_cli_rejects_bad_tolerance(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith("error: --tolerance must be a non-negative number\n")


@pytest.mark.parametrize("tolerance,code", [("0", cli.EXIT_VERIFY), ("inf", 0)])
def test_cli_tolerance_edges_still_accepted(capsys, tolerance, code):
    assert run_cli(capsys, ["radius", "convexity", "0.25",
                            "--tolerance", tolerance])[0] == code


def test_cli_search_summary(capsys):
    code, out = run_cli(capsys, ["search", "--samples", "200"])
    assert code == 0
    assert canonical_json(json.loads(out)) == out
    data = json.loads(out)
    assert data["samples"] == 204
    maxima = [data[k] for k in ("max_abs_a2", "max_abs_a3", "max_abs_a4",
                                "max_abs_a5", "max_abs_h22", "max_abs_h31")]
    assert np.allclose(maxima, [1, 3 / 4, 7 / 12, 5 / 12, 1 / 4, 1 / 9],
                       rtol=0, atol=1e-12)
    assert data["containment_failures"] == 0


def test_cli_search_containment_failure_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(generator.ImageRegion, "contains_batch",
                        lambda self, ws, boundary_tol=0.0: np.zeros(np.size(ws), bool))
    code, out = run_cli(capsys, ["search", "--samples", "8"])
    assert code == cli.EXIT_VERIFY
    assert json.loads(out)["containment_failures"] == 12


def test_cli_sample_batch_matches_single_members(capsys):
    _, batch = run_cli(capsys, ["sample", "--count", "3", "--seed", "11"])
    singles = []
    for seed in (11, 12, 13):
        _, out = run_cli(capsys, ["sample", "--count", "1", "--seed", str(seed)])
        singles += json.loads(out)
    assert json.loads(batch) == singles


def test_cli_optimize_h2_surface(capsys):
    code, out = run_cli(capsys, ["optimize", "--objective", "g_h2"])
    assert code == 0
    data = json.loads(out)
    assert data["argmax"] == [2, 1]
    assert abs(data["value"] - 17 / 48) < 1e-15


# -- numerical self-checks: RuntimeError maps to exit 3 ------------------------


def _envelope_with_large_tail(monkeypatch):
    # No subcommand evaluates an envelope: run the guard from the extremal one.
    monkeypatch.setattr(extremal, "_envelope_series",
                        lambda r, derivative=False: PowerSeries(np.ones(65)))
    monkeypatch.setattr(cli, "_cmd_extremal",
                        lambda args: extremal.growth_envelope(0.99))
    return ["extremal"], "envelope series tail estimate exceeds 1e-10"


def _radial_range_escape(monkeypatch):
    # No subcommand calls radial_real_range: run the guard from the phi one.
    monkeypatch.setattr(generator, "_phi_values", lambda z: (1.0 + z) / np.cos(z) + 1.0)
    monkeypatch.setattr(cli, "_cmd_phi", lambda args: generator.radial_real_range(0.5))
    return ["phi"], "sampled Re phi escapes the radial range"


def _simpson_depth(monkeypatch):
    # A jump at |t| = 1/3 never meets the Simpson error test.
    monkeypatch.setattr(generator, "_g_integrand",
                        lambda t: 1.0 if abs(t) > 1 / 3 else 0.0)
    return ["constants"], "adaptive Simpson failed to converge (bug)"


def _parabola_no_minima(monkeypatch):
    monkeypatch.setattr(subordination, "local_minima", lambda f, xs, tol=1e-12: [])
    return ["constants"], "no interior local minima found (bug)"


def _parabola_no_off_axis_minimum(monkeypatch):
    monkeypatch.setattr(subordination, "local_minima",
                        lambda f, xs, tol=1e-12: [(0.0, -11.5)])
    return ["constants"], "off-axis stationary minimum not found (bug)"


@pytest.mark.parametrize("guard", [_envelope_with_large_tail, _radial_range_escape,
                                   _simpson_depth, _parabola_no_minima,
                                   _parabola_no_off_axis_minimum])
def test_cli_runtime_guards_exit_three(capsys, monkeypatch, guard):
    argv, message = guard(monkeypatch)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# -- no scipy at run time ---------------------------------------------------------

_NO_SCIPY_CHILD = """
import contextlib, io, json, sys
import secstar, secstar.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
sys.modules["scipy"] = None   # any later import of scipy raises ImportError
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = secstar.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""


def test_runtime_path_loads_no_scipy(capsys):
    commands = [["optimize", "--objective", "g_h3"], ["constants"], ["report"]]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, json.dumps(commands)],
                           capture_output=True, text=True, env=env, check=True)
    result = json.loads(child.stdout)
    assert result["loaded"] == []
    assert result["runs"] == [list(run_cli(capsys, argv)) for argv in commands]
    assert all(code == 0 for code, _ in result["runs"])
