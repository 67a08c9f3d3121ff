import json

import numpy as np
import pytest

from secstar import cli
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


def test_cli_order_cap(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--order", "100", "extremal", "--n", "2"])
    assert exc.value.code == 2


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
