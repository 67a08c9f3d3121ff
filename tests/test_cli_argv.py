"""Edge sweep over argv for the fast subcommands.

Each subcommand is drawn with its own flags after it.  Every invocation must
end in exit 0, 2 or 3 without an uncaught exception; a NaN or negative
``--tolerance``, two of ``phi --z/--bounds/--circle``, ``phi --samples``
without ``--bounds`` or ``--circle``, and ``--n`` with ``--seed`` or
``--max-atoms`` must be usage errors (exit 2); and a
successful JSON run must print canonical JSON: parsing the output and
re-serializing it gives the same bytes.  A sweep per radius kind applies the
same rules to ``radius`` alone, with the parameter drawn from the kind's own
domain about half the time, so that each of the four root solves runs.  A
last sweep adds a shared flag the subcommand does not take, which must exit 2
with nothing on stdout.

The examples are derandomized, so each value strategy draws its known edge
values (order 1, huge imaginary parts, negative zero, NaN, -1) about half
the time: a fixed sequence of 150 examples reaches them.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from secstar import cli
from secstar.serialize import canonical_json


def with_edges(edges, values):
    """``values``, or one of ``edges`` about half the time."""
    return st.one_of(st.sampled_from(edges), values)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats():
    return with_edges(
        ["nan", "-1", "-0.0", "inf"],
        st.one_of(st.floats(-2.0, 2.0).map(repr), st.floats().map(repr),
                  st.sampled_from(["", "x", "1e308", "-1e-320", "0x3"])))


def complexes():
    return with_edges(
        ["1e300j", "-0.0", "2", "nanj"],
        st.one_of(
            st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(str),
            st.builds(complex, st.floats(), st.floats()).map(str),
            st.sampled_from(["1e300j", "nanj", "j", "1+", "0.5 + 0.25j", ""])))


def given_flag(flag, values=None):
    """``flag`` (a switch) or ``flag=value``."""
    if values is None:
        return st.just([flag])
    return values.map(lambda v: [f"{flag}={v}"])


def opt(flag, values=None):
    return st.one_of(st.just([]), given_flag(flag, values))


def flags(*options):
    return st.tuples(*options).map(lambda parts: [t for part in parts for t in part])


# The shared flags, and which of them each subcommand takes.
SHARED = {
    "--order": with_edges(["0", "1"], ints(-2, 70)),
    "--seed": st.one_of(ints(-2, 2**40), st.just("0x3")),
    "--samples": ints(-3, 5000),
    "--csv": None,
    "--tolerance": floats(),
}
TAKES = {
    "coeffs": ["--order", "--csv"],
    "phi": ["--samples", "--csv"],
    "extremal": ["--order", "--csv"],
    "functionals": ["--order", "--seed", "--csv"],
    "radius": ["--tolerance", "--csv"],
    "constants": ["--samples", "--csv"],
    "sample": ["--order", "--seed", "--csv"],
    "optimize": ["--csv"],
    "convolution-check": ["--order", "--seed", "--csv"],
}


# The parameters for which each radius kind iterates: alpha in [0, 1),
# beta in (1, 2 sec 1) and M in (0, 1/2).
RADIUS_DOMAIN = {
    "starlike_order": st.floats(0.0, 1.0, exclude_max=True),
    "mu_beta": st.floats(1.0, 2.0 / math.cos(1.0), exclude_min=True, exclude_max=True),
    "convexity": st.floats(0.0, 1.0, exclude_max=True),
    "m_starlike": st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
}


def radius_args(kind):
    """``[kind, param]``: a parameter in [0, 1) or any float, or from the
    kind's own domain about half the time."""
    param = st.one_of(st.floats(0.0, 1.0, exclude_max=True).map(repr), floats())
    if kind in RADIUS_DOMAIN:
        # Not a flat one_of, where the domain would be one branch among six.
        other = param
        param = st.booleans().flatmap(
            lambda own: RADIUS_DOMAIN[kind].map(repr) if own else other)
    return param.map(lambda p: [kind, p])


def command(head, *options):
    """``head``, then its own options and the shared flags it takes, in order."""
    shared = [opt(flag, SHARED[flag]) for flag in TAKES[head[0]]]
    return flags(st.just(head), *options, *shared)


SUBCOMMANDS = st.one_of(
    command(["coeffs"],
            opt("--function", st.sampled_from(["phi", "g", "sec", "cos", "sin", "exp",
                                               "geometric", "identity", "tan"]))),
    command(["phi"], opt("--z", complexes()), opt("--bounds"), opt("--circle", floats())),
    command(["extremal"], opt("--n", ints(-2, 70))),
    command(["functionals"], opt("--n", ints(-2, 70)), opt("--max-atoms", ints(-1, 10))),
    command(["radius"], st.sampled_from([*RADIUS_DOMAIN, "bogus"]).flatmap(radius_args)),
    command(["constants"]),
    command(["sample"], opt("--count", ints(-2, 3)), opt("--max-atoms", ints(-1, 10))),
    # The grid needs 51 nodes per axis and the convolution margin 360 thetas:
    # draw on both sides of each limit.
    command(["optimize", "--objective", "k6"],
            opt("--grid", st.one_of(ints(-2, 2), ints(49, 70)))),
    command(["convolution-check"], opt("--n", ints(-2, 70)),
            opt("--max-atoms", ints(-1, 10)),
            given_flag("--theta-samples", st.one_of(ints(-2, 2), ints(358, 420))),
            given_flag("--z-radii", ints(-1, 6)), given_flag("--z-angles", ints(-1, 8))),
)


@st.composite
def with_foreign_flag(draw):
    """A drawn command line with one shared flag its subcommand does not take,
    put anywhere after the subcommand's fixed head."""
    argv = draw(SUBCOMMANDS)
    name = argv[0]
    flag = draw(st.sampled_from([f for f in SHARED if f not in TAKES[name]]))
    foreign = draw(given_flag(flag, SHARED[flag]))
    head = 3 if name == "optimize" else 1
    at = draw(st.integers(head, len(argv)))
    return argv[:at] + foreign + argv[at:]


def tolerance_of(argv):
    """The ``--tolerance`` value argparse keeps (the last one), or None."""
    given = [a.split("=", 1)[1] for a in argv if a.startswith("--tolerance=")]
    try:
        return float(given[-1]) if given else None
    except ValueError:
        return None


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def has(argv, flag):
    return any(a == flag or a.startswith(flag + "=") for a in argv)


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    tolerance = tolerance_of(argv)
    if tolerance is not None and (math.isnan(tolerance) or tolerance < 0):
        assert code == 2, (argv, code, err)
    modes = sum(has(argv, f) for f in ("--bounds", "--circle"))
    if modes + has(argv, "--z") > 1 or (has(argv, "--samples") and argv[0] == "phi"
                                        and not modes):
        assert code == 2, (argv, code, err)
    if has(argv, "--n") and (has(argv, "--seed") or has(argv, "--max-atoms")):
        assert code == 2, (argv, code, err)
    if code == 0:
        assert out
        if "--csv" not in argv:
            assert canonical_json(json.loads(out)) == out


@settings(max_examples=150)
@given(argv=SUBCOMMANDS)
def test_cli_argv_edges(argv):
    check(argv)


# The fixed sequence above leaves some radius kinds undrawn or unsolved; this
# sweep draws each kind, so that the four root solves are reached.
@pytest.mark.parametrize("kind", sorted(RADIUS_DOMAIN))
@settings(max_examples=25)
@given(data=st.data())
def test_cli_radius_argv_edges(kind, data):
    check(data.draw(command(["radius"], radius_args(kind))))


@settings(max_examples=100)
@given(argv=with_foreign_flag())
def test_cli_rejects_flags_the_subcommand_does_not_take(argv):
    code, out, err = run(argv)
    assert code == 2, (argv, code, err)
    assert out == ""


@pytest.mark.parametrize("z", ["abc", "inf", "1+nanj", "nanj", "-infj", "1+"])
def test_cli_phi_rejects_a_point_that_is_not_a_finite_complex_number(z):
    message = "error: --z must be a finite complex number\n"
    assert run(["phi", f"--z={z}"]) == (2, "", message)


# Each --samples floor is a usage error that names the flag, the subcommand
# (and its mode) and the floor; the floor itself is accepted.
@pytest.mark.parametrize("argv,what,floor", [
    (["constants", "--samples", "1000"], "constants", 1024),
    (["constants", "--samples", "1023", "--csv"], "constants", 1024),
    (["constants", "--samples", "300"], "constants", 1024),
    (["phi", "--bounds", "--samples", "100"], "phi --bounds", 256),
    (["phi", "--bounds", "--samples", "255", "--csv"], "phi --bounds", 256),
    (["phi", "--circle", "0.5", "--samples", "4"], "phi --circle", 8),
    (["phi", "--circle", "1", "--samples", "7", "--csv"], "phi --circle", 8),
])
def test_cli_samples_floor_names_the_flag(argv, what, floor):
    assert run(argv) == (2, "", f"error: {what} needs --samples of at least {floor}\n")
    at_floor = [str(floor) if a == argv[argv.index("--samples") + 1] else a for a in argv]
    code, out, err = run(at_floor)
    assert (code, err) == (0, "") and out


# --max-atoms outside [1, MAX_ATOMS] is a usage error that names the flag,
# whichever subcommand draws the member; both ends of the range are accepted.
@pytest.mark.parametrize("argv", [
    ["sample", "--max-atoms", "0"],
    ["sample", "--csv", "--max-atoms", "9"],
    ["functionals", "--seed", "3", "--max-atoms", "0"],
    ["convolution-check", "--max-atoms", "-1"],
])
def test_cli_max_atoms_range_names_the_flag(argv):
    from secstar.caratheodory import MAX_ATOMS
    assert run(argv) == (2, "", f"error: --max-atoms must lie in [1, {MAX_ATOMS}]\n")
    for bound in (1, MAX_ATOMS):
        code, out, err = run(argv[:-1] + [str(bound)])
        assert (code, err) == (0, "") and out


def test_cli_phi_takes_a_negative_point_after_an_equals_sign():
    from secstar.generator import phi_eval
    code, out, err = run(["phi", "--z=-0.3-0.7j"])
    assert (code, err) == (0, "")
    z = complex(-0.3, -0.7)
    assert out == canonical_json({"z": z, "value": phi_eval(z)})
    # Without the equals sign argparse reads the value as an option.
    code, out, err = run(["phi", "--z", "-0.3-0.7j"])
    assert (code, out) == (2, "") and "--z: expected one argument" in err


def test_cli_phi_help_shows_the_equals_form_of_z():
    code, out, err = run(["phi", "--help"])
    assert code == 0 and err == ""
    # argparse may wrap the help text at a space or a hyphen.
    assert "--z=-0.3-0.7j" in "".join(out.split())


def test_cli_default_seed_is_the_search_default():
    # cli keeps its own copy so that parsing loads no numpy.
    from secstar import validation
    assert cli.DEFAULT_SEED == validation.DEFAULT_SEED
