"""The benchmark's three workloads: inputs from the seed, one round, checks.

Every workload is a closed loop with one caller: a round runs its
operations one after another, and the next round starts when the last
one has finished.  A round is deterministic given (seed, round index).

* ``search``   -- ``validation.run_search`` at the default ``SearchConfig``
  shape (order 16, up to 8 atoms, containment at r = 0.95 against a
  16 384-point ``ImageRegion``).  Member synthesis, functionals and the
  containment screen do the work; nothing is maximized, integrated or
  solved.
* ``surfaces`` -- the in-process work of ``optimize`` (all 13 objectives),
  ``convolution-check`` (extremals f2..f8 and seeded random members at
  order 32), ``constants`` (plus a seeded ``solve_radius`` sweep) and the
  growth/distortion/rotation envelopes over radii in (0, 1).  Grid scans,
  golden-section refinement, Nelder-Mead and quadrature do the work; the
  series engine runs one member at a time at orders 32 to 128.
* ``cli``      -- fresh ``python -m secstar`` processes, one at a time:
  every subcommand with small arguments, one known-failing ``optimize``,
  and ``report`` at its defaults.  Interpreter start and imports dominate.

Each operation counts as attempted; it fails when it raises, exits with an
unexpected code, or its output fails a check.  Output checks compare with
closed forms or with oracles computed here independently of the package.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

GD1 = 2.0 * math.atan(math.tanh(0.5))       # Im g(i) = gd(1)
SEC1 = 1.0 / math.cos(1.0)
H3_FACE = (587.0 * math.sqrt(587.0) - 14200.0) / 324.0
EXPECTED_MAXIMA = {
    "g_h3": 1 / 9, "g_h2": 17 / 48, "g_h2_reduced": 17 / 48,
    "h1": 1 / 9, "h2": 1 / 9, "h3": H3_FACE, "h4": H3_FACE, "h5": 1 / 9,
    "k1": (7.0 * math.sqrt(21.0) - 27.0) / 300.0, "k2": 1 / 9, "k4": 1 / 9,
    "k5": 1 / 9, "k6": 1.0 / (12.0 * math.sqrt(3.0)),
}
CONVEXITY_ROOT = 0.35648  # root of the displayed convexity equation at alpha = 0


# -- bookkeeping -------------------------------------------------------------


@dataclass
class Round:
    """Outcome of one round: time inside the program, counts, outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    wrong: int = 0                       # failures caused by a wrong output
    outputs: dict = field(default_factory=dict)
    fixed: dict = field(default_factory=dict)   # outputs equal in every round
    stages: dict[str, float] = field(default_factory=dict)
    op_s: list[float] = field(default_factory=list)    # time of each operation
    cold_start_s: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0

    def timed(self, stage: str, seconds: float) -> None:
        self.op_s.append(seconds)
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    def verdict(self, name: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems.extend(f"{name}: {p}" for p in problems)

    def op(self, stage, name, fn, *args, check=None, fixed=False):
        """Run one in-process operation, time it, and check its output."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted as a failed operation, run continues
            self.timed(stage, perf_counter() - t0)
            self.failed += 1
            self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        self.timed(stage, perf_counter() - t0)
        (self.fixed if fixed else self.outputs)[name] = out
        if check is not None:
            self.verdict(name, check(out))
        return out


def typical_wall_s(rounds: list[Round]) -> float:
    """Wall time of a typical round: the median time of each operation of the
    round, summed.  Less sensitive to one slow round than the median of the
    round totals."""
    return float(sum(np.median(times) for times in zip(*(rd.op_s for rd in rounds))))


def near(label, value, expected, tol):
    if not abs(value - expected) <= tol:
        return [f"{label} = {value!r}, expected {expected!r} within {tol:g}"]
    return []


def round_seed(seed: int, r: int, salt: int) -> int:
    """A nonnegative 63-bit seed for round r of a run, one stream per salt."""
    return random.Random(f"{seed}:{r}:{salt}").getrandbits(63)


# -- independent oracles -----------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)
_GL_S = 0.5 * (_GL_X + 1.0)


def g_oracle(z: complex) -> complex:
    """g(z) = int_0^z (1 + t - cos t)/(t cos t) dt by 64-point Gauss-Legendre."""
    t = z * _GL_S
    return complex(0.5 * z * np.dot(_GL_W, (1.0 + t - np.cos(t)) / (t * np.cos(t))))


def phi_coefficients(order: int) -> list[Fraction]:
    """Exact Maclaurin coefficients of (1+z)/cos z."""
    sec = [Fraction(0)] * (order + 1)
    sec[0] = Fraction(1)
    for n in range(2, order + 1, 2):
        sec[n] = -sum(Fraction((-1) ** (k // 2), math.factorial(k)) * sec[n - k]
                      for k in range(2, n + 1, 2))
    return [sec[k] if k % 2 == 0 else sec[k - 1] for k in range(order + 1)]


def extremal_coefficients(n: int, order: int) -> list[Fraction]:
    """Exact coefficients of f_n, z f_n'/f_n = phi(z^(n-1))."""
    q = [Fraction(0)] * (order + 1)
    for k, c in enumerate(phi_coefficients(order // (n - 1))):
        q[k * (n - 1)] = c
    a = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    for k in range(2, order + 1):
        a[k] = sum(q[k - j] * a[j] for j in range(1, k)) / (k - 1)
    return a


def canonical(obj) -> str:
    """secstar's canonical JSON: 17 significant digits, construction order."""
    if obj is None or isinstance(obj, bool) or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {canonical(v)}"
                               for k, v in obj.items()) + "}"
    return "[" + ", ".join(canonical(v) for v in obj) + "]"


# -- search --------------------------------------------------------------------


class Search:
    COUNT = 1000  # random members per run_search call, besides the 4 designated

    def __init__(self, ss, seed: int):
        self.ss = ss
        self.seed = seed
        # Lazy set-up (region construction, first calls) finishes here, in
        # setup_s rather than in the first round.
        ss.run_search(ss.SearchConfig(count=8, seed=round_seed(seed, -1, 0)))

    def config(self, r: int):
        return self.ss.SearchConfig(count=self.COUNT, seed=round_seed(self.seed, r, 0))

    def check(self, s) -> list[str]:
        out = []
        if s.enforced_failures():
            out.append(f"enforced flag failures {s.enforced_failures()}")
        if s.containment_failures:
            out.append(f"{s.containment_failures} containment failures")
        if s.samples != self.COUNT + 4:
            out.append(f"{s.samples} samples, expected {self.COUNT + 4}")
        out += near("max|H2(2)|", s.max_abs_h22, 0.25, 1e-9)
        out += near("max|H3(1)|", s.max_abs_h31, 1 / 9, 1e-9)
        if not s.max_abs_a5 >= 5 / 12 - 1e-9:
            out.append(f"max|a5| = {s.max_abs_a5!r} < 5/12")
        return out

    def run_round(self, r: int) -> Round:
        rd = Round()
        rd.op("search", "run_search", self.ss.run_search, self.config(r),
              check=self.check)
        return rd

    @staticmethod
    def stage_metrics(rounds: list[Round]) -> dict[str, float]:
        rates = [(Search.COUNT + 4) / rd.stages["search"] for rd in rounds]
        return {"members_per_s": float(np.median(rates))}


# -- surfaces --------------------------------------------------------------------


class Surfaces:
    CONV_ORDER = 32
    RANDOM_MEMBERS = 3
    RADIUS_PARAMS = 25          # seeded parameters per radius kind
    RADIUS_KINDS = (("starlike_order", 0.0, 0.95), ("mu_beta", 1.05, 4.0),
                    ("convexity", 0.0, 0.95), ("m_starlike", 0.02, 0.75))
    RADII = tuple(k / 20 for k in range(1, 20))

    def __init__(self, ss, seed: int):
        self.ss = ss
        self.seed = seed

    def inputs(self, r: int):
        """Seeded random measures and radius-problem parameters for round r."""
        rng = random.Random(round_seed(self.seed, r, 1))
        measures = [self.ss.sample_measure(rng.getrandbits(63))
                    for _ in range(self.RANDOM_MEMBERS)]
        params = [(kind, rng.uniform(lo, hi)) for kind, lo, hi in self.RADIUS_KINDS
                  for _ in range(self.RADIUS_PARAMS)]
        return measures, params

    # checks

    @staticmethod
    def check_maximum(name):
        def check(out):
            argmax, value = out
            return near(f"max {name}", value, EXPECTED_MAXIMA[name], 1e-9)
        return check

    @staticmethod
    def check_convolution(out):
        margin, (satisfied, worst) = out
        problems = [] if margin > 0 else [f"convolution margin {margin!r} <= 0"]
        if satisfied or worst < 2 * SEC1:
            problems.append(f"sufficient condition ({satisfied}, {worst!r})")
        return problems

    @staticmethod
    def check_gamma(out):
        return (near("gamma1", out["gamma1"].computed, g_oracle(-1.0).real, 1e-9)
                + near("gamma2", out["gamma2"].computed, g_oracle(1.0).real, 1e-9)
                + near("im_g_i", out["im_g_i"].computed, GD1, 1e-10))

    @staticmethod
    def check_threshold(target):
        g1, g2 = g_oracle(-1.0).real, g_oracle(1.0).real
        expected = {"exp": math.e * g1 / (1.0 - math.e),
                    "cardioid": max(-math.e * g1, g2 / math.e),
                    "sine": g2 / math.sin(1.0)}[target]
        return lambda out: near(f"{target} threshold", out, expected, 1e-9)

    @staticmethod
    def check_parabola(p):
        return (near("parabola min", p.min_value, -0.988408, 2e-3)
                + near("parabola theta", p.theta_min, -2.47734, 1e-3)
                + near("b0", p.b0, -(p.min_value + 1.0) / 2.0, 1e-15)
                + near("global min", p.global_min_value, -11.518, 1e-2))

    @staticmethod
    def check_misc(m):
        return (near("circle_cos_min", m["circle_cos_min"], math.cos(1.0), 1e-9)
                + near("circle_sin_max", m["circle_sin_max"], math.sinh(1.0), 1e-9)
                + near("logderiv_min", m["logderiv_min"], 0.5 - math.tanh(1.0), 1e-9)
                + near("k2", m["k2"], 1.0 / math.cosh(2.0), 1e-15))

    @staticmethod
    def check_stp(out):
        theta0, a0 = out
        return near("stp theta0", theta0, 0.665124, 1e-3) + near("stp a0", a0, 0.402301, 1e-3)

    @staticmethod
    def check_bounds(b):
        return (near("gamma0", b.im_abs_max, 1.6471, 1e-3)
                + near("re_max", b.re_max, 2 * SEC1, 1e-12)
                + near("arg_abs_max", b.arg_abs_max, math.pi / 2, 1e-6))

    @staticmethod
    def check_inclusion(c):
        kst = 4 * math.cos(1.0) / (4 * math.cos(1.0) - math.cos(2.0) - 1.0)
        return (near("kst", c.kst_threshold, kst, 1e-12)
                + near("mu_beta", c.mu_beta_threshold, 2 * SEC1, 1e-12))

    @staticmethod
    def check_root(res):
        lo, hi = res.bracket
        problems = [] if lo <= res.r <= hi and 0.0 <= res.r <= 1.0 else [
            f"root {res.r!r} outside bracket {res.bracket}"]
        if res.iterations > 0 and not res.residual < 1e-12:
            problems.append(f"residual {res.residual!r}")
        return problems

    @staticmethod
    def check_growth(r):
        def check(out):
            lo, hi = out
            return (near("-f2(-r)", lo, r * math.exp(g_oracle(-r).real), 1e-9)
                    + near("f2(r)", hi, r * math.exp(g_oracle(r).real), 1e-9))
        return check

    @staticmethod
    def check_distortion(r):
        def check(out):
            lo, hi = out
            return (near("f2'(-r)", lo, math.exp(g_oracle(-r).real) * (1 - r) / math.cos(r), 1e-9)
                    + near("f2'(r)", hi, math.exp(g_oracle(r).real) * (1 + r) / math.cos(r), 1e-9))
        return check

    def run_round(self, r: int) -> Round:
        ss = self.ss
        measures, params = self.inputs(r)
        rd = Round()

        for name in EXPECTED_MAXIMA:
            rd.op("optimize", f"max:{name}", ss.maximize_box, name,
                  check=self.check_maximum(name), fixed=True)

        def convolution(member):
            return (ss.convolution_margin(member),
                    ss.sufficient_coefficient_check(member))
        for n in range(2, 9):
            rd.op("convolution", f"conv:f{n}",
                  lambda n=n: convolution(ss.build_extremal(n, self.CONV_ORDER)),
                  check=self.check_convolution, fixed=True)
        for i, m in enumerate(measures):
            rd.op("convolution", f"conv:random{i}",
                  lambda m=m: convolution(ss.member_from_measure(m, self.CONV_ORDER)),
                  check=self.check_convolution)

        rd.op("constants", "gamma", ss.gamma_constants, check=self.check_gamma, fixed=True)
        for target in ("exp", "cardioid", "sine"):
            rd.op("constants", f"threshold:{target}", ss.subordination_threshold,
                  target, check=self.check_threshold(target), fixed=True)
        rd.op("constants", "parabola", ss.parabola_b0, check=self.check_parabola, fixed=True)
        rd.op("constants", "misc", ss.misc_constants, check=self.check_misc, fixed=True)
        rd.op("constants", "stp", ss.stp_constant, check=self.check_stp, fixed=True)
        rd.op("constants", "phi_bounds", ss.phi_global_bounds, check=self.check_bounds,
              fixed=True)
        rd.op("constants", "inclusion", ss.inclusion_constants,
              check=self.check_inclusion, fixed=True)
        rd.op("constants", "radius:convexity:0", ss.solve_radius, "convexity", 0.0,
              check=lambda res: self.check_root(res)
              + near("convexity radius", res.r, CONVEXITY_ROOT, 1e-4), fixed=True)
        for i, (kind, param) in enumerate(params):
            rd.op("constants", f"radius:{i}", ss.solve_radius, kind, param,
                  check=self.check_root)

        rotation = []
        for rad in self.RADII:
            rd.op("envelopes", f"growth:{rad}", ss.growth_envelope, rad,
                  check=self.check_growth(rad), fixed=True)
            rd.op("envelopes", f"distortion:{rad}", ss.distortion_envelope, rad,
                  check=self.check_distortion(rad), fixed=True)
            rotation.append(rd.op("envelopes", f"rotation:{rad}", ss.rotation_bound,
                                  rad, fixed=True))
        seen = [v for v in rotation if v is not None]
        if any(b < a - 1e-12 for a, b in zip(seen, seen[1:])) or min(seen, default=0) < 0:
            rd.verdict("rotation sweep", ["rotation bound not nondecreasing in r"])
        return rd

    @staticmethod
    def stage_metrics(rounds: list[Round]) -> dict[str, float]:
        return {f"{stage}_s": float(np.median([rd.stages[stage] for rd in rounds]))
                for stage in ("optimize", "convolution", "constants", "envelopes")}


# -- cli ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], workdir: Path, timeout: float = 150.0):
    """Run one process to completion: (wall_s, exit code, stdout, stderr, maxrss_kb)."""
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, proc.returncode, out.read().decode(),
                err.read().decode(errors="replace"), usage.ru_maxrss)


class Cli:
    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.phi_g = phi_coefficients(16)

    def commands(self, r: int):
        """(argv, expected exit code, output check, light?) for round r."""
        rng = random.Random(round_seed(self.seed, r, 2))
        rho, ang = 0.9 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)
        z = f"{rho * math.cos(ang):.6f}{rho * math.sin(ang):+.6f}j"
        n = rng.randint(2, 8)
        sample_seed = rng.getrandbits(31)
        return [
            (["phi", f"--z={z}"], 0, self.check_phi(complex(z)), True),
            (["coeffs", "--function", "g"], 0, self.check_g, True),
            (["extremal", "--n", str(n)], 0, self.check_extremal(n), True),
            (["radius", "convexity", "0"], 0, self.check_radius, True),
            (["sample", "--count", "1", "--order", "64", "--seed", str(sample_seed)], 0,
             self.check_sample(sample_seed), True),
            (["functionals", "--n", "2"], 0, self.check_functionals, True),
            (["optimize", "--objective", "k6"], 0, self.check_optimize("k6"), True),
            (["constants"], 0, self.check_constants, True),
            (["convolution-check", "--n", "2"], 0, self.check_convolution, True),
            # Known defect: the h2 surface range-checks mesh arrays as scalars.
            (["optimize", "--objective", "g_h2"], 0, self.check_optimize("g_h2"), False),
            (["report"], 0, self.check_report, False),
        ]

    # checks on the parsed JSON output

    @staticmethod
    def check_phi(z):
        def check(out):
            want = (1 + z) / cmath.cos(z)
            got = complex(*out["value"])
            return [] if abs(got - want) <= 1e-14 * abs(want) else [f"phi({z}) = {got}"]
        return check

    def check_g(self, out):
        want = [0.0] + [float(self.phi_g[k] / k) for k in range(1, 17)]
        got = [c[0] for c in out["coeffs"]]
        bad = [k for k, (a, b) in enumerate(zip(got, want)) if abs(a - b) > 1e-15]
        return [f"g coefficients differ at {bad}"] if bad or len(got) != 17 else []

    @staticmethod
    def check_extremal(n):
        def check(out):
            want = [float(c) for c in extremal_coefficients(n, 16)]
            got = [c[0] for c in out["coefficients"]]
            bad = [k for k, (a, b) in enumerate(zip(got, want))
                   if abs(a - b) > 1e-14 * max(1.0, abs(b))]
            return [f"f{n} coefficients differ at {bad}"] if bad or len(got) != 17 else []
        return check

    @staticmethod
    def check_radius(out):
        return (near("convexity radius", out["r"], CONVEXITY_ROOT, 1e-4)
                + ([] if out["residual"] < 1e-12 else [f"residual {out['residual']}"]))

    @staticmethod
    def check_sample(seed):
        def check(out):
            c = out[0]["coefficients"] if len(out) == 1 else []
            ok = (len(c) == 65 and out[0]["seed"] == seed and c[0] == [0, 0]
                  and c[1] == [1, 0] and abs(complex(*c[2])) <= 1 + 1e-9)
            return [] if ok else ["malformed sample"]
        return check

    @staticmethod
    def check_functionals(out):
        want = [float(c) for c in extremal_coefficients(2, 5)]
        problems = []
        for k in range(2, 6):
            problems += near(f"a{k}", out[f"a{k}"][0], want[k], 1e-12)
        failed = [k for k, ok in out["flags"].items() if not ok and k != "a5_le_third"]
        return problems + ([f"flags {failed}"] if failed else [])

    @staticmethod
    def check_optimize(name):
        return lambda out: near(f"max {name}", out["value"], EXPECTED_MAXIMA[name], 1e-9)

    @staticmethod
    def check_constants(out):
        rows = {row["name"]: row["computed"] for row in out}
        return (near("im_g_i", rows.get("im_g_i", math.nan), GD1, 1e-10)
                + near("gamma0", rows.get("gamma0", math.nan), 1.6471, 1e-3))

    @staticmethod
    def check_convolution(out):
        return [] if out["margin"] > 0 else [f"margin {out['margin']!r}"]

    @staticmethod
    def check_report(out):
        rows = {row["constant_name"]: row for row in out}
        off = [n for n, row in rows.items() if row["status"] != row["expected_status"]]
        problems = [f"rows off their expected status: {off}"] if off else []
        for name, value in (("a5_extremal", 5 / 12), ("h2_reduced_poly_max", 17 / 48),
                            ("h2_member_max", 0.25), ("h3_member_max", 1 / 9)):
            problems += near(name, rows.get(name, {}).get("computed_value", math.nan),
                             value, 1e-9)
        return problems

    def run_round(self, r: int, launcher: list[str]) -> Round:
        """One pass over the commands, each started as ``launcher + argv``."""
        rd = Round()
        for argv, code, check, light in self.commands(r):
            name = " ".join(argv)
            rd.attempted += 1
            wall, got, stdout, stderr, rss = run_child(launcher + argv, self.workdir)
            rd.timed("report" if argv[0] == "report" else "commands", wall)
            rd.peak_rss_kb = max(rd.peak_rss_kb, rss)
            if light:
                rd.cold_start_s.append(wall)
            rd.fixed[name] = (got, stdout)   # same argv, same output
            if got != code:
                rd.failed += 1
                tail = stderr.strip().splitlines()[-1:] or [""]
                rd.problems.append(f"{name}: exit {got}, expected {code}: {tail[0]}")
                continue
            try:
                parsed = json.loads(stdout)
            except json.JSONDecodeError as exc:
                rd.verdict(name, [f"stdout is not JSON: {exc}"])
                continue
            problems = [] if canonical(parsed) + "\n" == stdout else [
                "stdout does not re-serialize byte-identically"]
            rd.verdict(name, problems + check(parsed))
        return rd

    @staticmethod
    def stage_metrics(rounds: list[Round]) -> dict[str, float]:
        samples = sorted(s for rd in rounds for s in rd.cold_start_s)
        tail_value, tail_pct = tail(samples)
        return {"cold_start_p50_s": float(np.median(samples)),
                "cold_start_tail_s": tail_value,
                "cold_start_tail_pct": tail_pct,
                "cold_start_samples": float(len(samples)),
                "report_cli_s": float(np.median([rd.stages["report"] for rd in rounds]))}


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest sample with at least ten samples beyond it, and its percentile.

    With ten samples or fewer no sample qualifies; the maximum is returned
    at percentile 100.
    """
    s = sorted(samples)
    k = len(s) - 10
    if k < 1:
        return s[-1], 100.0
    return s[k - 1], 100.0 * k / len(s)
