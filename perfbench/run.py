"""secstar benchmark: run one seeded workload for a fixed time and report.

Usage (from the repository root):

    python3 perfbench/run.py --workload {search,surfaces,cli} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.  Rounds of the
workload run back to back until the next one would end after S seconds.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment, the
stage figures and every failure.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced rounds on the same inputs,
checks that their outputs are identical, and reports the per-layer metrics
(per round) plus the tracing overhead.  Spans are written to
``.bench_build/perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 2   # fresh interpreters that repeat the set-up, besides this one
WORKLOADS = ("search", "surfaces", "cli")
STAGE_UNITS = {"members_per_s": "1/s", "optimize_s": "s", "convolution_s": "s",
               "constants_s": "s", "envelopes_s": "s", "cold_start_p50_s": "s",
               "cold_start_tail_s": "s", "cold_start_tail_pct": "%",
               "cold_start_samples": "count", "report_cli_s": "s"}


def setup(workload: str, seed: int):
    """Import secstar from src/ and build the workload's inputs; timed."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import secstar
    if Path(secstar.__file__).resolve().parent != SRC / "secstar":
        raise SystemExit(f"secstar imported from {secstar.__file__}, not from {SRC}")
    import workloads
    if workload == "search":
        wl = workloads.Search(secstar, seed)
    elif workload == "surfaces":
        wl = workloads.Surfaces(secstar, seed)
    else:
        wl = workloads.Cli(seed, WORKDIR)
    return perf_counter() - t0, wl


def environment(seed: int) -> dict:
    import ctypes
    import glob
    from importlib import metadata

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for lib in glob.glob(pattern):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def scipy_import_s() -> float:
    """Cumulative time importing scipy modules under ``import secstar``,
    read from ``python -X importtime``."""
    from workloads import run_child

    _, code, _, stderr, _ = run_child(
        [sys.executable, "-X", "importtime", "-c", "import secstar"], WORKDIR)
    if code != 0:
        raise RuntimeError(f"import secstar failed:\n{stderr}")
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total_us = 0
    stack: list[tuple[int, bool]] = []   # (depth, inside scipy) of enclosing imports
    for depth, name, cumulative in reversed(rows):   # parents precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def rounds_for(seconds: float, run_one):
    """Call run_one(r) for r = 0, 1, ... until another call would pass `seconds`."""
    t_start = perf_counter()
    r = 0
    while True:
        run_one(r)
        r += 1
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / r > seconds:
            return


def compare(problems: list[str], label: str, got: dict, want: dict) -> None:
    for name in sorted(set(got) & set(want)):
        if got[name] != want[name]:
            problems.append(f"{name}: {label}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time the set-up once in this process, print it and exit")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "secstar" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no secstar sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)

    setup_s, wl = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import tracing
    import workloads

    setup_samples = [setup_s]
    for _ in range(SETUP_PROBES):
        _, code, stdout, stderr, _ = workloads.run_child(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"], WORKDIR)
        if code != 0:
            raise RuntimeError(f"set-up probe failed:\n{stderr}")
        setup_samples.append(float(stdout.strip().splitlines()[-1]))

    if args.workload == "cli":
        untraced = lambda r: wl.run_round(r, [sys.executable, "-m", "secstar"])
    else:
        untraced = wl.run_round

    plain: list = []        # untraced rounds
    traced: list = []
    problems: list[str] = []     # outputs that differ where they must not
    stats = tracing.LayerStats()
    spans_out: list = []
    missing: set[str] = set()
    import_s: list[float] = []
    handler_s = {sub: 0.0 for sub in tracing.SUBCOMMANDS}

    def traced_round(r: int):
        if args.workload == "cli":
            spans_file = WORKDIR / f"spans-{os.getpid()}-{r}.jsonl"
            rd = wl.run_round(r, [sys.executable, str(HERE / "cli_traced.py"),
                                  str(spans_file)])
            if not spans_file.exists():  # every traced command was killed
                return rd
            with open(spans_file, encoding="utf-8") as fh:
                for line in fh:
                    rec = json.loads(line)
                    stats.add(rec["spans"])
                    spans_out.append(rec["spans"])
                    import_s.append(rec["import_s"])
                    if rec["command"] in handler_s:
                        handler_s[rec["command"]] += rec["main_s"]
            spans_file.unlink()
            return rd
        tracer = tracing.Tracer()
        missing.update(tracer.install())
        try:
            rd = wl.run_round(r)
        finally:
            tracer.uninstall()
        exported = tracer.export()
        stats.add(exported)
        spans_out.append(exported)
        return rd

    def one(r: int):
        # Traced rounds alternate between going second and going first, so
        # that an order effect does not count as tracing overhead.
        tr = traced_round(r) if args.trace and r % 2 else None
        rd = untraced(r)
        plain.append(rd)
        compare(problems, "differs from round 0", rd.fixed, plain[0].fixed)
        if args.trace:
            if tr is None:
                tr = traced_round(r)
            traced.append(tr)
            compare(problems, "traced output differs from untraced",
                    {**tr.outputs, **tr.fixed}, {**rd.outputs, **rd.fixed})

    rounds_for(args.seconds, one)

    everything = plain + traced
    attempted = sum(rd.attempted for rd in everything)
    failed = sum(rd.failed for rd in everything)
    wrong = sum(rd.wrong for rd in everything)
    stages = type(wl).stage_metrics(plain)
    wall = workloads.typical_wall_s(plain)

    if args.trace:
        values = stats.metrics(len(traced))
        for name in STAGE_UNITS:
            values[name] = stages.get(name, 0.0)
        values["error_rate"] = failed / attempted
        values["cli.import_s"] = median(import_s) if import_s else 0.0
        values["import.scipy_s"] = scipy_import_s()
        for sub, total in handler_s.items():
            values[f"cli.handler.{sub}.busy_s"] = total / len(traced)
        overhead = workloads.typical_wall_s(traced) - wall
        values["trace.overhead_s"] = overhead
        values["trace.overhead_share"] = overhead / wall
        WORKDIR.joinpath(f"spans-{args.workload}-{args.seed}.json").write_text(
            json.dumps({"format": "[name, start, end, parent, tag] per traced round",
                        "rounds": spans_out}))
        section = "per_layer"
    else:
        if args.workload == "cli":
            rss_kb = max(rd.peak_rss_kb for rd in plain)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": median(setup_samples), "wall_s": wall,
                  "peak_rss_mb": rss_kb / 1024.0,
                  "success_rate": (attempted - failed) / attempted}
        section = "end_to_end"

    spec = json.loads(spec_path.read_text())
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                           f"{sorted(set(values) ^ set(units))}")

    counted: dict[str, int] = {}
    for msg in problems + [p for rd in everything for p in rd.problems]:
        counted[msg] = counted.get(msg, 0) + 1
    notes = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "setup_samples_s": setup_samples,
        "stages": {name: {"value": v, "unit": STAGE_UNITS[name]} for name, v in stages.items()},
        "error_rate": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted},
        "failures": counted,
        "untraced_targets": sorted(missing),
    }
    if args.workload == "surfaces":
        root = plain[0].fixed.get("radius:convexity:0")
        if root is not None:
            notes["convexity_root"] = {"r": root.r, "residual": root.residual}
    for msg, n in counted.items():
        print(f"[{n}x] {msg}", file=sys.stderr)
    print(json.dumps(notes))
    print(json.dumps({
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
