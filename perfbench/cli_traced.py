"""Run one secstar command line with the span tracer installed.

Usage: python3 perfbench/cli_traced.py SPANS_FILE ARG...

Behaves like ``python -m secstar ARG...`` (same stdout, stderr and exit
code) and, when the command ends, appends one JSON line to SPANS_FILE: the
subcommand, the time to import ``secstar.cli``, the time inside
``secstar.cli.main`` (argument parsing included) and the recorded spans.
``src`` must be on PYTHONPATH.
"""

import json
import sys
from time import perf_counter


def main() -> int | str | None:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import secstar.cli
    import_s = perf_counter() - t0

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    t1 = perf_counter()
    try:
        return secstar.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit from inside main
        return exc.code
    finally:
        main_s = perf_counter() - t1
        tracer.uninstall()
        sys.stdout.flush()
        with open(spans_file, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"command": argv[0] if argv else "", "import_s": import_s,
                                 "main_s": main_s, "spans": tracer.export()}) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
