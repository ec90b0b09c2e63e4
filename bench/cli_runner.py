"""Run one gbzeta CLI invocation with the benchmark's spans installed.

Usage: python3 bench/cli_runner.py SPANS_OUT ARG...

Behaves like `python -m gbzeta.cli ARG...` (same stdout, stderr and exit
code) and afterwards writes the spans, the import time of gbzeta.cli and
the time spent in cli.main to SPANS_OUT as JSON.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import gbzeta.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.op_id = 0
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = gbzeta.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # the interpreter would print it and exit 1
        traceback.print_exc()
        code = 1
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.export(), import_s=import_s, main_s=main_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
