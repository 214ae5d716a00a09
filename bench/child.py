"""Run CLI requests in one fresh process, optionally traced.

    python3 bench/child.py REQUESTS RESULTS [--spans SPANS]

REQUESTS is a JSON list of argument lists for ``finapprox.cli.main``. Each
request's report (its standard output), exit code and wall time go to
RESULTS as one JSON line, written as soon as the request returns so that the
process does not hold every report; a last line holds the loop's wall time.
With ``--spans`` the process wraps the numpy/scipy entry points before
importing finapprox, then the public finapprox functions, and writes the
recorded spans to SPANS when the requests are done.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("requests")
    parser.add_argument("results")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    requests = json.loads(Path(args.requests).read_text())

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install_lapack()
        tracer.install_finapprox()
    import finapprox.cli

    with open(args.results, "w") as results:
        loop_start = time.perf_counter()
        for argv in requests:
            out = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                try:
                    code = finapprox.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            seconds = time.perf_counter() - start
            results.write(json.dumps({"code": code, "seconds": seconds, "report": out.getvalue()}) + "\n")
        results.write(json.dumps({"loop_seconds": time.perf_counter() - loop_start}) + "\n")
    if tracer is not None:
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
