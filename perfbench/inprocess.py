"""One pass of a command sequence through `hilbert_signs.cli.main`, in a fresh process.

    echo '{"argv": [["simulate", "--d", "5", "--x", "1000", "--seed", "0"]], "traced": true}' \
        | PYTHONPATH=src python3 perfbench/inprocess.py

The package is imported before the clock starts, so the pass times only
the commands, but it still pays every first-call cost that a CLI user
pays.  With "traced", the spans of perfbench/spans.py are installed
around the pass.  Prints one JSON object: each command's exit code and
stdout, the pass's wall time, and the per-layer metrics when traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from time import perf_counter

from hilbert_signs import cli
from spans import Tracer


def main() -> int:
    job = json.load(sys.stdin)
    tracer = Tracer()
    if job["traced"]:
        tracer.install()
    results, wall = [], 0.0
    for argv in job["argv"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:  # a traceback fails this command, not the pass
                traceback.print_exc()
                rc = 1
            wall += perf_counter() - t0
        results.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    tracer.uninstall()
    nbytes = sum(len(r["stdout"].encode()) for r in results)
    metrics = tracer.metrics(wall, nbytes) if job["traced"] else None
    json.dump({"commands": results, "wall": wall, "metrics": metrics}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
