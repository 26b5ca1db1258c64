"""Solve one benchmark instance in a fresh interpreter.

Usage: python3 worker.py  (reads one JSON request from stdin)

The request holds ``system`` (path of the system document), ``argv`` (the
``dgal galois`` flags after ``--system``), ``src`` (the directory that must
provide the ``dgal`` package) and ``trace`` (wrap the layers with spans).

The worker imports ``dgal.cli``, parses the document once, notes the
CLOCK_MONOTONIC time at which it is ready (the parent subtracts its spawn
time from it to get the cold start), then calls ``dgal.cli.main`` with
stdout captured.  ``reference`` runs just before and just after the solve;
the parent scales the times by it.  The worker prints one JSON object with
the exit code, the output document, the solve time, the mean reference
time, its peak resident memory and, when traced, the per-layer summary.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction


def reference(n=22):
    """Time a fixed Gauss-Jordan elimination over the rationals.

    It is the kind of work dgal's relation solve does (Fraction arithmetic
    on Python lists), with no dgal code in it, and it takes about 0.04 s."""
    x, rows = 12345, []
    for _i in range(n):
        row = []
        for _j in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(Fraction(x % 19 - 9, x % 7 + 1))
        rows.append(row)
    t0 = time.perf_counter()
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                k = rows[r][c]
                rows[r] = [a - k * b for a, b in zip(rows[r], rows[c])]
    return time.perf_counter() - t0


def main():
    request = json.loads(sys.stdin.readline())
    src = os.path.realpath(request["src"])
    sys.path.insert(0, src)
    import dgal.cli
    from dgal.systems import OdeSystem
    if not os.path.realpath(dgal.cli.__file__).startswith(src + os.sep):
        raise SystemExit("dgal was imported from outside %s" % src)
    with open(request["system"]) as fh:
        OdeSystem.from_document(fh.read())
    ready = time.monotonic()

    recorder = None
    if request["trace"]:
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)

    out, err = io.StringIO(), io.StringIO()
    argv = ["galois", "--system", request["system"]] + request["argv"]
    ref_before = reference()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dgal.cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    solve_s = time.perf_counter() - t0
    ref_after = reference()

    result = {
        "ready": ready,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "solve_s": solve_s,
        "ref_s": (ref_before + ref_after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        result["layers"] = recorder.summary()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
