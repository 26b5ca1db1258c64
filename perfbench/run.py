"""dgal benchmark: time ``dgal galois`` on seeded system families.

Usage (from the repository root):

    python3 perfbench/run.py --workload sl2-airy --seed 1 --seconds 35 --trace 0

Workloads: sl2-airy, finite-radical, torus-characters (see NOTES.md).

A single client drives a closed loop: each instance is written as a system
document and solved by ``dgal.cli.main`` in a fresh worker interpreter,
one worker at a time.  The run solves the worked examples, then whole
cycles of the workload's strata until ``--seconds`` have passed.  The output
document is checked against the answer the instance's parameters imply.

Every time the run reports is scaled to a nominal machine speed.  The
worker times a fixed elimination over the rationals just before and just
after the solve (``worker.reference``); each of its times is multiplied by
``NOMINAL_REF_S`` over that reference time.  A virtual machine on a
shared host can drift between a fast and a slow state 1.6x apart for
minutes at a time; dgal's work slows in proportion with the reference, so
the scaled times hold steady where wall times do not (NOTES.md, Noise).
The unscaled wall times are printed on the text lines.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` every instance is solved twice, untraced and then with the
layers wrapped in spans (``spans.py``); the run reports per-layer metrics
as means per instance, and the tracing overhead as traced minus untraced
solve time.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import families
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKDIR = HERE / "_work"
# one document file per run, so runs in the same checkout cannot collide
SYSTEM = WORKDIR / ("system-%d.txt" % os.getpid())

# every run ends within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0
# reported times are wall times on a machine where worker.reference takes
# this long (about its time on the 2-vCPU machine measured, fast state)
NOMINAL_REF_S = 0.04


@contextlib.contextmanager
def workdir():
    """Hold the scratch directory that ``solve`` writes documents to."""
    WORKDIR.mkdir(exist_ok=True)
    try:
        yield
    finally:
        SYSTEM.unlink(missing_ok=True)
        with contextlib.suppress(OSError):   # another run still uses it
            WORKDIR.rmdir()


def solve(inst, trace, deadline):
    """Run one instance in a fresh worker; return its result dict.

    The result gains ``wall_setup_s`` (spawn to ready), ``wall_solve_s``,
    the factor ``scale`` = NOMINAL_REF_S / reference time, ``setup_s`` and
    ``solve_s`` multiplied by it, and ``error`` (None when the answer is
    correct)."""
    SYSTEM.write_text(inst.document())
    request = json.dumps({"system": str(SYSTEM), "argv": list(inst.argv),
                          "src": str(SRC), "trace": trace})
    # cache dgal's bytecode as an installed package would, so set-up time
    # is import time and not the compilation of the sources
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=str(ROOT),
                            env=env)
    try:
        out, err = proc.communicate(request + "\n",
                                    timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timed out", "timed_out": True}
    if proc.returncode != 0 or not out.strip():
        return {"error": "worker exited %d: %s" % (proc.returncode,
                                                   err.strip()[-500:])}
    result = json.loads(out.strip().splitlines()[-1])
    result["scale"] = NOMINAL_REF_S / result["ref_s"]
    result["wall_setup_s"] = result["ready"] - spawn
    result["wall_solve_s"] = result["solve_s"]
    result["setup_s"] = result["wall_setup_s"] * result["scale"]
    result["solve_s"] = result["wall_solve_s"] * result["scale"]
    result["error"] = oracle.check(inst.expect, result["code"],
                                   result["stdout"])
    if result["error"] and result["stderr"]:
        result["error"] += " (stderr: %s)" % result["stderr"].strip()[-300:]
    return result


def end_to_end(done):
    """End-to-end metrics over the completed stream instances."""
    times = [r["solve_s"] for r in done]
    ok = sum(1 for r in done if not r["error"])
    return {
        "solve_s.median": (statistics.median(times), "s"),
        "solves_per_min": (60.0 * ok / sum(times), "1/min"),
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done),
                        "MB"),
    }


def per_layer(pairs):
    """Per-instance means of the traced layers, from (plain, traced)."""
    traced = [t for _p, t in pairs]
    count = len(traced)
    metrics = {}
    solve_total = sum(t["solve_s"] for t in traced)
    for name in spans.LAYERS:
        for stat, unit in (("calls", "count"), ("busy_s", "s"),
                           ("self_s", "s")):
            total = sum(t["layers"][name + "." + stat]
                        * (1.0 if unit == "count" else t["scale"])
                        for t in traced)
            metrics[name + "." + stat] = (total / count, unit)

    def counter(key):
        return sum(t["layers"]["counts"].get(key, 0) for t in traced)

    def calls(name):
        return sum(t["layers"][name + ".calls"] for t in traced)

    metrics["linalg.add_row.useful_ratio"] = (
        counter("add_row.useful") / max(1, calls("linalg.add_row")), "ratio")
    metrics["multipoly.groebner.basis_len"] = (
        counter("groebner.basis_len") / max(1, calls("multipoly.groebner")),
        "count")
    metrics["fields.split_univariate.max_degree"] = (
        max(t["layers"]["maxima"].get("split_univariate.max_degree", 0)
            for t in traced), "count")
    metrics["solve.solve_zero_dimensional.positive_dimensional"] = (
        counter("solve_zero_dimensional.positive_dimensional") / count,
        "count")
    metrics["systems.fundamental_series.order_sum"] = (
        counter("fundamental_series.order_sum") / count, "count")
    metrics["trace.solve_s"] = (solve_total / count, "s")
    metrics["trace.overhead_s"] = (
        sum(t["solve_s"] - p["solve_s"] for p, t in pairs) / count, "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(families.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dgal" / "cli.py").is_file():
        print("error: no dgal sources at %s" % SRC, file=sys.stderr)
        return 2

    start = time.monotonic()
    stop, deadline = start + args.seconds, start + HARD_LIMIT_S
    results, pairs, halted = [], [], False
    with workdir():
        # group 0 holds the worked examples; at least one cycle follows
        for index, group in enumerate(families.groups(args.workload,
                                                      args.seed)):
            if halted or index > 1 and time.monotonic() >= stop:
                break
            for inst in group:
                res = solve(inst, False, deadline)
                res["example"] = index == 0
                if args.trace and not res["error"]:
                    traced = solve(inst, True, deadline)
                    if traced["error"]:
                        res = dict(res, error="traced: " + traced["error"])
                    elif index:
                        pairs.append((res, traced))
                results.append(res)
                print("%-32s %s" % (inst.name,
                                    "solve_s=%.4f wall=%.4f" % (
                                        res["solve_s"], res["wall_solve_s"])
                                    if "solve_s" in res else ""),
                      res["error"] or "ok", flush=True)
                if res.get("timed_out") or time.monotonic() >= deadline:
                    halted = True
                    break

    failed = sum(1 for r in results if r["error"])
    done = [r for r in results if "solve_s" in r and not r["example"]]
    if not (pairs if args.trace else done):
        print("error: no instance completed", file=sys.stderr)
        return 1
    metrics = per_layer(pairs) if args.trace else end_to_end(done)
    print("instances: %d attempted, %d failed, fail_rate %.4f" % (
        len(results), failed, failed / len(results)))
    print("unscaled: solve_s.median %.4f s, setup_s %.4f s, reference %.4f s"
          % tuple(statistics.median(r[key] for r in done)
                  for key in ("wall_solve_s", "wall_setup_s", "ref_s")))
    for name, (value, unit) in metrics.items():
        print("%-56s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
