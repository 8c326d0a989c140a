"""Benchmark entry point.

    python3 perfbench/run.py --workload {sampled,intersection,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. The run checks its own checker with
the planted-error self-test, then starts measured passes (perfbench/worker.py)
one after another, each in a fresh interpreter with the checkout's ``src``
on PYTHONPATH. Every pass runs the same whole batch of operations; a further
pass starts while it is expected to end within S seconds of the first one's
start, so a run measures at most S seconds unless its first pass alone takes
longer. The first pass's set-up time is a cold start. Every
answer of the first pass goes through the independent checker, and every
later pass must answer identically. The last line of standard output is one
JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).

Work files go to .perfbench_work/ in the checkout and are replaced by the
next run of the same workload and trace setting.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checker import check_answer  # noqa: E402
from selftest import run_selftest  # noqa: E402
from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PASS_TIMEOUT_S = 170.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_pass(root: str, work: str, args) -> tuple[float, dict]:
    """One worker pass; returns (spawn time, pass result)."""
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--work", work,
    ]
    with open(os.path.join(work, "stderr.txt"), "w", encoding="utf-8") as err:
        spawn = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=err,
                              timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        with open(os.path.join(work, "stderr.txt"), encoding="utf-8") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(os.path.join(work, "pass.json"), encoding="utf-8") as fh:
        return spawn, json.load(fh)


def answers_digest(result: dict) -> list:
    """What must repeat exactly between passes: the answers, and for cli the
    bytes of every report file."""
    out = []
    for ans in result["answers"]:
        if ans is not None and ans.get("kind") == "cli" and os.path.exists(ans["out"]):
            with open(ans["out"], encoding="utf-8") as fh:
                out.append([ans["command"], os.path.basename(ans["instance"]), ans["code"], fh.read()])
        else:
            out.append(ans)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "supcone", "__init__.py")):
        return fail("run from the root of a supcone checkout (src/supcone is missing)")
    selftest_errors = run_selftest()
    if selftest_errors:
        return fail("checker self-test failed: " + "; ".join(selftest_errors))

    base = os.path.join(root, ".perfbench_work", f"{args.workload}-t{args.trace}")
    if os.path.exists(base):
        shutil.rmtree(base)
    results: list[dict] = []
    setup_s = None
    start = time.perf_counter()
    while True:
        work = os.path.join(base, f"pass-{len(results)}")
        t_pass = time.perf_counter()
        try:
            spawn, res = run_pass(root, work, args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return fail(str(exc))
        if not res["supcone_file"].startswith(os.path.join(root, "src") + os.sep):
            return fail(f"imported supcone from {res['supcone_file']}, not from this checkout")
        if setup_s is None:
            setup_s = (res["setup_end"] - spawn) * res["setup_factor"]
        results.append(res)
        now = time.perf_counter()
        if now - start + (now - t_pass) > args.seconds:
            break

    first = results[0]
    problems: list[str] = []
    for ans in first["answers"]:
        if ans is not None and ans.get("code", 0) == 0:  # failed operations are counted, not checked
            problems += check_answer(ans)
    reference = answers_digest(first)
    for k, res in enumerate(results[1:], start=1):
        if answers_digest(res) != reference:
            problems.append(f"pass {k} answered differently from pass 0")

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        layers = [r["layers"] for r in results]
        counted = [k for k, u in METRICS.items() if u != "s"]
        for k, lay in enumerate(layers[1:], start=1):
            moved = [m for m in counted if lay[m] != layers[0][m]]
            if moved:
                problems.append(f"traced pass {k} counted differently: {moved}")
        for k, lay in enumerate(layers):
            total = sum(v for m, v in lay.items() if m.endswith(".self_s"))
            if total >= lay["trace.wall_s"]:
                problems.append(f"traced pass {k}: layer self times {total} exceed its wall time")
        metrics = {
            m: {"value": statistics.median(lay[m] for lay in layers), "unit": unit}
            for m, unit in METRICS.items()
        }
    else:
        op_s = [t for r in results for t in r["op_s"]]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in results), "unit": "s"},
            "op_ms_p50": {"value": 1000 * statistics.median(op_s), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in results), "unit": "MB"},
        }
    raw = statistics.median(r["raw_wall_s"] for r in results)
    print(f"passes {len(results)}, measured wall_s median {raw:.4f}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
