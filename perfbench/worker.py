"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --work DIR

run.py starts this with ``src`` on PYTHONPATH, so the unbounded caches in
supcone.functions start empty as they do for every command-line user. The
pass imports the program, builds its inputs, then runs every operation once
in a closed loop with one caller, timing each from outside. A speed probe
(speed.py) runs throughout, and every time is reported both as measured and
at the reference host speed. With --trace 1 the layers are wrapped after
set-up and the spans are written to DIR. The pass writes DIR/pass.json and
exits 0 even when operations fail: failures are counted there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    import workloads

    import supcone

    ops = workloads.SETUP[args.workload](args.seed, args.work)
    setup_end = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    spans: list[tuple[float, float]] = []
    answers: list[object] = []
    failed = 0
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            answer = op()
        except Exception:
            answer = None
            traceback.print_exc()
        spans.append((t0, clock()))
        answers.append(answer)
        if answer is None or answer.get("code", 0) != 0:
            failed += 1
    end = clock()
    probe.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop_factor = probe.factor(start, end)

    result = {
        "supcone_file": os.path.abspath(supcone.__file__),
        "setup_end": setup_end,
        "setup_factor": probe.factor(0.0, setup_end),
        "raw_wall_s": end - start,
        "wall_s": (end - start) * loop_factor,
        "raw_op_s": [t1 - t0 for t0, t1 in spans],
        "op_s": [(t1 - t0) * probe.factor(t0, t1) for t0, t1 in spans],
        "probes": len(probe.times),
        "rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": failed,
        "answers": answers,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        for name in layers:
            if name.endswith("_s"):
                layers[name] *= loop_factor
        layers["trace.wall_s"] = result["wall_s"]
        result["layers"] = layers
        tracer.write_spans(os.path.join(args.work, "spans.jsonl"))
    with open(os.path.join(args.work, "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
