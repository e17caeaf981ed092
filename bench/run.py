"""Benchmark of the paircond experiments, run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Starts worker processes that import the program from ``src/`` of the
checkout, runs whole passes through the workload's experiments for S
seconds of pass time, checks every output of every pass against references
computed here without the program (``checks.py``), and prints one JSON line
last: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones.
Exits 2 without a result when the checkout has no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import layertrace
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3          # set-up timed in this many fresh processes
WORKER_TIMEOUT_S = 150.0
OUT_DIR = ".bench_out"
# one BLAS thread: the dense kernels then time the same whatever else runs
# on the machine's cores
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def worker(args, out: str, env: dict, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    os.makedirs(out)
    launched = time.monotonic()
    subprocess.run(cmd + ["--launched", repr(launched)], env=env, check=True,
                   stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_passes(inputs, passes, refs) -> tuple:
    """(correct, attempted, failed) over every op of every pass."""
    correct, attempted, failed = True, 0, 0
    first = {rec["name"]: rec["rows"] for rec in passes[0]["ops"]}
    for k, rec_pass in enumerate(passes):
        for op, rec in zip(inputs.ops, rec_pass["ops"]):
            attempted += 1
            if rec["code"] != 0:
                fails = [f"exit code {rec['code']}"]
            else:
                try:
                    fails = checks.check_op(op, refs, rec["summary"], rec["rows"])
                except (KeyError, TypeError, ValueError) as exc:
                    fails = [f"unreadable output: {exc!r}"]
                fails += checks.check_repeat(first[op.name], rec["rows"])
            if fails:
                failed += 1
                correct &= op.known_fault
                tag = "known fault" if op.known_fault else "FAILED"
                print(f"bench: pass {k} {op.name} {tag}: {'; '.join(fails)}",
                      file=sys.stderr)
    return correct, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a terminated run stops its worker too: subprocess.run kills the child
    # on the SystemExit raised here
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "paircond", "__init__.py")):
        return fail(f"no program at {src}/paircond; run from a checkout root")
    out = os.path.join(root, OUT_DIR, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.update({k: "1" for k in THREAD_ENV})

    try:
        setups = [worker(args, os.path.join(out, f"setup{k}"), env, True)
                  for k in range(SETUP_SAMPLES - 1)]
        main_run = worker(args, os.path.join(out, "main"), env, False)
    except subprocess.SubprocessError as exc:
        return fail(f"worker failed: {exc}")
    if os.path.realpath(main_run["paircond"]) != os.path.realpath(
            os.path.join(src, "paircond")):
        return fail(f"worker imported paircond from {main_run['paircond']}")

    inputs = wl.make(args.workload, args.seed)
    passes = main_run["passes"]
    correct, attempted, failed = check_passes(inputs, passes,
                                              checks.references(inputs))

    if args.trace:
        metrics = {k: {"value": main_run["layers"][k], "unit": u}
                   for k, u in layertrace.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"]
                                                   for s in setups + [main_run]),
                        "unit": "s"},
            "pass_s": {"value": statistics.median(p["pass_s"] for p in passes),
                       "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MiB"},
        }
    print(f"bench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations attempted, {failed} failed, correct={correct}",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"bench:   {name} = {m['value']} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
