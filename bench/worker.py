"""Benchmark worker: one process that imports the program, writes the
workload's configs and runs passes through its experiments.

Started by ``run.py`` with ``src`` on PYTHONPATH; writes its measurements
and every pass's outputs as JSON to ``<out>/result.json``. With
``--setup-only`` it stops once the first experiment is ready, which is how
``run.py`` samples the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

import workloads as wl


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_pass(cli, inputs, configs, out_dir) -> dict:
    """One pass through the workload's experiments. Only the ``cli.run``
    calls are timed; reading the outputs back is not."""
    ops, elapsed, out_bytes = [], 0.0, 0
    for op, cfg in zip(inputs.ops, configs):
        op_dir = os.path.join(out_dir, op.name)
        for fname in ("report.json", "rows.csv"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(op_dir, fname))
        cfg = json.loads(json.dumps(cfg))
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            code = cli.run(op.experiment, cfg, op_dir)
            elapsed += time.perf_counter() - t0
        report = _read(os.path.join(op_dir, "report.json"))
        rows = _read(os.path.join(op_dir, "rows.csv"))
        out_bytes += len((report or "").encode()) + len((rows or "").encode())
        summary = json.loads(report)["summary"] if code == 0 and report else None
        ops.append({"name": op.name, "code": code, "summary": summary, "rows": rows})
    return {"pass_s": elapsed, "ops": ops, "output_bytes": out_bytes}


def run_passes(cli, inputs, configs, out_dir, seconds, passes, tracer=None):
    """Whole passes for about ``seconds`` of pass time: at least one, and
    another only while it should end under half a pass past the limit."""
    spent = 0.0
    while True:
        rec = run_pass(cli, inputs, configs, out_dir)
        if tracer is not None:
            rec["layers"] = tracer.pass_metrics()
            rec["layers"]["reporting.output_bytes"] = rec["output_bytes"]
        rec["traced"] = tracer is not None
        passes.append(rec)
        spent += rec["pass_s"]
        if spent + rec["pass_s"] / 2 > seconds:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from paircond import cli

    inputs = wl.make(args.workload, args.seed)
    configs = wl.write(inputs, os.path.join(args.out, "inputs"))
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s, "paircond": os.path.dirname(cli.__file__)}
    if not args.setup_only:
        passes: list = []
        runs = os.path.join(args.out, "runs")
        if args.trace:
            import layertrace

            # untraced passes first, then the same work with wrappers installed
            run_passes(cli, inputs, configs, runs, args.seconds / 2, passes)
            tracer = layertrace.Tracer()
            tracer.install()
            try:
                run_passes(cli, inputs, configs, runs, args.seconds / 2, passes,
                           tracer)
            finally:
                tracer.uninstall()
            layers = layertrace.median_metrics(
                [p["layers"] for p in passes if p["traced"]])
            layers["trace.overhead_s"] = (
                statistics.median(p["pass_s"] for p in passes if p["traced"])
                - statistics.median(p["pass_s"] for p in passes if not p["traced"]))
            result["layers"] = layers
        else:
            run_passes(cli, inputs, configs, runs, args.seconds, passes)
        result["passes"] = passes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
