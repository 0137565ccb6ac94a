#!/usr/bin/env python3
"""Layered host-time benchmark of the VCA simulator.

Run from the repository root::

    python3 perfbench/run.py --workload detail-vca --seed 1 \\
        --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``detail-vca``   full-detail vca-rw runs: the VCA rename path;
* ``smt-vca``      2-thread vca SMT pairs, one register-starved;
* ``sampled``      sampled vca-rw runs at scale 64: the functional and
                   sampling layers;
* ``service-jobs`` jobs against a ``repro serve`` subprocess: HTTP,
                   scheduler, engine and store.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs half its time untraced, a quarter under the
layer probe and a quarter under the rename probe, and reports the
per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
host stamp and the workload's own summary.
Work files go under ``.bench_work/`` and are removed at the end,
except the traced run's spans in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("detail-vca", "smt-vca", "sampled", "service-jobs")

#: The end-to-end metrics every workload reports, as ``(name, unit)``;
#: ``BENCHMARK.json`` lists exactly these.
END_TO_END = (("sim_ips", "insn/s"), ("op_p50_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Set-ups per run of an in-process workload; ``setup_s`` is their
#: median.  Each is a fresh interpreter doing the workload's imports,
#: program generation and oracle runs.  Half run before the
#: measurement and half after it, so a slow spell of the host shorter
#: than the run reaches at most half of them.
SETUP_REPS = 10


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one-item run lists and one set-up (self-test)")
    ap.add_argument("--poll", type=float, default=None,
                    help="service client poll interval in seconds")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_seconds(args, reps: int) -> list:
    """Wall times of ``reps`` fresh-interpreter set-ups."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def _probed(probe, s, seed: int, seconds: float, stats_out):
    """Passes of an in-process workload with ``probe`` installed."""
    import inproc
    probe.install()
    try:
        return inproc.run_passes(s, seed, seconds, probe=probe,
                                 stats_out=stats_out)
    finally:
        probe.uninstall()


def _inproc(args, work: Path):
    import inproc
    from tracing import LayerProbe

    setups = _setup_seconds(args, 1 if args.smoke else SETUP_REPS // 2)
    s = inproc.setup(args.workload, args.seed, args.smoke)
    outputs: list = []
    trace_doc = None
    if not args.trace:
        passes = inproc.run_passes(s, args.seed, args.seconds,
                                   stats_out=outputs)
        traced = []
    else:
        # Half the time untraced; a quarter under the layer probe, a
        # quarter under the rename probe (see LayerProbe).
        passes = inproc.run_passes(s, args.seed, args.seconds / 2)
        probe = LayerProbe()
        rename_probe = LayerProbe(probe.spans, rename=True)
        traced = _probed(probe, s, args.seed, args.seconds / 4, outputs)
        renamed = _probed(rename_probe, s, args.seed, args.seconds / 4,
                          None)
        layers = inproc.layer_metrics(
            args.workload, s, probe, len(traced), rename_probe,
            len(renamed), outputs, work / "store-timing.sqlite")
        traced += renamed
        layers["trace.overhead_pct"] = (
            statistics.fmean(sum(o.seconds for o in p) for p in traced)
            / statistics.fmean(sum(o.seconds for o in p) for p in passes)
            - 1) * 100
        trace_doc = {"metrics": layers, "spans": probe.spans.to_json()}
    if not args.smoke:
        setups += _setup_seconds(args, SETUP_REPS - len(setups))
    ops = [o for p in passes + traced for o in p]
    failed = sum(not o.ok for o in ops)
    metrics = inproc.e2e_metrics(passes)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    lines = [f"passes={len(passes)}{'+' + str(len(traced)) if traced else ''}"
             f" ops={len(ops)} error_rate={failed / len(ops):.4f}"]
    if args.workload == "sampled":
        lines.append(f"sampled_ips={metrics['sim_ips']:.1f} insn/s "
                     f"sampled_run_p50_s={metrics['op_p50_s']:.4f} "
                     f"(n={sum(len(p) for p in passes)} runs)")
        err = inproc.accuracy(s, outputs[0])
        lines.append("accuracy vs full detail: " + (
            " ".join(f"{m}_err_pct={v:.3f}" for m, v in err.items())
            if err is not None else "unavailable (no recorded "
            "reference for this run list)"))
    return len(ops), failed, metrics, lines, trace_doc


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    # The in-process workloads use no result store; point the cache at
    # the work directory anyway so nothing reaches .repro_cache/.
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ.pop("REPRO_STORE", None)
    if args.setup_only:
        import inproc
        inproc.setup(args.workload, args.seed, args.smoke)
        return 0

    from host import host_stamp
    host = host_stamp()
    print("host: " + json.dumps(host), flush=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "service-jobs":
            import service
            attempted, failed, metrics, lines, trace_doc = service.measure(
                args.seed, args.seconds, bool(args.trace), work, SRC,
                smoke=args.smoke, poll=args.poll or service.POLL_S)
        else:
            attempted, failed, metrics, lines, trace_doc = _inproc(
                args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(f"{args.workload}: {line}")
    if args.trace:
        from tracing import PER_LAYER
        trace_doc["metrics"]["host.calib_mops"] = host["calib_mops"]
        units = dict(PER_LAYER)
        out_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "host": host, **trace_doc}, f)
        print(f"{args.workload}: spans and per-layer metrics written to "
              f"{out_path.relative_to(ROOT)}; tracing overhead "
              f"{trace_doc['metrics']['trace.overhead_pct']:.1f}%")
        reported = {k: {"value": v, "unit": units[k]}
                    for k, v in trace_doc["metrics"].items()}
    else:
        units = dict(END_TO_END)
        reported = {k: {"value": metrics[k], "unit": units[k]}
                    for k, _ in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
