"""The ``service-jobs`` workload: one ``repro serve --workers 1``
subprocess driven by one closed-loop client.

Every job has the same shape: one novel small ``baseline`` point (a
store miss the worker simulates) plus ``len(REPEATS)`` points already
in the store (hits the server resolves at submit).  So HTTP, the
scheduler, fork and pipe, claim, publish and lookup do most of the
work, and no job touches VCA rename or sampling: this is the control
workload for simulator-only changes.

Each server gets a fresh sqlite ``--store``, ``--state-dir`` and
``REPRO_CACHE_DIR`` under the run's work directory.
"""

from __future__ import annotations

import copy
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_perf = time.perf_counter

MODEL = "baseline"
SCALE = 0.1
NOVEL_BENCH = "gzip_graphic"
#: Novel points differ only in register count.  From 257 up the
#: baseline machine never runs short of registers, so every novel
#: point costs the same; the repeats use fewer, so keys never collide.
NOVEL_REGS = range(257, 257 + 8000)
REPEAT_BENCHES = ("gzip_graphic", "twolf", "vortex_2", "gcc_expr",
                  "crafty")
REPEAT_REGS = (160, 192, 224)
#: Client poll interval.  At 0.2 s a 0.1 s job read 0.208 s; at this
#: interval halving it moves the median latency by well under its bound.
POLL_S = 0.005
#: Server start-ups per run; ``setup_s`` is their median.  Three run
#: before the jobs (the last one serves them) and two after, so a slow
#: spell of the host shorter than the run reaches a minority of them.
SETUP_REPS = (3, 2)
#: Jobs per second of ``--seconds``.  A run makes a fixed number of
#: jobs rather than looping for a fixed time: the scheduler keeps every
#: job it has served and its per-event work grows with them (median
#: latency rose from 0.042 s to 0.061 s over 981 jobs on a 2-core
#: host), so a time-boxed loop would charge a faster server for the
#: extra jobs it fits in.
JOBS_PER_SECOND = 20
#: Novel points replayed in-process in a traced run, to observe the
#: pipeline and rename layers the server's workers exercise.
REPLAYS = 8


def _points(regs: Optional[int] = None) -> List[dict]:
    from repro.experiments.plan import Point
    pts = [Point.run(MODEL, [b], r, scale=SCALE).to_dict()
           for b in REPEAT_BENCHES for r in REPEAT_REGS]
    if regs is not None:
        pts.append(Point.run(MODEL, [NOVEL_BENCH], regs,
                             scale=SCALE).to_dict())
    return pts


def _default_sigint() -> None:
    """Run in the server's child process before exec: :meth:`Server.stop`
    shuts the server down with SIGINT, which a parent started in the
    background (SIGINT ignored) would otherwise pass on as ignored."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """A ``repro serve`` subprocess with its own store and state."""

    def __init__(self, root: Path, src: Path) -> None:
        from repro.service.client import ServiceClient
        root.mkdir(parents=True)
        self.root = root
        env = dict(os.environ, PYTHONPATH=str(src),
                   REPRO_CACHE_DIR=str(root / "cache"))
        env.pop("REPRO_STORE", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers", "1",
             "--port", "0", "--store", str(root / "store.sqlite"),
             "--state-dir", str(root / "state")],
            stdout=subprocess.PIPE, env=env, text=True,
            preexec_fn=_default_sigint)
        line = self.proc.stdout.readline()
        if "listening on " not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServiceClient(line.split("listening on ")[1].split()[0])
        self.client.health()

    def ledger(self, job_id: str) -> List[dict]:
        from repro.obs.runlog import read_ledger
        return read_ledger(self.root / "state" / "ledgers"
                           / f"job-{job_id}.jsonl")

    def stop(self) -> None:
        """Shut down as Ctrl-C would (the scheduler reaps its workers),
        and wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _oracle() -> Dict[str, int]:
    from repro.functional.interp import FunctionalSim
    from repro.models import model_abi
    from repro.workloads.generator import benchmark_program
    abi = model_abi(MODEL)
    return {b: FunctionalSim(benchmark_program(b, abi, scale=SCALE))
            .run().instructions
            for b in set(REPEAT_BENCHES) | {NOVEL_BENCH}}


def _check(snap: dict, records: List[dict], points: List[dict],
           oracle: Dict[str, int], statuses: List[str]) -> List[str]:
    """Problems with one job's outcome (empty when correct)."""
    if snap["status"] != "done":
        return [f"job ended {snap['status']}"]
    if len(records) != len(points):
        return [f"{len(records)} records for {len(points)} points"]
    problems = []
    for rec, pt, want in zip(records, points, statuses):
        payload = rec.get("payload") or {}
        bench = pt["benches"][0]
        if rec["status"] != want:
            problems.append(f"{rec['label']}: {rec['status']}, "
                            f"expected {want}")
        elif payload.get("committed") != [oracle[bench]]:
            problems.append(f"{rec['label']}: committed "
                            f"{payload.get('committed')}, oracle ran "
                            f"{oracle[bench]}")
    return problems


def _start(root: Path, src: Path, oracle: Dict[str, int]) -> Server:
    """A server with the repeat points already in its store."""
    server = Server(root, src)
    try:
        pts = _points()
        jid = server.client.submit(pts, label="prime")
        snap = server.client.wait(jid, poll=POLL_S, timeout=120)
        recs = server.client.results(jid)
        problems = _check(snap, recs, pts, oracle, ["done"] * len(pts))
        if problems:
            raise RuntimeError("priming failed: " + "; ".join(problems))
    except BaseException:
        server.stop()
        raise
    return server


@dataclass
class Job:
    id: Optional[str]
    seconds: float
    insns: int
    ok: bool
    records: List[dict]


def _run_job(client, regs: List[int], oracle: Dict[str, int],
             poll: float) -> Job:
    """One closed-loop job: submit, wait, fetch the results."""
    pts = _points(regs.pop())
    t0 = _perf()
    try:
        jid = client.submit(pts)
        snap = client.wait(jid, poll=poll, timeout=60)
        recs = client.results(jid)
    except Exception as exc:  # a refused or lost job is a failure
        print(f"perfbench: job: {exc!r}", file=sys.stderr)
        return Job(None, _perf() - t0, 0, False, [])
    elapsed = _perf() - t0
    problems = _check(snap, recs, pts, oracle,
                      ["cached"] * (len(pts) - 1) + ["done"])
    for p in problems:
        print(f"perfbench: job {jid}: {p}", file=sys.stderr)
    insns = recs[-1]["payload"]["committed"][0] if not problems else 0
    return Job(jid, elapsed, insns, not problems, recs)


def _novel_timing(server: Server, job: Job) -> Optional[Tuple[float, float]]:
    """``(elapsed, simulate)`` seconds of the job's novel point: the
    engine's time for the point and the worker's ``simulate`` span in
    it, from the job ledger the server writes."""
    for rec in server.ledger(job.id):
        if rec.get("rec") == "point" and rec.get("status") == "done":
            for span in rec.get("spans", []):
                if span.get("name") == "simulate":
                    return rec["elapsed"], span["t1"] - span["t0"]
    return None


def e2e_metrics(server: Server, jobs: List[Job]) -> Dict[str, float]:
    """``sim_ips``: the novel points' instructions over the seconds the
    worker spent simulating them; ``op_p50_s``: median job latency."""
    timed = [(j.insns, _novel_timing(server, j)) for j in jobs if j.ok]
    timed = [(n, t[1]) for n, t in timed if t is not None]
    return {"sim_ips": (sum(n for n, _ in timed)
                        / sum(t for _, t in timed) if timed else 0.0),
            "op_p50_s": statistics.median(j.seconds for j in jobs)}


def latency_summary(jobs: List[Job]) -> str:
    lat = [j.seconds for j in jobs]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 10 else max(lat)
    beyond = sum(1 for x in lat if x > p90)
    return (f"job_latency_p50_s={statistics.median(lat):.5f} "
            f"job_latency_p90_s={p90:.5f} (n={len(lat)} jobs, "
            f"{beyond} beyond p90)")


def _traced_client(client, spans):
    """A copy of ``client`` whose submit, poll (``job``) and results
    calls are recorded as spans."""
    from tracing import timed
    traced = copy.copy(client)
    for method, name in (("submit", "service.submit"),
                         ("job", "service.poll"),
                         ("results", "service.results")):
        setattr(traced, method, timed(spans, name, getattr(client, method)))
    return traced


def _ledger_metrics(server: Server, jobs: List[Job]) -> Dict[str, float]:
    """Engine overhead of the novel point (ledger point elapsed minus
    the worker's ``simulate`` span) and simulate's share of the job."""
    overhead, share = [], []
    for job in jobs:
        timing = _novel_timing(server, job)
        if timing is not None:
            elapsed, sim = timing
            overhead.append(elapsed - sim)
            share.append(sim / job.seconds)
    return {"engine.overhead_ms": statistics.median(overhead) * 1e3,
            "engine.simulate_frac": statistics.median(share)}


def _replay_layers(regs: List[int], spans):
    """The workers' simulation, replayed in-process under the layer
    probe and then the rename probe (pipeline, rename, memory and
    front-end metrics)."""
    from repro.config import MachineConfig
    from repro.models import factory, model_abi
    from repro.workloads.generator import benchmark_program

    from tracing import LayerProbe, stats_layer_metrics

    prog = benchmark_program(NOVEL_BENCH, model_abi(MODEL), scale=SCALE)
    probe = LayerProbe(spans)
    rename_probe = LayerProbe(spans, rename=True)
    stats = []
    for p in (probe, rename_probe):
        p.install()
        try:
            for r in regs:
                p.begin_op(f"{MODEL}/{NOVEL_BENCH}@{r}")
                try:
                    machine = factory.build_machine(
                        MODEL, MachineConfig.baseline(phys_regs=r), [prog])
                    stats.append(machine.run())
                finally:
                    p.end_op()
        finally:
            p.uninstall()
    # Counts are per replayed point, i.e. per job.
    out = probe.layer_metrics(len(regs), sampled=False)
    out.update(rename_probe.rename_metrics(len(regs)))
    stats = stats[:len(regs)]
    for key, value in stats_layer_metrics(stats).items():
        out[key] = value if key.endswith("_rate") else value / len(regs)
    return out


def _serve(server: Server, regs: List[int], n_jobs: int, trace: bool,
           oracle: Dict[str, int], poll: float, work: Path):
    """The run's jobs against ``server``: ``(untraced, traced,
    trace_doc)``."""
    from tracing import PER_LAYER, SpanLog, store_timing

    if not trace:
        return ([_run_job(server.client, regs, oracle, poll)
                 for _ in range(n_jobs)], [], None)
    # Traced and untraced jobs alternate, so both see a server holding
    # as many jobs (its per-event work grows with them).
    jobs: List[Job] = []
    traced: List[Job] = []
    spans = SpanLog()
    client = _traced_client(server.client, spans)
    for i in range(n_jobs):
        if i % 2:
            spans.new_trace()
            op = spans.begin("job")
            traced.append(_run_job(client, regs, oracle, poll))
            spans.end(op)
        else:
            jobs.append(_run_job(server.client, regs, oracle, poll))
    ok = [j for j in traced if j.ok]
    records = [r for j in ok for r in j.records]
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update(_replay_layers(
        [int(j.records[-1]["point"]["phys_regs"]) for j in ok[:REPLAYS]],
        spans))
    layers.update(_ledger_metrics(server, ok))
    layers["store.get_ms"], layers["store.put_ms"] = store_timing(
        [r["payload"] for r in ok[0].records],
        work / "store-timing.sqlite")
    layers.update({
        "service.submit_ms": statistics.median(
            spans.durations("service.submit")) * 1e3,
        "service.results_ms": statistics.median(
            spans.durations("service.results")) * 1e3,
        "service.hit_frac": sum(
            r["status"] == "cached" for r in records) / len(records),
        "service.polls_per_job": len(
            spans.durations("service.poll")) / len(traced),
        "trace.overhead_pct": (
            statistics.fmean(j.seconds for j in traced)
            / statistics.fmean(j.seconds for j in jobs) - 1) * 100,
    })
    return jobs, traced, {"metrics": layers, "spans": spans.to_json()}


def measure(seed: int, seconds: float, trace: bool, work: Path,
            src: Path, smoke: bool = False, poll: float = POLL_S):
    """Run the workload; returns ``(attempted, failed, metrics, lines,
    trace_doc)``."""
    t0 = _perf()
    oracle = _oracle()
    oracle_s = _perf() - t0
    setups: List[float] = []

    def start(rep: int) -> Server:
        t0 = _perf()
        server = _start(work / f"server{rep}", src, oracle)
        setups.append(_perf() - t0)
        return server

    before, after = (1, 0) if smoke else SETUP_REPS
    for rep in range(before - 1):
        start(rep).stop()
    server = start(before - 1)
    regs = list(NOVEL_REGS)
    random.Random(seed).shuffle(regs)
    n_jobs = max(10, round(JOBS_PER_SECOND * seconds))
    try:
        jobs, traced, trace_doc = _serve(server, regs, n_jobs, trace,
                                         oracle, poll, work)
    finally:
        server.stop()
    for rep in range(before, before + after):
        start(rep).stop()
    if trace_doc is not None:
        trace_doc["metrics"]["workloads.build_s"] = oracle_s
    all_jobs = jobs + traced
    failed = sum(not j.ok for j in all_jobs)
    lines = [latency_summary(jobs),
             f"error_rate={failed / len(all_jobs):.4f}"]
    metrics = e2e_metrics(server, jobs)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return len(all_jobs), failed, metrics, lines, trace_doc
