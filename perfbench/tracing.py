"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

Every wrapper here sits around a *public* function of one simulator
module and is installed from the benchmark's own files: ``src/repro``
is not modified, and :meth:`LayerProbe.uninstall` puts every original
back.  Spans are kept in memory -- name, start, end, parent and one
trace id per benchmark operation -- and written out with the
per-layer metrics when the run ends.

High-frequency calls (``try_rename``, the pipeline stages) are
aggregated into counters instead of spans, at the boundary where the
work happens, so a traced run stays small in memory.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Stage labels of ``repro.obs.profile.STAGES``, in pipeline order.
STAGES = ("writeback", "commit", "trap_sequencer", "rename_dispatch",
          "issue", "fetch")

#: Every rename stall cause the engines count (``SimStats.rename_stalls``).
STALL_CAUSES = ("no_preg", "astq_full", "set_conflict", "rename_ports",
                "rob_full", "iq_full", "lsq_full", "rsid_flush",
                "window_trap")

#: Spans whose time belongs to the functional and sampling layers (not
#: to the detailed model).
SAMPLING_SPANS = ("functional.profile", "functional.fast_forward",
                  "sampling.select", "sampling.checkpoint",
                  "sampling.seed")

#: The per-layer metrics every workload's traced run reports, as
#: ``(name, unit)``.  ``BENCHMARK.json`` lists exactly these.  A layer a
#: workload does not drive in the benchmark process reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_s", "s"),
    ("functional.ips", "insn/s"),
    ("functional.busy_s", "s"),
    ("sampling.profile_s", "s"),
    ("sampling.select_s", "s"),
    ("sampling.fast_forward_s", "s"),
    ("sampling.checkpoint_s", "s"),
    ("sampling.seed_s", "s"),
    ("sampling.detailed_s", "s"),
    ("sampling.layer_frac", "fraction"),
    ("sampling.detailed_cycles", "count"),
    ("sampling.detailed_intervals", "count"),
    ("sampling.rse_rounds", "count"),
    ("sampling.useful_frac", "fraction"),
    ("sampling.ipc_err_pct", "%"),
    ("sampling.fills_err_pct", "%"),
    ("sampling.spills_err_pct", "%"),
    ("pipeline.cps", "cycles/s"),
) + tuple((f"pipeline.{s}_frac", "fraction") for s in STAGES) + (
    ("pipeline.other_frac", "fraction"),
    ("rename.attempts", "count"),
    ("rename.fail_frac", "fraction"),
    ("rename.fail_frac_max", "fraction"),
    ("rename.fail_frac_min", "fraction"),
    ("rename.us_per_attempt", "us"),
) + tuple((f"rename.stall.{c}", "count") for c in STALL_CAUSES) + (
    ("rename.spills", "count"),
    ("rename.fills", "count"),
    ("mem.dl1_accesses", "count"),
    ("mem.dl1_miss_rate", "fraction"),
    ("frontend.mispredict_rate", "fraction"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("engine.overhead_ms", "ms"),
    ("engine.simulate_frac", "fraction"),
    ("service.submit_ms", "ms"),
    ("service.results_ms", "ms"),
    ("service.hit_frac", "fraction"),
    ("service.polls_per_job", "count"),
    ("trace.overhead_pct", "%"),
    ("host.calib_mops", "Mop/s"),
)


class SpanLog:
    """In-memory spans: ``[id, parent, trace, name, t0, t1, attrs]``."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self.trace_id = 0

    def new_trace(self) -> None:
        """Start a new operation: later spans share a fresh trace id."""
        self.trace_id = next(self._traces)

    def begin(self, name: str, **attrs) -> list:
        rec = [next(self._ids), self._stack[-1] if self._stack else None,
               self.trace_id, name, _perf(), None, attrs]
        self.records.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[5] = _perf()
        if self._stack.pop() != rec[0]:
            raise RuntimeError(f"span {rec[3]!r} closed out of order")

    def durations(self, name: str) -> List[float]:
        return [r[5] - r[4] for r in self.records
                if r[3] == name and r[5] is not None]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def outermost_total(self, names) -> float:
        """Time covered by spans named in ``names``, counting nested
        ones once (spans whose parent is also in ``names`` are
        skipped)."""
        names = set(names)
        by_id = {r[0]: r[3] for r in self.records}
        return sum(r[5] - r[4] for r in self.records
                   if r[3] in names and r[5] is not None
                   and by_id.get(r[1]) not in names)

    def to_json(self) -> List[dict]:
        return [{"id": r[0], "parent": r[1], "trace": r[2],
                 "name": r[3], "start": r[4], "end": r[5],
                 "attrs": r[6]} for r in self.records]


def timed(spans: SpanLog, name: str, fn):
    """``fn`` wrapped so that each call is recorded as a span."""

    def wrapped(*args, **kwargs):
        rec = spans.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            spans.end(rec)
    return wrapped


class LayerProbe:
    """Wrappers around the simulator's layer entry points.

    Use::

        probe = LayerProbe()
        probe.install()
        probe.begin_op("label"); ...; probe.end_op()
        probe.uninstall()

    A probe times either the layers or ``try_rename``, never both: the
    rename wrapper's own frame and timer reads run inside the
    rename_dispatch stage, and would inflate that stage's share and
    slow the detailed runs the layer spans time.  ``LayerProbe()``
    gives :meth:`layer_metrics`; ``LayerProbe(rename=True)`` wraps only
    each machine's ``try_rename`` and gives :meth:`rename_metrics`.
    Its operations are ``op.rename`` spans.
    """

    def __init__(self, spans: Optional[SpanLog] = None,
                 rename: bool = False) -> None:
        self.spans = spans if spans is not None else SpanLog()
        self.rename = rename
        self.functional_insns = 0
        self.stage_seconds = {s: 0.0 for s in STAGES}
        self.run_cycles = 0
        self.run_committed = 0
        self.measured_committed = 0
        #: Per operation: ``[attempts, fails, seconds]`` of try_rename.
        self.rename_ops: List[List[float]] = []
        self._rename = [0, 0, 0.0]
        self._profiles: list = []
        self._machine = None
        self._machine_last = 0
        self._patches: List[tuple] = []
        self._op: Optional[list] = None

    # -- operations ---------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.spans.new_trace()
        self._rename = [0, 0, 0.0]
        self._op = self.spans.begin(
            "op.rename" if self.rename else "op", label=label)

    def end_op(self) -> None:
        for prof in self._profiles:
            prof.detach()
            for label, secs in prof.seconds.items():
                self.stage_seconds[label] += secs
        self._profiles.clear()
        self.measured_committed += self._machine_last
        self._machine, self._machine_last = None, 0
        if self._rename[0]:
            self.rename_ops.append(self._rename)
        self.spans.end(self._op)
        self._op = None

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        orig = getattr(owner, name)
        self._patches.append((owner, name, orig))
        setattr(owner, name, wrapper(orig))

    def install(self) -> None:
        from repro.models import factory
        from repro.pipeline.core import Pipeline
        from repro.sampling import sampler

        self._patch(factory, "build_machine", self._wrap_build)
        self._patch(sampler, "build_machine", self._wrap_build)
        if self.rename:
            return
        self._patch(Pipeline, "run", self._wrap_run)
        self._patch(sampler, "profile_intervals",
                    lambda f: self._wrap_profile(f, lambda r: r))
        self._patch(sampler, "profile_with_checkpoints",
                    lambda f: self._wrap_profile(f, lambda r: r[0]))
        self._patch(sampler, "fast_forward", self._wrap_fast_forward)
        self._patch(sampler, "select_intervals",
                    lambda f: timed(self.spans, "sampling.select", f))
        self._patch(sampler, "take_checkpoint",
                    lambda f: timed(self.spans, "sampling.checkpoint", f))
        self._patch(sampler, "seed_machine",
                    lambda f: timed(self.spans, "sampling.seed", f))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, orig = self._patches.pop()
            setattr(owner, name, orig)

    # -- wrappers -----------------------------------------------------------

    def _wrap_profile(self, fn, profile_of):
        spans = self.spans

        def wrapped(*args, **kwargs):
            rec = spans.begin("functional.profile")
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end(rec)
            self.functional_insns += profile_of(result).total.instructions
            return result
        return wrapped

    def _wrap_fast_forward(self, fn):
        spans = self.spans

        def wrapped(sim, n, *args, **kwargs):
            before = sim.stats.instructions
            rec = spans.begin("functional.fast_forward")
            try:
                return fn(sim, n, *args, **kwargs)
            finally:
                spans.end(rec)
                self.functional_insns += sim.stats.instructions - before
        return wrapped

    def _wrap_build(self, fn):
        from repro.obs.profile import StageProfile
        spans = self.spans

        def wrapped(*args, **kwargs):
            rec = spans.begin("pipeline.build")
            try:
                machine = fn(*args, **kwargs)
            finally:
                spans.end(rec)
            if self.rename:
                machine.engine.try_rename = self._wrap_rename(
                    machine.engine.try_rename)
            else:
                prof = StageProfile(machine)
                prof.attach()
                self._profiles.append(prof)
            return machine
        return wrapped

    def _wrap_rename(self, inner):
        acc = self._rename

        def try_rename(d) -> bool:
            t0 = _perf()
            ok = inner(d)
            acc[2] += _perf() - t0
            acc[0] += 1
            if not ok:
                acc[1] += 1
            return ok
        return try_rename

    def _wrap_run(self, fn):
        spans = self.spans

        def run(machine, *args, **kwargs):
            committed0, cycle0 = machine.stats.committed, machine.cycle
            rec = spans.begin("pipeline.run")
            try:
                stats = fn(machine, *args, **kwargs)
            finally:
                spans.end(rec)
            delta = stats.committed - committed0
            self.run_cycles += machine.cycle - cycle0
            self.run_committed += delta
            # The last run() of each machine is its measured window;
            # earlier ones are the sampler's detailed warm-up prefix.
            # Machines run one after another, so a new machine closes
            # the previous one's account.
            if machine is not self._machine:
                self.measured_committed += self._machine_last
                self._machine = machine
            self._machine_last = delta
            return stats
        return run

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, passes: int, sampled: bool
                      ) -> Dict[str, float]:
        """Per-layer metrics from the traced operations, except the
        rename ones (:meth:`rename_metrics`).  Times and counts are per
        pass over the run list; the detailed-model share of a sampled
        run is reported only when ``sampled``."""
        sp = self.spans
        per = 1.0 / max(1, passes)
        run_s = sp.total("pipeline.run")
        functional_s = (sp.total("functional.profile")
                        + sp.total("functional.fast_forward"))
        op_s = sp.total("op")
        out = {
            "functional.ips": (self.functional_insns / functional_s
                               if functional_s else 0.0),
            "functional.busy_s": functional_s * per,
            "sampling.profile_s": sp.total("functional.profile") * per,
            "sampling.select_s": sp.total("sampling.select") * per,
            "sampling.fast_forward_s":
                sp.total("functional.fast_forward") * per,
            "sampling.checkpoint_s":
                sp.total("sampling.checkpoint") * per,
            "sampling.seed_s": sp.total("sampling.seed") * per,
            "sampling.layer_frac": (sp.outermost_total(SAMPLING_SPANS)
                                    / op_s if op_s else 0.0),
            "sampling.detailed_s": run_s * per if sampled else 0.0,
            "sampling.useful_frac": (self.measured_committed
                                     / self.run_committed
                                     if sampled and self.run_committed
                                     else 0.0),
            "pipeline.cps": self.run_cycles / run_s if run_s else 0.0,
        }
        stage_total = 0.0
        for stage in STAGES:
            frac = self.stage_seconds[stage] / run_s if run_s else 0.0
            out[f"pipeline.{stage}_frac"] = frac
            stage_total += frac
        out["pipeline.other_frac"] = (1.0 - stage_total) if run_s else 0.0
        return out

    def rename_metrics(self, passes: int) -> Dict[str, float]:
        """``rename.*`` timing and retry metrics of a
        ``LayerProbe(rename=True)``, per pass over the run list.  The
        time per attempt includes one timer read of the wrapper."""
        attempts = sum(r[0] for r in self.rename_ops)
        fails = sum(r[1] for r in self.rename_ops)
        rename_s = sum(r[2] for r in self.rename_ops)
        fail_fracs = [r[1] / r[0] for r in self.rename_ops]
        return {
            "rename.attempts": attempts / max(1, passes),
            "rename.fail_frac": fails / attempts if attempts else 0.0,
            "rename.fail_frac_max": max(fail_fracs, default=0.0),
            "rename.fail_frac_min": min(fail_fracs, default=0.0),
            "rename.us_per_attempt": (rename_s / attempts * 1e6
                                      if attempts else 0.0),
        }


def stats_layer_metrics(stats_list) -> Dict[str, float]:
    """Exact simulated-machine counts summed over ``SimStats``: the
    guards a simulator-only change must leave untouched."""
    stalls = {c: 0 for c in STALL_CAUSES}
    spills = fills = accesses = misses = mispredicts = branches = 0
    for s in stats_list:
        for cause, n in s.rename_stalls.items():
            stalls[cause] = stalls.get(cause, 0) + n
        spills += s.spills
        fills += s.fills
        accesses += s.dl1_accesses
        misses += s.dl1_miss_rate * s.dl1_accesses
        mispredicts += s.branch_mispredicts
        branches += s.cond_branches
    out = {f"rename.stall.{c}": float(stalls[c]) for c in STALL_CAUSES}
    out.update({
        "rename.spills": float(spills),
        "rename.fills": float(fills),
        "mem.dl1_accesses": float(accesses),
        "mem.dl1_miss_rate": misses / accesses if accesses else 0.0,
        "frontend.mispredict_rate": (mispredicts / branches
                                     if branches else 0.0),
    })
    return out


def store_timing(payloads: List[dict], path) -> Tuple[float, float]:
    """Median milliseconds of ``SqliteStore.load`` and ``.store`` on a
    scratch store, with the workload's own payloads."""
    from repro.experiments.store import SqliteStore
    puts: List[float] = []
    gets: List[float] = []
    store = SqliteStore(path, actor="perfbench")
    try:
        for rep in range(max(1, 64 // max(1, len(payloads)))):
            for i, payload in enumerate(payloads):
                key = f"perfbench/{rep}/{i}"
                t0 = _perf()
                store.store(key, payload)
                t1 = _perf()
                got = store.load(key)
                t2 = _perf()
                if got != payload:
                    raise RuntimeError(f"store round trip changed {key}")
                puts.append(t1 - t0)
                gets.append(t2 - t1)
    finally:
        store.close()
    return statistics.median(gets) * 1e3, statistics.median(puts) * 1e3
