"""The in-process workloads: ``detail-vca``, ``smt-vca`` and ``sampled``.

Each runs serially on one thread and calls the functions ``repro run
--no-cache`` calls: ``benchmark_program(..., seed=...)`` for the
programs, then ``build_machine`` and ``Pipeline.run`` (full detail) or
``run_sampled`` (sampled).  No result store is read or written.

One *operation* is one item of the workload's fixed run list; a *pass*
is the whole list in an order drawn from the seed.  Every operation's
output is checked before it counts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_perf = time.perf_counter

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: detail-vca: Fig. 4 benchmarks at the two smallest Fig. 4 sizes; at
#: 64 registers VCA rename retries 20-27% of its attempts on
#: gzip_graphic, twolf and vortex_2.
DETAIL_BENCHES = ("gzip_graphic", "twolf", "vortex_2", "gcc_expr",
                  "perlbmk_535", "crafty")
DETAIL_REGS = (64, 128)

#: smt-vca: (benches, phys_regs).  The first pair is register-starved
#: (most rename attempts fail), the second is not (almost none fail).
SMT_PAIRS = ((("gzip_graphic", "mcf"), 128),
             (("twolf", "swim"), 256),
             (("vortex_2", "art"), 128),
             (("gcc_expr", "applu"), 256))

#: sampled: at scale 64 profiling, selection and fast-forward are most
#: of a sampled run; at scale 16 they are about a quarter.
SAMPLED_BENCHES = ("gzip_graphic", "twolf", "vortex_2")
SAMPLED_SCALE = 64.0
SAMPLED_REGS = 64
#: (name, SamplingConfig overrides).  The adaptive target converges
#: before the 64-interval cap on every benchmark (twolf needs 26).
SAMPLED_CONFIGS = (("systematic", ()),
                   ("bbv", (("mode", "bbv"),)),
                   ("adaptive", (("mode", "bbv+mem"),
                                 ("rse_target", 0.1))))
#: A sampled run whose estimate is further than this (relative) from
#: the recorded full-detail reference is a wrong output.  IPC uses the
#: repository's sampled-accuracy bar (benchmarks/test_sampled_accuracy.py).
#: Fills and spills are rarer events and sampled less well: over the
#: run list the worst errors are 13.8% and 10.5% (fills, twolf
#: systematic and bbv) and 6.0% (spills, twolf bbv), and every other is
#: under 4%, so these bounds pass today's sampler with a margin and
#: fail one that ruins the estimates.
TOLERANCE = {"ipc": 0.05, "fills": 0.20, "spills": 0.10}


@dataclass(frozen=True)
class Item:
    """One operation of a run list."""

    model: str
    benches: Tuple[str, ...]
    regs: int
    scale: float = 1.0
    config: str = ""
    sampling: tuple = ()

    @property
    def run_label(self) -> str:
        """The simulated configuration, without the sampling config."""
        text = f"{self.model}/{'+'.join(self.benches)}@{self.regs}"
        return text + (f"x{self.scale:g}" if self.scale != 1.0 else "")

    @property
    def label(self) -> str:
        return self.run_label + (f"/{self.config}" if self.config else "")


def run_list(workload: str, smoke: bool = False) -> List[Item]:
    if workload == "detail-vca":
        items = [Item("vca-rw", (b,), r)
                 for b in DETAIL_BENCHES for r in DETAIL_REGS]
    elif workload == "smt-vca":
        items = [Item("vca", benches, regs) for benches, regs in SMT_PAIRS]
    elif workload == "sampled":
        items = [Item("vca-rw", (b,), SAMPLED_REGS, SAMPLED_SCALE, name,
                      overrides)
                 for b in SAMPLED_BENCHES
                 for name, overrides in SAMPLED_CONFIGS]
    else:
        raise ValueError(f"unknown in-process workload {workload!r}")
    return items[:1] if smoke else items


def program_seed(workload: str, seed: int) -> Optional[int]:
    """Generator seed of the workload's programs.

    ``detail-vca`` generates its programs from the seed.  ``sampled``
    runs the default programs, whose full-detail references are
    recorded (each takes 15-25 s to simulate).  ``smt-vca`` runs the
    default programs too: an SMT run stops at the first halt, so the
    work in a pair swings with the programs (the starved pair took
    0.53-1.59 s over five seeds on a 2-core host), far more than any
    bound could absorb.
    For these two the seed only orders the runs."""
    return seed if workload == "detail-vca" else None


def stats_digest(stats) -> str:
    """The repository's SimStats digest (benchmarks/test_perf_cycle_loop)."""
    d = stats.to_dict()
    d.pop("metrics", None)
    blob = json.dumps(d, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


@dataclass
class Setup:
    items: List[Item]
    programs: Dict[Item, list]
    oracle: Dict[Item, List[int]]
    build_s: float
    digests: Dict[str, str]
    full: Dict[str, dict]


def build_programs(items: List[Item], pseed: Optional[int]):
    """Each item's programs and their functional-oracle instruction
    counts, plus the seconds spent generating programs."""
    from repro.functional.interp import FunctionalSim
    from repro.models import model_abi
    from repro.workloads.generator import benchmark_program

    built: Dict[tuple, tuple] = {}
    programs: Dict[Item, list] = {}
    oracle: Dict[Item, List[int]] = {}
    build_s = 0.0
    for item in items:
        abi = model_abi(item.model)
        for thread, bench in enumerate(item.benches):
            key = (bench, abi, thread, item.scale)
            if key not in built:
                t0 = _perf()
                prog = benchmark_program(bench, abi, thread=thread,
                                         scale=item.scale, seed=pseed)
                build_s += _perf() - t0
                built[key] = (prog, FunctionalSim(prog).run().instructions)
        keys = [(b, abi, t, item.scale) for t, b in enumerate(item.benches)]
        programs[item] = [built[k][0] for k in keys]
        oracle[item] = [built[k][1] for k in keys]
    return programs, oracle, build_s


def setup(workload: str, seed: int, smoke: bool = False) -> Setup:
    """Generate the programs and their oracle counts, and load the
    recorded references."""
    items = run_list(workload, smoke)
    pseed = program_seed(workload, seed)
    programs, oracle, build_s = build_programs(items, pseed)
    refs = load_references()
    digests = refs["digests"].get(workload, {}).get(str(pseed), {})
    return Setup(items, programs, oracle, build_s, digests,
                 refs["sampled_full"] if workload == "sampled" else {})


def run_item(item: Item, programs: list):
    """One operation: ``(stats, sampling_meta_or_None)``."""
    from repro.config import MachineConfig
    from repro.models import factory
    from repro.sampling import SamplingConfig, sampler

    cfg = MachineConfig.baseline(phys_regs=item.regs)
    if not item.config:
        machine = factory.build_machine(item.model, cfg, programs)
        return machine.run(stop_at_first_halt=len(programs) > 1), None
    return sampler.run_sampled(item.model, cfg.with_(n_threads=1),
                               programs[0],
                               SamplingConfig(**dict(item.sampling)))


def sampled_errors(stats, ref: dict) -> Dict[str, float]:
    """Relative error (%) of a sampled estimate against full detail."""
    return {m: abs(getattr(stats, m) - ref[m]) / ref[m] * 100.0
            for m in ("ipc", "fills", "spills")}


def check(item: Item, stats, s: Setup) -> List[str]:
    """Problems with one operation's output (empty when correct)."""
    problems = []
    want = s.oracle[item]
    if item.config:
        if stats.threads[0].committed != want[0]:
            problems.append(f"represents {stats.threads[0].committed} "
                            f"instructions, oracle ran {want[0]}")
        ref = s.full.get(item.run_label)
        if ref is not None:
            for m, err in sampled_errors(stats, ref).items():
                if err > TOLERANCE[m] * 100:
                    problems.append(
                        f"{m} {getattr(stats, m):.4f} is more than "
                        f"{TOLERANCE[m]:.0%} from the full-detail "
                        f"{ref[m]:.4f}")
        return problems
    for tid, (t, n) in enumerate(zip(stats.threads, want)):
        # An SMT run stops at the first halt; the other thread has
        # committed a prefix of its program.
        if t.halted and t.committed != n:
            problems.append(f"thread {tid} committed {t.committed}, "
                            f"oracle ran {n}")
        elif not t.halted and (len(want) == 1 or
                               not 0 < t.committed <= n):
            problems.append(f"thread {tid} stopped after {t.committed} "
                            f"of {n} instructions")
    if not any(t.halted for t in stats.threads):
        problems.append("no thread halted")
    digest = s.digests.get(item.label)
    if digest is not None and stats_digest(stats) != digest:
        problems.append(f"digest {stats_digest(stats)} != recorded "
                        f"{digest}")
    return problems


@dataclass
class Op:
    label: str
    seconds: float
    insns: int
    ok: bool


def run_passes(s: Setup, seed: int, seconds: float, probe=None,
               stats_out: Optional[list] = None) -> List[List[Op]]:
    """Whole passes over the run list until the next would overrun
    ``seconds`` (at least one).  With ``probe`` each operation is
    traced; with ``stats_out`` each pass's outputs are kept."""
    rng = random.Random(seed)
    passes: List[List[Op]] = []
    t_start = _perf()
    while True:
        order = list(s.items)
        rng.shuffle(order)
        ops: List[Op] = []
        outputs = []
        for item in order:
            if probe is not None:
                probe.begin_op(item.label)
            t0 = _perf()
            try:
                stats, meta = run_item(item, s.programs[item])
            except Exception as exc:  # a crash is a failed operation
                stats, meta, problems = None, None, [repr(exc)]
            elapsed = _perf() - t0
            if probe is not None:
                probe.end_op()
            insns = 0
            if stats is not None:
                problems = check(item, stats, s)
                insns = (meta.total_instructions if meta is not None
                         else stats.committed)
                outputs.append((item, stats, meta))
            for p in problems:
                print(f"perfbench: {item.label}: {p}", file=sys.stderr)
            ops.append(Op(item.label, elapsed, insns, not problems))
            # Each operation starts on a clean heap, as in a `repro run`
            # process; otherwise the previous machine's garbage cycles
            # are freed, or still held, at points that depend on the
            # run order (peak RSS read 104 or 114 MB on smt-vca).
            gc.collect()
        passes.append(ops)
        if stats_out is not None:
            stats_out.append(outputs)
        spent = _perf() - t_start
        longest = max(sum(o.seconds for o in p) for p in passes)
        if spent + longest > seconds:
            return passes


def e2e_metrics(passes: List[List[Op]]) -> Dict[str, float]:
    """``sim_ips`` (median over passes) and ``op_p50_s``."""
    ips = [sum(o.insns for o in p) / sum(o.seconds for o in p)
           for p in passes]
    return {"sim_ips": statistics.median(ips),
            "op_p50_s": statistics.median(
                o.seconds for p in passes for o in p)}


def layer_metrics(workload: str, s: Setup, probe, passes: int,
                  rename_probe, rename_passes: int, outputs: list,
                  store_path) -> Dict[str, float]:
    """Every per-layer metric of the traced passes: ``passes`` under
    the layer ``probe`` (``outputs`` holds one ``(item, stats, meta)``
    list per such pass) and ``rename_passes`` under ``rename_probe``.
    The accuracy metrics are left out when they are unavailable."""
    from tracing import PER_LAYER, stats_layer_metrics, store_timing

    sampled = workload == "sampled"
    first = outputs[0]
    out = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    out.update(probe.layer_metrics(passes, sampled))
    out.update(rename_probe.rename_metrics(rename_passes))
    out.update(stats_layer_metrics([st for _, st, _ in first]))
    metas = [m for _, _, m in first if m is not None]
    out["sampling.detailed_cycles"] = float(
        sum(m.detailed_cycles for m in metas))
    out["sampling.detailed_intervals"] = float(
        sum(m.n_detailed for m in metas))
    out["sampling.rse_rounds"] = float(sum(len(m.rounds) for m in metas))
    if sampled:
        errors = accuracy(s, first)
        for m in ("ipc", "fills", "spills"):
            if errors is None:
                del out[f"sampling.{m}_err_pct"]
            else:
                out[f"sampling.{m}_err_pct"] = errors[m]
    out["workloads.build_s"] = s.build_s
    payloads = [json.loads(json.dumps(st.to_dict()))
                for _, st, _ in first]
    out["store.get_ms"], out["store.put_ms"] = store_timing(
        payloads, store_path)
    return out


def accuracy(s: Setup, outputs: list) -> Optional[Dict[str, float]]:
    """Mean relative error (%) of the sampled runs against their
    recorded full-detail references, or ``None`` (unavailable) when a
    run has no reference."""
    per_run = []
    for item, stats, _ in outputs:
        ref = s.full.get(item.run_label)
        if ref is None:
            return None
        per_run.append(sampled_errors(stats, ref))
    if not per_run:
        return None
    return {m: statistics.fmean(e[m] for e in per_run)
            for m in ("ipc", "fills", "spills")}
