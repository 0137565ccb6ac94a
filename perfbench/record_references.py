#!/usr/bin/env python3
"""Regenerate ``perfbench/references.json``.

Run from the repository root::

    python3 perfbench/record_references.py [--seeds 32] [--jobs 2]

It records

* the SimStats digest of every ``detail-vca`` run at program seeds
  ``0 .. seeds-1`` (the benchmark checks a run's digest whenever its
  seed is recorded; other seeds get the oracle check only), and of
  every ``smt-vca`` run (default programs, keyed ``"None"``);
* the full-detail IPC, fills, spills, committed count and digest of
  each program in the ``sampled`` run list, the references the sampled
  accuracy is measured against.  These take 15-25 s each, which is why
  they are recorded here and never simulated inside a timed run.

Record again after changing a run list, or after a change that is
meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _init() -> None:
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _digests(task):
    """``{label: digest}`` of one workload's run list at one seed."""
    _init()
    import inproc
    workload, seed = task
    items = inproc.run_list(workload)
    pseed = inproc.program_seed(workload, seed)
    programs, _, _ = inproc.build_programs(items, pseed)
    return workload, str(pseed), {item.label: inproc.stats_digest(
        inproc.run_item(item, programs[item])[0]) for item in items}


def _full(item):
    """Full-detail reference of one sampled run-list program."""
    _init()
    from dataclasses import replace

    import inproc
    full = replace(item, config="", sampling=())
    programs, _, _ = inproc.build_programs(
        [full], inproc.program_seed("sampled", 0))
    stats, _ = inproc.run_item(full, programs[full])
    return item.run_label, {
        "ipc": stats.ipc, "fills": stats.fills, "spills": stats.spills,
        "committed": stats.committed, "digest": inproc.stats_digest(stats)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args(argv)
    _init()
    import inproc

    runs = {}
    for item in inproc.run_list("sampled"):
        runs.setdefault(item.run_label, item)
    tasks = [("smt-vca", 0)] + [("detail-vca", seed)
                                for seed in range(args.seeds)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.jobs, initializer=_init) as pool:
        full = dict(pool.map(_full, list(runs.values())))
        digests: dict = {}
        for workload, pseed, got in pool.imap(_digests, tasks):
            digests.setdefault(workload, {})[pseed] = got
    doc = {"command": "python3 perfbench/record_references.py "
                      f"--seeds {args.seeds}",
           "digests": digests, "sampled_full": full}
    with open(inproc.REFERENCES, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {inproc.REFERENCES}: {len(full)} full-detail "
          f"references, digests for seeds 0..{args.seeds - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
