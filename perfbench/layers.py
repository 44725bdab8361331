"""Per-layer metrics computed from the merged spans of one traced pass.

Every time and count is per op (one decide-plus-audit, one batch call or
one ideal check), so runs of different lengths compare.  A metric whose
layer does no work on a workload reads 0: no calls, no time, no ratio.
"""

from __future__ import annotations

from array import array
from collections import defaultdict

from tracer import MODULES

SOLVE = "linalg.solve_affine"
RANK = "linalg.matrix_rank"

# (metric, unit) in the order printed and listed in BENCHMARK.json
PER_LAYER = (
    [(f"{m}.calls", "count/op") for m in MODULES]
    + [(f"{m}.self_s", "s/op") for m in MODULES]
    + [("linalg.solve_calls", "count/op"),
       ("linalg.solve_s", "s/op"),
       ("linalg.solve_cells", "cells/op"),
       ("linalg.rank_calls", "count/op"),
       ("linalg.rank_s", "s/op"),
       ("linalg.cert_max_bits", "bits"),
       ("decide.solves_per_decide", "ratio"),
       ("decide.assemble_s", "s/op"),
       ("decide.guard_s", "s/op"),
       ("decide.unit_search_s", "s/op"),
       ("ideals.cover_checks", "count/op"),
       ("ideals.membership_solves", "count/op"),
       ("construct.build_s", "s/op"),
       ("serialize.bytes_written", "B/op"),
       ("serialize.hash_s", "s/op"),
       ("cli.worker_busy_frac", "ratio"),
       ("trace.coverage", "ratio"),
       ("trace.overhead_s", "s/op")])

# Counts that must repeat exactly across two traced passes over the same ops.
EXACT = ("linalg.solve_cells", "decide.solves_per_decide",
         "linalg.cert_max_bits", "serialize.bytes_written")

# Inclusive span time summed into a stage metric.
STAGES = {"decide.assemble_s": ("decide.assemble_system",),
          "decide.guard_s": ("decide.genericity_guard",),
          "decide.unit_search_s": ("decide.find_unit_solution",),
          "construct.build_s": ("construct.build",),
          "serialize.hash_s": ("serialize.sha256_of_payload", "serialize.sha256_of_bytes"),
          "linalg.solve_s": (SOLVE,),
          "linalg.rank_s": (RANK,)}


def layer_metrics(processes: list[dict], main_pid: int, ops: set[int],
                  op_walls: list[tuple[float, float]], workers: int, scale: float,
                  overhead_s: float) -> dict[str, float]:
    """Metrics of the spans and counts whose op id is in `ops`.

    `op_walls` holds the (start, end) of each op of the pass as the
    benchmark timed it.  Span times are multiplied by `scale`, the
    reference-kernel factor of the pass (see calibrate.py); ratios use wall
    time.  `overhead_s` is the caller's traced-minus-untraced time per op.
    """
    n_ops = len(op_walls)
    module_calls: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    under = {"decide.decide": 0, "ideals.membership_witness": 0}
    covered = 0.0
    worker_busy = 0.0
    for proc in processes:
        names, parents = proc["names"], proc["parent"]
        columns = (proc["name"], proc["start"], proc["end"], parents, proc["op"])
        child_time = array("d", [0.0]) * len(parents)
        for _, start, end, parent, _ in zip(*columns):
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name_id, start, end, parent, op) in enumerate(zip(*columns)):
            if op not in ops:
                continue
            name = names[name_id]
            module = name.split(".", 1)[0]
            module_calls[module] += 1
            self_s[module] += end - start - child_time[i]
            inclusive[name] += end - start
            calls[name] += 1
            if name == SOLVE:
                for outer in under:
                    if _has_ancestor(proc, i, outer):
                        under[outer] += 1
            if parent < 0:
                if proc["pid"] == main_pid:
                    covered += end - start
                else:
                    worker_busy += end - start
    counts: dict[str, int] = defaultdict(int)
    for proc in processes:
        for op, key, value in proc["counts"]:
            if op not in ops:
                continue
            if key == "linalg.cert_max_bits":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value

    wall = sum(end - start for start, end in op_walls)
    out = {f"{m}.calls": module_calls[m] / n_ops for m in MODULES}
    out.update({f"{m}.self_s": self_s[m] * scale / n_ops for m in MODULES})
    out.update({metric: sum(inclusive[n] for n in names) * scale / n_ops
                for metric, names in STAGES.items()})
    out["linalg.solve_calls"] = calls[SOLVE] / n_ops
    out["linalg.rank_calls"] = calls[RANK] / n_ops
    out["linalg.solve_cells"] = counts["linalg.solve_cells"] / n_ops
    out["linalg.cert_max_bits"] = counts["linalg.cert_max_bits"]
    decides = calls["decide.decide"]
    out["decide.solves_per_decide"] = under["decide.decide"] / decides if decides else 0
    out["ideals.cover_checks"] = calls["ideals.graded_cover_check"] / n_ops
    out["ideals.membership_solves"] = under["ideals.membership_witness"] / n_ops
    out["serialize.bytes_written"] = counts["serialize.bytes_written"] / n_ops
    out["cli.worker_busy_frac"] = worker_busy / (workers * wall) if workers else 0
    out["trace.coverage"] = covered / wall
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _ in PER_LAYER}


def _has_ancestor(proc: dict, i: int, name: str) -> bool:
    parent = proc["parent"][i]
    while parent >= 0:
        if proc["names"][proc["name"][parent]] == name:
            return True
        parent = proc["parent"][parent]
    return False
