"""Outside-in span tracer for the acforms modules.

`Tracer.install` wraps every public function and public method of the
traced modules and rebinds each module-level alias of a wrapped function
(`decide.solve_affine`, `cli.decide`, `acforms.build`, ...), so calls made
inside the package are traced as well as calls made by the benchmark.
Nothing under `src/` is edited; an untraced run never constructs a Tracer.

Spans live in memory as typed columns (name id, start, end, parent, op id)
and are written out once, when the run ends.  Worker processes forked
while the tracer is installed reset their copy of the columns after the
fork and write their own file when they exit; `worker_records` reads
those back.  Span files are gzip-compressed JSON with one list per column.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import multiprocessing.util
import os
import time
from array import array
from pathlib import Path

MODULES = ("poly", "prng", "linalg", "construct", "ideals", "decide",
           "serialize", "cli")
COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


class Tracer:
    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.pid = os.getpid()
        self.op = -1
        self.names: list[str] = []
        self.spans = {column: array(code) for column, code in COLUMNS}
        self.counts: list[tuple[int, str, int]] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends = (self.spans[c] for c in ("name", "start", "end"))
        parents, ops = self.spans["parent"], self.spans["op"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def count(self, key: str, value: int) -> None:
        self.counts.append((self.op, key, value))

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public surface of the traced modules of `package`."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    wrapped[id(obj)] = self._wrap(name, obj, _HOOKS.get(name))
                    setattr(mod, attr, wrapped[id(obj)])
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    def _after_fork(self) -> None:
        # the wrappers hold the column arrays, so empty them in place
        self.pid = os.getpid()
        for column in self.spans.values():
            del column[:]
        self.counts.clear()
        self._stack.clear()
        multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    # -- output ------------------------------------------------------------

    def records(self) -> dict:
        """This process's spans and counts; columns stay typed arrays."""
        return {"pid": self.pid, "names": self.names, **self.spans,
                "counts": self.counts}

    def write(self) -> None:
        """Stream this process's records to a gzip JSON file, a column at a time."""
        path = self.work_dir / f"spans-{self.pid}-{time.time_ns()}.json.gz"
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f'{{"pid": {self.pid}, "names": {json.dumps(self.names)}, '
                     f'"counts": {json.dumps(self.counts)}')
            for column, _ in COLUMNS:
                fh.write(f', "{column}": ')
                json.dump(self.spans[column].tolist(), fh)
            fh.write("}")

    def worker_records(self) -> list[dict]:
        """Read the span files written by exited workers."""
        out = []
        for path in sorted(self.work_dir.glob("spans-*.json.gz")):
            if not path.name.startswith(f"spans-{self.pid}-"):
                with gzip.open(path, "rt") as fh:
                    out.append(json.load(fh))
        return out


# Work counts taken from arguments and results at the layer boundary.


def _solve_hook(tracer: Tracer, args, result) -> None:
    system = args[0]
    tracer.count("linalg.solve_cells", len(system.matrix) * len(system.column_labels))
    combination = getattr(result, "row_combination", None)
    if combination is not None:
        bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                    for v in combination), default=0)
        tracer.count("linalg.cert_max_bits", bits)


def _dump_hook(tracer: Tracer, args, result) -> None:
    tracer.count("serialize.bytes_written", os.path.getsize(args[0]))


_HOOKS = {"linalg.solve_affine": _solve_hook, "serialize.dump_json": _dump_hook}
