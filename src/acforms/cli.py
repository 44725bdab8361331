"""Command-line drivers: build, check and decide forms; obstructions, ideal invariants, bounds.

Artifact discipline: every command hashes its parsed inputs and parameters
into a run-manifest core; each emitted JSON artifact is stamped with that
core hash, and a manifest recording the hash of each output, keyed by file
name, is written next to them.  Identical inputs and parameters therefore
reproduce every artifact, the manifest included, byte-exactly in any
`--out` directory.

Nine commands (`_COMMANDS`) share one runner: load and hash the inputs;
compute the artifacts, text lines and exit code; emit; print the first
artifact; exit.  In `batch`, this process and up to `--parallel` − 1 forked
ones, at most one per file, claim a glob's files one at a time.  The
payloads of the construction log, obstruction, tilde, min-power, colength,
verify-potential, convergence bound and batch summary are built here; every
other artifact format lives in `serialize`.

Exit codes: 0 success / feasible / verified; 10 refuted / failed check;
11 degenerate; 2 malformed input or unsatisfied precondition.
"""

from __future__ import annotations

import argparse
import glob as globmod
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, partial
from multiprocessing import Pipe, Process, Value
from pathlib import Path
from typing import Callable

from . import construct, ideals, serialize
from .decide import (decide, genericity_guard, obstruction, staged_report,
                     tilde_obstruction, tilde_transform, verify_potential)
from .poly import MismatchError, OneForm, TruncSeries

EXIT_OK = 0
EXIT_REFUTED = 10
EXIT_DEGENERATE = 11
EXIT_INPUT = 2

_INPUT_ERRORS = (serialize.SerializationError, MismatchError,
                 construct.HypothesisError)

_frac = serialize.frac_to_str


def _load(path: str, reader):
    payload = serialize.load_json(path)
    return reader(payload), serialize.sha256_of_payload(payload)


def _emit(out_dir: str | None, command: str, parameters: dict,
          input_hashes: dict[str, str], artifacts: dict[str, dict]) -> dict:
    """Stamp artifacts with the manifest-core hash; write them plus the
    manifest when an output directory is given.  Returns stamped artifacts
    keyed by file name, with the manifest under 'manifest.json'."""
    core = serialize.manifest_core(command, parameters, input_hashes)
    core_hash = serialize.sha256_of_payload(core)
    stamped = {name: serialize.stamp(art, core_hash) for name, art in artifacts.items()}
    manifest = dict(core)
    manifest["core_sha256"] = core_hash
    if out_dir is not None:
        directory = Path(out_dir)
        manifest["outputs"] = {
            name: {"sha256": serialize.dump_json(str(directory / name), art)}
            for name, art in stamped.items()}
        serialize.dump_json(str(directory / "manifest.json"), manifest)
    stamped["manifest.json"] = manifest
    return stamped


def _print(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(serialize.canonical_dumps(payload))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands


_RESIDUAL_FAILURE = "construction failed its own residual check at degree {}"


def _build(instance: construct.Instance):
    sigma, norm_log = construct.build(instance)
    report = construct.verify_almost_closed(sigma, instance.C, instance.D)
    if not report.ok:
        print(_RESIDUAL_FAILURE.format(report.first_failure), file=sys.stderr)
        return {}, [], 1
    log = {"kind": "construction_log",
           "d": instance.d, "N": instance.N, "seed": instance.seed,
           "mode": instance.mode,
           "norms": {str(k): {name: _frac(v) for name, v in sorted(row.items())}
                     for k, row in sorted(norm_log.items())}}
    return ({"sigma.json": serialize.one_form_to_json(sigma), "log.json": log},
            [f"built d={instance.d} N={instance.N} seed={instance.seed} "
             f"mode={instance.mode}; almost-closed residuals clean below "
             f"{report.checked_below}"], EXIT_OK)


def _decide(sigma: OneForm, order: int):
    outcome = decide(sigma, order)
    artifacts = {"outcome.json": serialize.outcome_to_json(outcome)}
    if outcome.certificate is not None:
        system_json = serialize.system_to_json(outcome.failing_system)
        artifacts["failing_system.json"] = system_json
        artifacts["certificate.json"] = serialize.certificate_to_json(
            outcome.certificate,
            system_hash=serialize.sha256_of_payload(system_json))
    if outcome.witness is not None:
        artifacts["phi.json"] = serialize.witness_to_json(outcome.witness)
    text = [f"verdict: {outcome.verdict} (order {outcome.order}, "
            f"branch {outcome.branch}, gauge {outcome.gauge})"]
    if outcome.failing_degree is not None:
        text.append(f"first failing degree: {outcome.failing_degree}")
    text.append(staged_report(outcome))
    code = {"infeasible": EXIT_REFUTED, "degenerate": EXIT_DEGENERATE}
    return artifacts, text, code.get(outcome.verdict, EXIT_OK)


def _verify_ac(sigma: OneForm, c: TruncSeries, d: TruncSeries):
    report = construct.verify_almost_closed(sigma, c, d)
    status = "pass" if report.ok else f"fail at degree {report.first_failure}"
    return ({"report.json": serialize.report_to_json(report)},
            [f"almost-closed check: {status} (residuals checked below "
             f"{report.checked_below})"], EXIT_OK if report.ok else EXIT_REFUTED)


def _obstruction(c: TruncSeries, d: TruncSeries):
    value = obstruction(c, d)
    return ({"obstruction.json": {"kind": "obstruction", "value": _frac(value)}},
            [f"obstruction: {value}"], EXIT_OK)


def _tilde(c: TruncSeries, d: TruncSeries):
    ct, dt = tilde_transform(c, d)
    value = tilde_obstruction(ct, dt)
    payload = {"kind": "tilde_transform",
               "C1_tilde": {"x": _frac(ct.coeff((1, 0))), "y": _frac(ct.coeff((0, 1)))},
               "D1_tilde": {"x": _frac(dt.coeff((1, 0))), "y": _frac(dt.coeff((0, 1)))},
               "obstruction": _frac(value)}
    return ({"tilde.json": payload},
            [f"shifted linear parts: C1~ = {ct}, D1~ = {dt}",
             f"obstruction (invariant under the shift): {value}"], EXIT_OK)


def _ideal_min_power(ideal: ideals.TruncatedIdeal, bound: int):
    found = ideals.min_power_in_ideal(ideal, bound)
    text = (f"smallest n with m^n contained (graded cover): {found}"
            if found is not None else f"no containment found up to {bound}")
    return ({"min_power.json": {"kind": "min_power", "max": bound, "value": found}},
            [text], EXIT_OK if found is not None else EXIT_REFUTED)


def _ideal_colength(ideal: ideals.TruncatedIdeal, bound: int):
    value = ideals.colength(ideal, bound)
    text = (f"colength: {value}" if value is not None
            else f"not finite-colength below {bound}")
    return ({"colength.json": {"kind": "colength", "max": bound, "value": value}},
            [text], EXIT_OK if value is not None else EXIT_REFUTED)


def _verify_potential(phi: TruncSeries, omega: OneForm, order: int):
    ok = verify_potential(phi, omega, order)
    return ({"verify_potential.json": {"kind": "verify_potential", "order": order, "ok": ok}},
            [f"gradient ideal equals component ideal mod m^{order}: {ok}"],
            EXIT_OK if ok else EXIT_REFUTED)


def _converge_bound(c: TruncSeries, d: TruncSeries):
    cc, beta, radius = construct.convergence_bound(c, d)
    payload = {"kind": "convergence_bound", "magnitude": _frac(cc),
               "growth_ratio": _frac(beta), "radius_lower_bound": _frac(radius)}
    return ({"bound.json": payload},
            [f"multiplier magnitude: {cc}", f"growth ratio: {beta}",
             f"radius lower bound: {radius}"], EXIT_OK)


@dataclass(frozen=True)
class _Command:
    """Inputs are (argument, reader); an argument's name is its manifest key.
    `option` is the one required integer option, the run's only parameter,
    passed to `compute` after the inputs.  `compute` returns (artifacts by
    file name, text lines, exit code); the runner prints the first artifact
    and writes none when there are none."""

    help: str
    inputs: tuple[tuple[str, Callable], ...]
    option: str | None
    compute: Callable


_FORM = serialize.one_form_from_json
_MULTIPLIERS = (("C", serialize.series_from_json), ("D", serialize.series_from_json))
_IDEAL = (("ideal", serialize.ideal_from_json),)

_COMMANDS = {
    "build": _Command("construct an instance from a JSON request",
                      (("instance", serialize.instance_from_json),), None, _build),
    "verify-ac": _Command("check A_y - B_x = C*A + D*B degreewise",
                          (("sigma", _FORM),) + _MULTIPLIERS, None, _verify_ac),
    "decide": _Command("decide potential feasibility up to an order",
                       (("sigma", _FORM),), "order", _decide),
    "obstruction": _Command("the scalar C1_x + D1_y", _MULTIPLIERS, None, _obstruction),
    "tilde": _Command("linear parts shifted by the forced degree-1 unknown",
                      _MULTIPLIERS, None, _tilde),
    "ideal min-power": _Command("least n with m^n inside the ideal", _IDEAL, "max",
                                _ideal_min_power),
    "ideal colength": _Command("dimension of the quotient ring", _IDEAL, "max",
                               _ideal_colength),
    "verify-potential": _Command("gradient ideal vs component ideal modulo m^order",
                                 (("phi", serialize.potential_from_json), ("omega", _FORM)),
                                 "order", _verify_potential),
    "converge-bound": _Command("growth ratio and radius bound from the multipliers",
                               _MULTIPLIERS, None, _converge_bound),
}


def _run(name: str, args) -> int:
    command = _COMMANDS[name]
    values, input_hashes = [], {}
    for argument, reader in command.inputs:
        value, input_hashes[argument] = _load(getattr(args, argument), reader)
        values.append(value)
    parameters = {command.option: getattr(args, command.option)} if command.option else {}
    artifacts, text, code = command.compute(*values, *parameters.values())
    if artifacts:
        stamped = _emit(args.out, name, parameters, input_hashes, artifacts)
        _print(stamped[next(iter(artifacts))], args.format, text)
    return code


def _batch_worker(path: str, order: int | None) -> tuple[dict, str | None]:
    """One instance pipeline: build, the construction's residual check,
    guard, decide.  Pure, with a picklable result.

    Returns the summary row and the input hash, which is None when the file
    did not load as an instance.  Input errors and a failed residual check
    become a row with status `error`; anything else propagates.
    """
    row: dict = {"file": path}
    digest = None
    try:
        instance, digest = _load(path, serialize.instance_from_json)
        row.update(seed=instance.seed, d=instance.d, N=instance.N)
        sigma, _ = construct.build(instance)
        report = construct.verify_almost_closed(sigma, instance.C, instance.D)
        if not report.ok:
            row["status"] = "error"
            row["message"] = _RESIDUAL_FAILURE.format(report.first_failure)
            return row, digest
        guard = genericity_guard(sigma)
        if not guard.passed:
            row["status"] = "guard_rejected"
            row["guard_failures"] = guard.failures()
            return row, digest
        effective = order if order is not None else instance.d + 3
        outcome = decide(sigma, effective, guard)
    except _INPUT_ERRORS as exc:
        row["status"] = "error"
        row["message"] = str(exc)
        return row, digest
    row["status"] = outcome.verdict
    row["order"] = effective
    row["failing_degree"] = outcome.failing_degree
    return row, digest


def _claim(files: list[str], order: int | None, counter):
    """Yield (index, `_batch_worker` result) of each file claimed from `counter`."""
    while True:
        with counter.get_lock():
            index, counter.value = counter.value, counter.value + 1
        if index >= len(files):
            return
        yield index, _batch_worker(files[index], order)


def _child(files: list[str], order: int | None, counter, send) -> None:
    try:
        outcome = list(_claim(files, order, counter))
    except Exception as exc:
        outcome = exc
    with suppress(BrokenPipeError):  # the main process failed and left
        send.send(outcome)


def _cmd_batch(args) -> int:
    if args.parallel < 1:
        print(f"--parallel must be at least 1, not {args.parallel}", file=sys.stderr)
        return EXIT_INPUT
    files = sorted(globmod.glob(args.instances))
    if not files:
        print(f"no instance files match {args.instances!r}", file=sys.stderr)
        return EXIT_INPUT
    counter, children = Value("i", 0), []
    try:
        for _ in range(min(args.parallel, len(files)) - 1):
            receive, send = Pipe(duplex=False)
            child = Process(target=_child, args=(files, args.order, counter, send))
            child.start()
            children.append((child, receive))
            send.close()  # so that a child that dies unsent gives EOFError
        results = list(_claim(files, args.order, counter))
        for _, receive in children:
            outcome = receive.recv()
            if isinstance(outcome, BaseException):
                raise outcome
            results += outcome
    finally:
        with counter.get_lock():  # after an error, no process claims another file
            counter.value = len(files)
        for child, receive in children:
            receive.close()  # first, so that a child blocked on its send ends
            child.join()
    results = [result for _, result in sorted(results)]
    rows = [row for row, _ in results]
    counts = Counter(row["status"] for row in rows)
    input_hashes = {row["file"]: digest for row, digest in results if digest is not None}
    summary = {"kind": "batch_summary", "runs": rows, "counts": counts,
               "rejected_by_guard": counts.get("guard_rejected", 0)}
    artifacts = _emit(args.out, "batch", {"order": args.order}, input_hashes,
                      {"summary.json": summary})
    text = [f"{len(rows)} instances: " +
            ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))]
    for row in rows:
        detail = (f"degree {row['failing_degree']}" if row.get("failing_degree")
                  is not None else row.get("guard_failures", row.get("message", "")))
        text.append(f"  {row['file']}: seed {row.get('seed')} -> {row['status']} {detail}")
    _print(artifacts["summary.json"], args.format, text)
    return EXIT_INPUT if "error" in counts else EXIT_OK


# ---------------------------------------------------------------------------
# parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="acforms",
        description="Build, verify and decide truncated almost closed 1-forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None,
                       help="directory for JSON artifacts and the run manifest")
        p.add_argument("--format", choices=("json", "text"), default="json")

    def table(subparsers, name: str) -> None:
        command = _COMMANDS[name]
        p = subparsers.add_parser(name.rpartition(" ")[2], help=command.help)
        for argument, _ in command.inputs:
            p.add_argument(argument)
        if command.option:
            p.add_argument(f"--{command.option}", type=int, required=True)
        common(p)
        p.set_defaults(func=partial(_run, name))

    # commands in the order `acforms --help` lists them
    table(sub, "build")
    table(sub, "verify-ac")
    table(sub, "decide")
    table(sub, "obstruction")
    table(sub, "tilde")
    p = sub.add_parser("ideal", help="graded ideal computations")
    isub = p.add_subparsers(dest="ideal_command", required=True)
    table(isub, "ideal min-power")
    table(isub, "ideal colength")
    table(sub, "verify-potential")
    table(sub, "converge-bound")

    p = sub.add_parser("batch", help="run the decide pipeline across instance files")
    p.add_argument("instances", help="glob pattern of instance JSON files")
    p.add_argument("--order", type=int, default=None,
                   help="decision order (default: leading degree + 3 per instance)")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="run N processes, this one and N-1 forked, at most one per file, "
                        "each claiming the next file when free (default: 1)")
    common(p)
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
