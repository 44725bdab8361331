"""Command-line drivers: build instances, verify, decide, audit certificates.

Artifact discipline: every command hashes its parsed inputs and parameters
into a run-manifest core; each emitted JSON artifact is stamped with that
core hash, and a manifest file listing output paths and hashes is written
next to them.  Identical inputs and parameters therefore reproduce every
artifact byte-exactly (output locations are recorded beside, not inside,
the hashed core, so they do not perturb artifact bytes).

Exit codes: 0 success / feasible / verified; 10 refuted / failed check;
11 degenerate; 2 malformed input or unsatisfied precondition.
"""

from __future__ import annotations

import argparse
import glob as globmod
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

from . import construct, ideals, serialize
from .decide import (UNKNOWN_NAMES, DeciderOutcome, GuardReport, decide,
                     genericity_guard, obstruction, staged_report,
                     tilde_transform, verify_potential)
from .poly import MismatchError, OneForm, TruncSeries

EXIT_OK = 0
EXIT_REFUTED = 10
EXIT_DEGENERATE = 11
EXIT_INPUT = 2

_INPUT_ERRORS = (serialize.SerializationError, MismatchError,
                 construct.HypothesisError)


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
        directory.mkdir(parents=True, exist_ok=True)
        outputs = {}
        for name, art in stamped.items():
            path = directory / name
            digest = serialize.dump_json(str(path), art)
            outputs[name] = {"path": str(path), "sha256": digest}
        manifest["outputs"] = outputs
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
# JSON views of in-memory results


def _frac(value: Fraction) -> str:
    return serialize.frac_to_str(value)


def _guard_json(report: GuardReport) -> dict:
    return {"kind": "guard_report",
            "lowest_degree": report.lowest_degree,
            "passed": report.passed,
            "checks": [{"name": c.name, "applicable": c.applicable,
                        "expected_rank": c.expected_rank,
                        "actual_rank": c.actual_rank, "passed": c.passed}
                       for c in report.checks]}


def _staged_json(records: list[dict]) -> list[dict]:
    out = []
    for record in records:
        blocks = {str(j): {"dim": block["dim"],
                           "forced": {lbl: _frac(v) for lbl, v in sorted(block["forced"].items())}}
                  for j, block in record["blocks"].items()}
        out.append({"through_degree": record["through_degree"],
                    "feasible": record["feasible"], "blocks": blocks})
    return out


def _outcome_json(outcome: DeciderOutcome) -> dict:
    payload = {"kind": "decider_outcome",
               "verdict": outcome.verdict,
               "order": outcome.order,
               "lowest_degree": outcome.lowest_degree,
               "failing_degree": outcome.failing_degree,
               "gauge": outcome.gauge,
               "branch": outcome.branch,
               "notes": list(outcome.notes),
               "guard": _guard_json(outcome.guard) if outcome.guard else None,
               "staged": _staged_json(outcome.staged)}
    if outcome.witness is not None:
        payload["gradient_matches_below"] = outcome.witness["gradient_matches_below"]
    return payload


def _witness_json(witness: dict) -> dict:
    payload = {"kind": "potential_witness",
               "gradient_matches_below": witness["gradient_matches_below"],
               "phi": serialize.series_to_json(witness["phi"])}
    for name in UNKNOWN_NAMES:
        payload[name] = serialize.series_to_json(witness[name])
    return payload


def _report_json(report: construct.AlmostClosedReport) -> dict:
    return {"kind": "almost_closed_report",
            "ok": report.ok,
            "first_failure": report.first_failure,
            "checked_below": report.checked_below,
            "failing_degrees": list(report.failures()),
            "residual_norms": {str(k): _frac(p.norm())
                               for k, p in sorted(report.residuals.items())}}


# ---------------------------------------------------------------------------
# commands


def _cmd_build(args) -> int:
    instance, in_hash = _load(args.instance, serialize.instance_from_json)
    sigma, state = construct.build(instance)
    report = construct.verify_almost_closed(sigma, instance.C, instance.D)
    if not report.ok:
        print(f"construction failed its own residual check at degree "
              f"{report.first_failure}", file=sys.stderr)
        return 1
    log = {"kind": "construction_log",
           "d": instance.d, "N": instance.N, "seed": instance.seed,
           "mode": instance.mode,
           "norms": {str(k): {name: _frac(v) for name, v in sorted(row.items())}
                     for k, row in sorted(state.norm_log.items())}}
    artifacts = _emit(args.out, "build", {"instance": args.instance},
                      {"instance": in_hash},
                      {"sigma.json": serialize.one_form_to_json(sigma),
                       "log.json": log})
    _print(artifacts["sigma.json"], args.format,
           [f"built d={instance.d} N={instance.N} seed={instance.seed} "
            f"mode={instance.mode}; almost-closed residuals clean below "
            f"{report.checked_below}"])
    return EXIT_OK


def _cmd_verify_ac(args) -> int:
    sigma, s_hash = _load(args.sigma, serialize.one_form_from_json)
    c, c_hash = _load(args.c, serialize.series_from_json)
    d, d_hash = _load(args.d, serialize.series_from_json)
    report = construct.verify_almost_closed(sigma, c, d)
    artifacts = _emit(args.out, "verify-ac", {},
                      {"sigma": s_hash, "C": c_hash, "D": d_hash},
                      {"report.json": _report_json(report)})
    status = "pass" if report.ok else f"fail at degree {report.first_failure}"
    _print(artifacts["report.json"], args.format,
           [f"almost-closed check: {status} (residuals checked below "
            f"{report.checked_below})"])
    return EXIT_OK if report.ok else EXIT_REFUTED


def _cmd_decide(args) -> int:
    sigma, s_hash = _load(args.sigma, serialize.one_form_from_json)
    outcome = decide(sigma, args.order)
    artifacts = {"outcome.json": _outcome_json(outcome)}
    if outcome.certificate is not None:
        system_json = serialize.system_to_json(outcome.failing_system)
        artifacts["failing_system.json"] = system_json
        artifacts["certificate.json"] = serialize.certificate_to_json(
            outcome.certificate,
            system_hash=serialize.sha256_of_payload(system_json))
    if outcome.witness is not None:
        artifacts["phi.json"] = _witness_json(outcome.witness)
    stamped = _emit(args.out, "decide", {"order": args.order},
                    {"sigma": s_hash}, artifacts)
    text = [f"verdict: {outcome.verdict} (order {outcome.order}, "
            f"branch {outcome.branch}, gauge {outcome.gauge})"]
    if outcome.failing_degree is not None:
        text.append(f"first failing degree: {outcome.failing_degree}")
    text.append(staged_report(outcome))
    _print(stamped["outcome.json"], args.format, text)
    if outcome.verdict == "infeasible":
        return EXIT_REFUTED
    if outcome.verdict == "degenerate":
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_obstruction(args) -> int:
    c, c_hash = _load(args.c, serialize.series_from_json)
    d, d_hash = _load(args.d, serialize.series_from_json)
    value = obstruction(c, d)
    artifacts = _emit(args.out, "obstruction", {}, {"C": c_hash, "D": d_hash},
                      {"obstruction.json": {"kind": "obstruction",
                                            "value": _frac(value)}})
    _print(artifacts["obstruction.json"], args.format, [f"obstruction: {value}"])
    return EXIT_OK


def _cmd_tilde(args) -> int:
    c, c_hash = _load(args.c, serialize.series_from_json)
    d, d_hash = _load(args.d, serialize.series_from_json)
    ct, dt = tilde_transform(c, d)
    payload = {"kind": "tilde_transform",
               "C1_tilde": {"x": _frac(ct.coeff((1, 0))), "y": _frac(ct.coeff((0, 1)))},
               "D1_tilde": {"x": _frac(dt.coeff((1, 0))), "y": _frac(dt.coeff((0, 1)))},
               "obstruction": _frac(ct.coeff((1, 0)) + dt.coeff((0, 1)))}
    artifacts = _emit(args.out, "tilde", {}, {"C": c_hash, "D": d_hash},
                      {"tilde.json": payload})
    _print(artifacts["tilde.json"], args.format,
           [f"shifted linear parts: C1~ = {ct}, D1~ = {dt}",
            f"obstruction (invariant under the shift): "
            f"{ct.coeff((1, 0)) + dt.coeff((0, 1))}"])
    return EXIT_OK


def _cmd_ideal_min_power(args) -> int:
    ideal, i_hash = _load(args.ideal, serialize.ideal_from_json)
    found = ideals.min_power_in_ideal(ideal, args.max)
    artifacts = _emit(args.out, "ideal min-power", {"max": args.max},
                      {"ideal": i_hash},
                      {"min_power.json": {"kind": "min_power", "max": args.max,
                                          "value": found}})
    text = (f"smallest n with m^n contained (graded cover): {found}"
            if found is not None else f"no containment found up to {args.max}")
    _print(artifacts["min_power.json"], args.format, [text])
    return EXIT_OK if found is not None else EXIT_REFUTED


def _cmd_ideal_colength(args) -> int:
    ideal, i_hash = _load(args.ideal, serialize.ideal_from_json)
    value = ideals.colength(ideal, args.max)
    artifacts = _emit(args.out, "ideal colength", {"max": args.max},
                      {"ideal": i_hash},
                      {"colength.json": {"kind": "colength", "max": args.max,
                                         "value": value}})
    text = (f"colength: {value}" if value is not None
            else f"not finite-colength below {args.max}")
    _print(artifacts["colength.json"], args.format, [text])
    return EXIT_OK if value is not None else EXIT_REFUTED


def _read_potential(payload: dict) -> TruncSeries:
    """Accept a bare series or the witness artifact emitted by `decide`."""
    if isinstance(payload, dict) and payload.get("kind") == "potential_witness":
        payload = payload["phi"]
    return serialize.series_from_json(payload)


def _cmd_verify_potential(args) -> int:
    phi, p_hash = _load(args.phi, _read_potential)
    omega, o_hash = _load(args.omega, serialize.one_form_from_json)
    ok = verify_potential(phi, omega, args.order)
    artifacts = _emit(args.out, "verify-potential", {"order": args.order},
                      {"phi": p_hash, "omega": o_hash},
                      {"verify_potential.json": {"kind": "verify_potential",
                                                 "order": args.order, "ok": ok}})
    _print(artifacts["verify_potential.json"], args.format,
           [f"gradient ideal equals component ideal mod m^{args.order}: {ok}"])
    return EXIT_OK if ok else EXIT_REFUTED


def _cmd_converge_bound(args) -> int:
    c, c_hash = _load(args.c, serialize.series_from_json)
    d, d_hash = _load(args.d, serialize.series_from_json)
    cc, beta, radius = construct.convergence_bound(c, d)
    payload = {"kind": "convergence_bound", "magnitude": _frac(cc),
               "growth_ratio": _frac(beta), "radius_lower_bound": _frac(radius)}
    artifacts = _emit(args.out, "converge-bound", {}, {"C": c_hash, "D": d_hash},
                      {"bound.json": payload})
    _print(artifacts["bound.json"], args.format,
           [f"multiplier magnitude: {cc}", f"growth ratio: {beta}",
            f"radius lower bound: {radius}"])
    return EXIT_OK


def _batch_worker(task: tuple[str, int | None]) -> tuple[dict, str | None]:
    """One instance pipeline: build, guard, decide.  Pure and picklable.

    Returns the summary row and the input hash, which is None when the file
    did not load as an instance.  Input errors become a row with status
    `error`; anything else propagates.
    """
    path, order = task
    row: dict = {"file": path}
    digest = None
    try:
        instance, digest = _load(path, serialize.instance_from_json)
        row.update(seed=instance.seed, d=instance.d, N=instance.N)
        sigma, _ = construct.build(instance)
        guard = genericity_guard(sigma)
        if not guard.passed:
            row["status"] = "guard_rejected"
            row["guard_failures"] = guard.failures()
            return row, digest
        effective = order if order is not None else instance.d + 3
        outcome = decide(sigma, effective)
    except _INPUT_ERRORS as exc:
        row["status"] = "error"
        row["message"] = str(exc)
        return row, digest
    row["status"] = outcome.verdict
    row["order"] = effective
    row["failing_degree"] = outcome.failing_degree
    return row, digest


def _cmd_batch(args) -> int:
    files = sorted(globmod.glob(args.instances))
    if not files:
        print(f"no instance files match {args.instances!r}", file=sys.stderr)
        return EXIT_INPUT
    tasks = [(path, args.order) for path in files]
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(_batch_worker, tasks))
    else:
        results = [_batch_worker(t) for t in tasks]
    rows = [row for row, _ in results]
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acforms",
        description="Build, verify and decide truncated almost closed 1-forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None,
                       help="directory for JSON artifacts and the run manifest")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("build", help="construct an instance from a JSON request")
    p.add_argument("instance")
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify-ac", help="check A_y - B_x = C*A + D*B degreewise")
    p.add_argument("sigma")
    p.add_argument("c", metavar="C")
    p.add_argument("d", metavar="D")
    common(p)
    p.set_defaults(func=_cmd_verify_ac)

    p = sub.add_parser("decide", help="decide potential feasibility up to an order")
    p.add_argument("sigma")
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("obstruction", help="the scalar C1_x + D1_y")
    p.add_argument("c", metavar="C")
    p.add_argument("d", metavar="D")
    common(p)
    p.set_defaults(func=_cmd_obstruction)

    p = sub.add_parser("tilde", help="linear parts shifted by the forced degree-1 unknown")
    p.add_argument("c", metavar="C")
    p.add_argument("d", metavar="D")
    common(p)
    p.set_defaults(func=_cmd_tilde)

    p = sub.add_parser("ideal", help="graded ideal computations")
    isub = p.add_subparsers(dest="ideal_command", required=True)
    q = isub.add_parser("min-power", help="least n with m^n inside the ideal")
    q.add_argument("ideal")
    q.add_argument("--max", type=int, required=True)
    common(q)
    q.set_defaults(func=_cmd_ideal_min_power)
    q = isub.add_parser("colength", help="dimension of the quotient ring")
    q.add_argument("ideal")
    q.add_argument("--max", type=int, required=True)
    common(q)
    q.set_defaults(func=_cmd_ideal_colength)

    p = sub.add_parser("verify-potential",
                       help="gradient ideal vs component ideal modulo m^order")
    p.add_argument("phi")
    p.add_argument("omega")
    p.add_argument("--order", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_verify_potential)

    p = sub.add_parser("converge-bound",
                       help="growth ratio and radius bound from the multipliers")
    p.add_argument("c", metavar="C")
    p.add_argument("d", metavar="D")
    common(p)
    p.set_defaults(func=_cmd_converge_bound)

    p = sub.add_parser("batch", help="run the decide pipeline across instance files")
    p.add_argument("instances", help="glob pattern of instance JSON files")
    p.add_argument("--order", type=int, default=None,
                   help="decision order (default: leading degree + 3 per instance)")
    p.add_argument("--parallel", type=int, default=1)
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
