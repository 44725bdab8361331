"""Canonical JSON serialization and content hashing.

Every artifact is JSON with sorted keys, compact separators, and rational
coefficients rendered as exact `p/q` strings, so identical mathematical
content always produces identical bytes.  Artifacts carry no timestamps;
reproducibility is part of the contract.  `sha256_of_payload` over the
canonical encoding is the content hash used to link certificates to the
systems they refute and outputs to their run manifests.

The formats of the package's records live here, each writer next to its
reader where one exists; the command-line module builds the payloads of
its own reports (construction log, scalar and ideal results, batch
summary) itself.
Readers raise `SerializationError`, and nothing else, on a malformed
payload, and `dump_json` raises it on a path it cannot write.

One canonical-rational parser, `_rational_parts`, serves every reader.
An `AffineSystem` is written from its integer rows, each entry v / s as
`str(Fraction(v, s))` would write it, and read back into integer rows with
one scale each, with no Fraction built.  A series goes the same way
between canonical strings and each part's packed integer terms (see
`poly`): the writer prints each term through one gcd, and the reader
checks each term once and stores each part through `HomogPoly._store`,
skipping the constructor's per-term check.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable

from .construct import AlmostClosedReport, HypothesisError, Instance
from .decide import UNKNOWN_NAMES, DeciderOutcome, PotentialWitness
from .ideals import TruncatedIdeal
from .linalg import AffineSystem, FarkasCertificate
from .poly import HomogPoly, MismatchError, OneForm, TruncSeries, _pack, _unpack


class SerializationError(ValueError):
    """Malformed or inconsistent artifact data."""


def frac_to_str(value: Fraction | int) -> str:
    return str(value) if isinstance(value, Fraction) else str(Fraction(value))


# Only canonical spellings match: 0, or a nonzero integer without leading
# zeros, optionally over a denominator without leading zeros.  4300 digits
# per integer part is CPython's default int/str limit, written out so that
# parsing does not depend on PYTHONINTMAXSTRDIGITS.
_RATIONAL = re.compile(r"0|-?[1-9][0-9]{0,4299}(/[1-9][0-9]{0,4299})?")
_ZERO = Fraction(0)


def _rational_parts(text: Any) -> tuple[int, int]:
    """Numerator and denominator of the canonical form `frac_to_str` writes:
    `p` or `p/q` in lowest terms, q > 1, no sign on zero, no leading zeros,
    no spaces."""
    if text == "0":
        return 0, 1
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise SerializationError(f"expected a rational string p/q, got {text!r}")
    num, _, den = text.partition("/")
    try:
        p = int(num)
        if not den:
            return p, 1
        q = int(den)
    except ValueError as exc:     # an interpreter int/str limit below 4300 digits
        raise SerializationError(f"bad rational {text!r}: {exc}") from None
    if q == 1 or math.gcd(p, q) != 1:
        raise SerializationError(f"rational {text!r} is not canonical; write {Fraction(p, q)}")
    return p, q


def frac_from_str(text: Any) -> Fraction:
    """Parse the canonical form `frac_to_str` writes (see `_rational_parts`)."""
    if text == "0":
        return _ZERO
    return Fraction(*_rational_parts(text))


def _json_int(value: Any, name: str) -> int:
    """A JSON integer field; strings, floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SerializationError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_list(value: Any, name: str, of: type = object) -> list:
    """A JSON list field; with `of=str`, a list of JSON strings."""
    if not isinstance(value, list) or (of is not object
                                       and not all(isinstance(v, of) for v in value)):
        raise SerializationError(f"{name} must be a list{' of strings' if of is str else ''}, "
                                 f"got {value!r}")
    return value


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def sha256_of_payload(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()


def sha256_of_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dump_json(path: str, obj: Any) -> str:
    """Write canonical JSON (trailing newline), creating missing parent
    directories, and return the content hash."""
    text = canonical_dumps(obj) + "\n"
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from None
    return sha256_of_bytes(text.encode("ascii"))


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:    # bad JSON, or bytes that are not UTF-8
        raise SerializationError(f"{path} is not valid JSON: {exc}") from None


def _expect_kind(data: Any, kind: str) -> dict:
    if not isinstance(data, dict):
        raise SerializationError(f"expected a JSON object of kind {kind!r}")
    if data.get("kind") != kind:
        raise SerializationError(f"expected kind {kind!r}, got {data.get('kind')!r}")
    return data


def _ratio_texts(values: Iterable[int], s: int) -> list[str]:
    """Each v / s (s > 0) as `str(Fraction(v, s))` writes it, through one gcd."""
    if s == 1:
        return [str(v) for v in values]
    gcd = math.gcd
    return ["0" if not v else f"{v // g}/{s // g}" if (g := gcd(v, s)) != s else str(v // s)
            for v in values]


def series_to_json(series: TruncSeries) -> dict:
    terms = []
    for degree in sorted(series.parts):
        part = series.parts[degree]
        items = sorted(part._terms.items(), reverse=True)    # first variable major
        texts = _ratio_texts([v for _, v in items], part._den)
        terms.extend({"exp": list(_unpack(key, series.num_vars)), "coeff": text}
                     for (key, _), text in zip(items, texts))
    return {"kind": "series", "num_vars": series.num_vars,
            "truncation_order": series.trunc_order, "terms": terms}


def series_from_json(data: Any) -> TruncSeries:
    data = _expect_kind(data, "series")
    try:
        num_vars = _json_int(data["num_vars"], "num_vars")
        order = _json_int(data["truncation_order"], "truncation_order")
        raw_terms = data["terms"]
    except KeyError as exc:
        raise SerializationError(f"bad series fields: missing {exc}") from None
    if num_vars < 1:
        raise SerializationError(f"num_vars must be at least 1, got {num_vars}")
    buckets: dict[int, dict[int, tuple[int, int]]] = {}
    try:
        for entry in _json_list(raw_terms, "series terms"):
            if not isinstance(entry, dict) or "exp" not in entry or "coeff" not in entry:
                raise SerializationError(f"bad series term {entry!r}")
            exp = _json_list(entry["exp"], "exponent")
            if len(exp) != num_vars or (key := _pack(exp)) is None:
                for e in exp:
                    _json_int(e, "exponent")
                raise SerializationError(f"exponent {tuple(exp)} is not {num_vars} "
                                         f"non-negative integers")
            ratio = _rational_parts(entry["coeff"])
            if not ratio[0]:
                raise SerializationError(f"stored zero coefficient at {tuple(exp)}")
            bucket = buckets.setdefault(sum(exp), {})
            # distinct keys collide only past the packing bound, which _store refuses
            if key in bucket and _unpack(key, num_vars) == tuple(exp):
                raise SerializationError(f"duplicate exponent {tuple(exp)}")
            bucket[key] = ratio
        return TruncSeries(num_vars, order, {
            k: object.__new__(HomogPoly)._store(num_vars, k, bucket) for k, bucket in buckets.items()})
    except ValueError as exc:     # SerializationError too: its message is kept
        raise SerializationError(str(exc)) from None


def one_form_to_json(form: OneForm) -> dict:
    return {"kind": "one_form",
            "components": [series_to_json(s) for s in form.components]}


def one_form_from_json(data: Any) -> OneForm:
    data = _expect_kind(data, "one_form")
    comps = data.get("components")
    if not isinstance(comps, list) or not comps:
        raise SerializationError("one_form needs a nonempty component list")
    try:
        return OneForm(tuple(series_from_json(c) for c in comps))
    except ValueError as exc:
        raise SerializationError(str(exc)) from None


def system_to_json(system: AffineSystem) -> dict:
    rows = [_ratio_texts(row, s) for row, s in zip(system.rows, system.scales)]
    return {"kind": "affine_system",
            "column_labels": list(system.column_labels),
            "row_labels": list(system.row_labels),
            "matrix": [row[:-1] for row in rows],
            "rhs": [row[-1] for row in rows]}


def _integer_row(texts: list, memo: dict[str, tuple[int, int]]) -> tuple[int, list[int]]:
    """Canonical rational strings as (scale, integers): the lcm of their
    denominators, and each entry times it.  `memo` holds the strings
    already parsed."""
    parts = []
    for i, text in enumerate(texts):
        if text != "0":
            got = memo.get(text) if type(text) is str else None
            if got is None:
                got = memo[text] = _rational_parts(text)
            parts.append((i, got))
    scale = math.lcm(*[q for _, (_, q) in parts])
    row = [0] * len(texts)
    for i, (p, q) in parts:
        row[i] = p if q == scale else p * (scale // q)
    return scale, row


def system_from_json(data: Any) -> AffineSystem:
    data = _expect_kind(data, "affine_system")
    try:
        matrix = _json_list(data["matrix"], "matrix")
        rhs = _json_list(data["rhs"], "rhs")
        if len(rhs) != len(matrix):
            raise ValueError(f"{len(matrix)} rows but {len(rhs)} right-hand entries")
        memo: dict[str, tuple[int, int]] = {}
        scaled = [_integer_row(_json_list(row, "matrix row") + [b], memo)
                  for row, b in zip(matrix, rhs)]
        cols = _json_list(data["column_labels"], "column_labels", str)
        rows = _json_list(data.get("row_labels", []), "row_labels", str)
        return AffineSystem(rows=[row for _, row in scaled], scales=[s for s, _ in scaled],
                            column_labels=cols, row_labels=rows)
    except (KeyError, ValueError) as exc:
        raise SerializationError(f"bad affine system: {exc}") from None


def certificate_to_json(cert: FarkasCertificate, system_hash: str | None = None) -> dict:
    out = {"kind": "farkas", "rows": [frac_to_str(v) for v in cert.row_combination]}
    if system_hash is not None:
        out["system_sha256"] = system_hash
    return out


def certificate_from_json(data: Any) -> FarkasCertificate:
    data = _expect_kind(data, "farkas")
    rows = _json_list(data.get("rows"), "farkas certificate rows")
    return FarkasCertificate(row_combination=[frac_from_str(v) for v in rows])


def ideal_to_json(ideal: TruncatedIdeal) -> dict:
    return {"kind": "ideal",
            "generators": [series_to_json(g) for g in ideal.generators]}


def ideal_from_json(payload: dict) -> TruncatedIdeal:
    _expect_kind(payload, "ideal")
    gens = payload.get("generators")
    if not isinstance(gens, list) or not gens:
        raise SerializationError("ideal payload needs a nonempty generator list")
    try:
        return TruncatedIdeal(tuple(series_from_json(p) for p in gens))
    except MismatchError as exc:
        raise SerializationError(str(exc)) from None


def instance_to_json(instance: Instance) -> dict:
    payload = {"kind": "instance",
               "d": instance.d,
               "N": instance.N,
               "C": series_to_json(instance.C),
               "D": series_to_json(instance.D),
               "seed": instance.seed,
               "coeff_bound": instance.coeff_bound,
               "mode": instance.mode}
    if instance.b_vanish_from is not None:
        payload["b_vanish_from"] = instance.b_vanish_from
    return payload


def instance_from_json(payload: dict) -> Instance:
    _expect_kind(payload, "instance")
    try:
        raw_vanish = payload.get("b_vanish_from")
        return Instance(d=_json_int(payload["d"], "d"), N=_json_int(payload["N"], "N"),
                        C=series_from_json(payload["C"]),
                        D=series_from_json(payload["D"]),
                        seed=_json_int(payload["seed"], "seed"),
                        coeff_bound=_json_int(payload.get("coeff_bound", 10), "coeff_bound"),
                        mode=str(payload.get("mode", "generic")),
                        b_vanish_from=(None if raw_vanish is None
                                       else _json_int(raw_vanish, "b_vanish_from")))
    except KeyError as exc:
        raise SerializationError(f"malformed instance: {exc}") from None
    except (MismatchError, HypothesisError) as exc:    # the instance's own checks
        raise SerializationError(str(exc)) from None


def outcome_to_json(outcome: DeciderOutcome) -> dict:
    """The `outcome.json` view: verdict, guard report and staged records."""
    guard = outcome.guard
    payload = {"kind": "decider_outcome",
               "verdict": outcome.verdict,
               "order": outcome.order,
               "lowest_degree": outcome.lowest_degree,
               "failing_degree": outcome.failing_degree,
               "gauge": outcome.gauge,
               "branch": outcome.branch,
               "notes": list(outcome.notes),
               "guard": None if guard is None else {
                   "kind": "guard_report",
                   "lowest_degree": guard.lowest_degree,
                   "passed": guard.passed,
                   "checks": [asdict(c) for c in guard.checks]},
               "staged": [{"through_degree": record.through_degree,
                           "feasible": record.feasible,
                           "blocks": {str(j): {"dim": block.dim,
                                               "forced": {label: frac_to_str(v) for label, v
                                                          in block.forced.items()}}
                                      for j, block in enumerate(record.blocks)}}
                          for record in outcome.staged]}
    if outcome.witness is not None:
        payload["gradient_matches_below"] = outcome.witness.gradient_matches_below
    return payload


def witness_to_json(witness: PotentialWitness) -> dict:
    """The `phi.json` view: the potential and the unknowns X, Y, Z, W."""
    return {"kind": "potential_witness",
            "gradient_matches_below": witness.gradient_matches_below,
            **{name: series_to_json(getattr(witness, name))
               for name in ("phi", *UNKNOWN_NAMES)}}


def potential_from_json(payload: Any) -> TruncSeries:
    """A potential: a bare series, or the `phi` of a `witness_to_json` payload."""
    if isinstance(payload, dict) and payload.get("kind") == "potential_witness":
        payload = payload.get("phi")
    return series_from_json(payload)


def report_to_json(report: AlmostClosedReport) -> dict:
    return {"kind": "almost_closed_report",
            "ok": report.ok,
            "first_failure": report.first_failure,
            "checked_below": report.checked_below,
            "failing_degrees": list(report.failures()),
            "residual_norms": {str(k): frac_to_str(p.norm())
                               for k, p in sorted(report.residuals.items())}}


def manifest_core(command: str, parameters: dict, input_hashes: dict[str, str]) -> dict:
    """The hashed portion of a run manifest: command, parameters, inputs.

    Output hashes are recorded next to (not inside) the core so the
    manifest hash depends only on what determines the run.
    """
    return {"kind": "run_manifest", "command": command,
            "parameters": parameters, "input_hashes": input_hashes}


def stamp(artifact: dict, manifest_hash: str) -> dict:
    """Return the artifact with the originating manifest hash recorded."""
    out = dict(artifact)
    out["manifest_sha256"] = manifest_hash
    return out
