"""Canonical JSON serialization and content hashing.

Every artifact is JSON with sorted keys, compact separators, and rational
coefficients rendered as exact `p/q` strings, so identical mathematical
content always produces identical bytes.  Artifacts carry no timestamps;
reproducibility is part of the contract.  `sha256_of_payload` over the
canonical encoding is the content hash used to link certificates to the
systems they refute and outputs to their run manifests.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Any

from .construct import Instance
from .ideals import TruncatedIdeal
from .linalg import AffineSystem, FarkasCertificate
from .poly import HomogPoly, OneForm, TruncSeries


class SerializationError(ValueError):
    """Malformed or inconsistent artifact data."""


def frac_to_str(value: Fraction) -> str:
    return str(Fraction(value))


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def frac_from_str(text: Any) -> Fraction:
    """Parse the canonical form `frac_to_str` writes: `p` or `p/q` in lowest
    terms, q > 1, no sign on zero, no leading zeros, no spaces."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise SerializationError(f"expected a rational string p/q, got {text!r}")
    num, _, den = text.partition("/")
    try:
        value = Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise SerializationError(f"bad rational {text!r}: {exc}") from None
    if str(value) != text:
        raise SerializationError(f"rational {text!r} is not canonical; write {value}")
    return value


def _json_int(value: Any, name: str) -> int:
    """A JSON integer field; strings, floats and booleans are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SerializationError(f"{name} must be a JSON integer, got {value!r}")
    return value


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def sha256_of_payload(obj: Any) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("ascii")).hexdigest()


def sha256_of_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dump_json(path: str, obj: Any) -> str:
    """Write canonical JSON (trailing newline) and return the content hash."""
    text = canonical_dumps(obj) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
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


def series_to_json(series: TruncSeries) -> dict:
    terms = []
    for degree in sorted(series.parts):
        for exp, coeff in series.parts[degree].terms():
            terms.append({"exp": list(exp), "coeff": frac_to_str(coeff)})
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
    buckets: dict[int, dict[tuple[int, ...], Fraction]] = {}
    if not isinstance(raw_terms, list):
        raise SerializationError("series terms must be a list")
    for entry in raw_terms:
        if not isinstance(entry, dict) or "exp" not in entry or "coeff" not in entry:
            raise SerializationError(f"bad series term {entry!r}")
        if not isinstance(entry["exp"], list):
            raise SerializationError(f"exponent must be a list, got {entry['exp']!r}")
        exp = tuple(_json_int(e, "exponent") for e in entry["exp"])
        coeff = frac_from_str(entry["coeff"])
        bucket = buckets.setdefault(sum(exp), {})
        if exp in bucket:
            raise SerializationError(f"duplicate exponent {exp}")
        bucket[exp] = coeff
    try:
        parts = {k: HomogPoly.from_terms(num_vars, k, terms)
                 for k, terms in buckets.items()}
        return TruncSeries(num_vars, order,
                           {k: p for k, p in parts.items() if not p.is_zero})
    except ValueError as exc:
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
    return {"kind": "affine_system",
            "column_labels": list(system.column_labels),
            "row_labels": list(system.row_labels),
            "matrix": [[frac_to_str(v) for v in row] for row in system.matrix],
            "rhs": [frac_to_str(v) for v in system.rhs]}


def system_from_json(data: Any) -> AffineSystem:
    data = _expect_kind(data, "affine_system")
    try:
        matrix = [[frac_from_str(v) for v in row] for row in data["matrix"]]
        rhs = [frac_from_str(v) for v in data["rhs"]]
        cols = [str(v) for v in data["column_labels"]]
        rows = [str(v) for v in data.get("row_labels", [])]
        return AffineSystem(matrix=matrix, rhs=rhs, column_labels=cols, row_labels=rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad affine system: {exc}") from None


def certificate_to_json(cert: FarkasCertificate, system_hash: str | None = None) -> dict:
    out = {"kind": "farkas", "rows": [frac_to_str(v) for v in cert.row_combination]}
    if system_hash is not None:
        out["system_sha256"] = system_hash
    return out


def certificate_from_json(data: Any) -> FarkasCertificate:
    data = _expect_kind(data, "farkas")
    rows = data.get("rows")
    if not isinstance(rows, list):
        raise SerializationError("farkas certificate needs a row list")
    return FarkasCertificate(row_combination=[frac_from_str(v) for v in rows])


def ideal_to_json(ideal: TruncatedIdeal) -> dict:
    return {"kind": "ideal",
            "generators": [series_to_json(g) for g in ideal.generators]}


def ideal_from_json(payload: dict) -> TruncatedIdeal:
    _expect_kind(payload, "ideal")
    gens = payload.get("generators")
    if not isinstance(gens, list) or not gens:
        raise SerializationError("ideal payload needs a nonempty generator list")
    return TruncatedIdeal(tuple(series_from_json(p) for p in gens))


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
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed instance: {exc}") from exc


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
