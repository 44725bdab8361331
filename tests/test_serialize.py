"""JSON artifacts: round trips, canonical hashing, malformed payloads."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.construct import Instance, build
from acforms.decide import PotentialWitness, assemble_system
from acforms.ideals import TruncatedIdeal
from acforms.linalg import AffineSystem, FarkasCertificate, solve_affine
from acforms.poly import OneForm
from acforms.serialize import (SerializationError, canonical_dumps,
                               certificate_from_json, certificate_to_json,
                               dump_json, frac_from_str, frac_to_str,
                               ideal_from_json, ideal_to_json,
                               instance_from_json, instance_to_json,
                               load_json, manifest_core, one_form_from_json,
                               one_form_to_json, potential_from_json,
                               series_from_json, series_to_json,
                               sha256_of_bytes, sha256_of_payload, stamp,
                               system_from_json, system_to_json,
                               witness_to_json)
from conftest import S, zero_series

FR = Fraction


def _sample_series():
    return S(2, 6, {1: {(1, 0): FR(1, 2)}, 3: {(2, 1): -2, (0, 3): FR(-7, 3)}})


def _sample_form():
    return OneForm((_sample_series(), S(2, 6, {2: {(0, 2): 4}})))


def _sample_instance():
    return Instance(d=3, N=7, C=S(2, 3, {0: {(0, 0): 1}}), D=zero_series(3),
                    seed=12, coeff_bound=5, mode="generic")


# --- fractions and canonical form ---------------------------------------------


def test_fraction_strings_round_trip():
    for v in (FR(0), FR(-3), FR(22, 7), FR(-5, 9)):
        assert frac_from_str(frac_to_str(v)) == v


def test_fraction_parser_rejects_junk():
    with pytest.raises(SerializationError):
        frac_from_str("1/0")
    with pytest.raises(SerializationError):
        frac_from_str("seven")
    with pytest.raises(SerializationError):
        frac_from_str(3.5)


@pytest.mark.parametrize("text", ["0.5", "1e3", " 2/4 ", "2/4", "-0", "+1", "01",
                                  "1/1", "1_000"])
def test_fraction_parser_accepts_only_canonical_strings(text):
    with pytest.raises(SerializationError):
        frac_from_str(text)


def test_canonical_dumps_is_key_order_independent():
    a = canonical_dumps({"b": 1, "a": [1, 2]})
    b = canonical_dumps({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'
    assert sha256_of_payload({"b": 1, "a": [1, 2]}) == sha256_of_payload({"a": [1, 2], "b": 1})


def test_dump_json_hash_matches_file_bytes(tmp_path):
    path = tmp_path / "x.json"
    digest = dump_json(str(path), {"z": "1/2", "a": 3})
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert sha256_of_bytes(raw) == digest
    assert load_json(str(path)) == {"z": "1/2", "a": 3}


def test_load_json_error_paths(tmp_path):
    with pytest.raises(SerializationError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SerializationError):
        load_json(str(bad))
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kind": "caf\xe9"}')    # not UTF-8
    with pytest.raises(SerializationError, match="not valid JSON"):
        load_json(str(latin))


# --- typed payload round trips ---------------------------------------------------


def test_series_round_trip_and_hash_stability():
    s = _sample_series()
    payload = series_to_json(s)
    back = series_from_json(payload)
    assert back == s
    assert sha256_of_payload(series_to_json(back)) == sha256_of_payload(payload)


def test_series_rejects_malformed_payloads():
    with pytest.raises(SerializationError):
        series_from_json({"kind": "series"})
    with pytest.raises(SerializationError):
        series_from_json({"kind": "one_form", "components": []})
    with pytest.raises(SerializationError):
        series_from_json({"kind": "series", "num_vars": 2, "truncation_order": 4,
                          "terms": [{"exp": [1, 0], "coeff": "bogus"}]})
    with pytest.raises(SerializationError):
        series_from_json({"kind": "series", "num_vars": 2, "truncation_order": 4,
                          "terms": [{"exp": [1, 0], "coeff": "1"},
                                    {"exp": [1, 0], "coeff": "2"}]})
    with pytest.raises(SerializationError):
        # stored term at or above the truncation order
        series_from_json({"kind": "series", "num_vars": 2, "truncation_order": 1,
                          "terms": [{"exp": [1, 1], "coeff": "1"}]})


def test_one_form_round_trip():
    f = _sample_form()
    assert one_form_from_json(one_form_to_json(f)) == f
    with pytest.raises(SerializationError):
        one_form_from_json({"kind": "one_form", "components": []})


def test_system_and_certificate_round_trip():
    system = assemble_system(_sample_form(), 4)
    back = system_from_json(system_to_json(system))
    assert back.matrix == system.matrix
    assert back.rhs == system.rhs
    assert back.column_labels == system.column_labels
    assert back.row_labels == system.row_labels

    infeasible = AffineSystem(matrix=[[FR(1)], [FR(1)]], rhs=[FR(0), FR(1)],
                              column_labels=["u"])
    cert = solve_affine(infeasible)
    assert isinstance(cert, FarkasCertificate)
    payload = certificate_to_json(cert, system_hash="abc123")
    assert payload["system_sha256"] == "abc123"
    assert certificate_from_json(payload).row_combination == cert.row_combination
    with pytest.raises(SerializationError):
        certificate_from_json({"kind": "farkas", "rows": "nope"})


def _system_payload(**changes):
    system = AffineSystem(matrix=[[FR(1), FR(2)]], rhs=[FR(3)], column_labels=["a", "b"],
                          row_labels=["r"])
    return {**system_to_json(system), **changes}


@pytest.mark.parametrize("changes", [
    {"matrix": "12"}, {"matrix": ["12"]}, {"rhs": "3"}, {"column_labels": "ab"},
    {"row_labels": "r"}, {"row_labels": [7]}, {"column_labels": ["a", None]},
], ids=["matrix-string", "row-string", "rhs-string", "columns-string",
        "rows-string", "row-label-int", "column-label-null"])
def test_system_reader_requires_lists_of_strings(changes):
    assert system_from_json(_system_payload()).column_labels == ["a", "b"]
    with pytest.raises(SerializationError):
        system_from_json(_system_payload(**changes))


def test_ideal_round_trip():
    ideal = TruncatedIdeal((_sample_series(), S(2, 6, {2: {(1, 1): 1}})))
    back = ideal_from_json(ideal_to_json(ideal))
    assert back.generators == ideal.generators
    with pytest.raises(SerializationError):
        ideal_from_json({"kind": "ideal", "generators": []})


def test_instance_round_trip_including_optional_fields():
    inst = _sample_instance()
    back = instance_from_json(instance_to_json(inst))
    assert back == inst
    vanishing = Instance(d=3, N=7, C=S(2, 3, {0: {(0, 0): 1}}),
                         D=zero_series(3), seed=1, b_vanish_from=5)
    payload = instance_to_json(vanishing)
    assert payload["b_vanish_from"] == 5
    assert instance_from_json(payload) == vanishing
    assert "b_vanish_from" not in instance_to_json(inst)
    with pytest.raises(SerializationError):
        instance_from_json({"kind": "instance", "d": 3})


def _series_payload(**changes):
    return {**series_to_json(_sample_series()), **changes}


def _exponent_payload(exp):
    return _series_payload(terms=[{"exp": exp, "coeff": "1"}])


def _instance_payload(**changes):
    return {**instance_to_json(_sample_instance()), **changes}


_NON_INTEGER_FIELDS = {
    "num_vars-string": (series_from_json, _series_payload(num_vars="2")),
    "num_vars-bool": (series_from_json, _series_payload(num_vars=True)),
    "truncation_order-float": (series_from_json, _series_payload(truncation_order=6.0)),
    "exp-string": (series_from_json, _exponent_payload("a")),
    "exp-int": (series_from_json, _exponent_payload(5)),
    "exponent-string": (series_from_json, _exponent_payload(["a", 1])),
    "exponent-float": (series_from_json, _exponent_payload([1.0, 0])),
    "exponent-bool": (series_from_json, _exponent_payload([True, 0])),
    "d-string": (instance_from_json, _instance_payload(d="abc")),
    "d-bool": (instance_from_json, _instance_payload(d=True)),
    "N-float": (instance_from_json, _instance_payload(N=7.0)),
    "seed-string": (instance_from_json, _instance_payload(seed="12")),
    "coeff_bound-bool": (instance_from_json, _instance_payload(coeff_bound=False)),
    "b_vanish_from-string": (instance_from_json, _instance_payload(b_vanish_from="5")),
    "multiplier-exponent-string": (instance_from_json,
                                   _instance_payload(C=_exponent_payload([0, "1"]))),
}


@pytest.mark.parametrize("changes", [{"d": 1}, {"N": 3}, {"mode": "weird"},
                                     {"coeff_bound": 0}])
def test_instance_checks_surface_as_serialization_errors(changes):
    with pytest.raises(SerializationError):
        instance_from_json(_instance_payload(**changes))


@pytest.mark.parametrize("case", sorted(_NON_INTEGER_FIELDS))
def test_integer_fields_accept_only_json_integers(case):
    load, payload = _NON_INTEGER_FIELDS[case]
    with pytest.raises(SerializationError, match="JSON integer|must be a list"):
        load(payload)


# --- fuzzing: a mutated payload may only raise SerializationError -------------

_REPLACEMENTS = st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                          st.integers(-2, 30), st.lists(st.integers(-2, 2), max_size=2),
                          st.just({}))


@st.composite
def _mutated(draw, payload):
    """`payload` with one node, reached by a random walk from the root,
    dropped or replaced by a value that is likely of another JSON type."""
    payload = copy.deepcopy(payload)
    parent = payload
    while True:
        keys = sorted(parent) if isinstance(parent, dict) else range(len(parent))
        key = draw(st.sampled_from(list(keys)))
        child = parent[key]
        if not (isinstance(child, (dict, list)) and child and draw(st.integers(0, 3))):
            break
        parent = child
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_REPLACEMENTS)
    return payload


_SAMPLE_PAYLOADS = {
    "series": (series_from_json, series_to_json(_sample_series())),
    "one_form": (one_form_from_json, one_form_to_json(_sample_form())),
    "system": (system_from_json, system_to_json(assemble_system(_sample_form(), 3))),
    "certificate": (certificate_from_json,
                    certificate_to_json(FarkasCertificate([FR(1), FR(-1, 2)]), "ab")),
    "ideal": (ideal_from_json,
              ideal_to_json(TruncatedIdeal((_sample_series(), _sample_series())))),
    "instance": (instance_from_json,
                 instance_to_json(Instance(d=3, N=7, C=_sample_series().truncate(3),
                                           D=zero_series(3), seed=1, b_vanish_from=5))),
    "potential": (potential_from_json, witness_to_json(
        PotentialWitness(*[_sample_series()] * 5, gradient_matches_below=6))),
}


@pytest.mark.parametrize("reader", sorted(_SAMPLE_PAYLOADS))
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_readers_raise_only_serialization_errors(reader, data):
    load, payload = _SAMPLE_PAYLOADS[reader]
    load(payload)
    try:
        load(data.draw(_mutated(payload)))
    except SerializationError:
        pass


def test_instance_payload_feeds_identical_build():
    inst = _sample_instance()
    direct, _ = build(inst)
    relayed, _ = build(instance_from_json(instance_to_json(inst)))
    assert direct.components == relayed.components


# --- manifests -----------------------------------------------------------------


def test_manifest_core_excludes_outputs_and_stamp_adds_hash():
    core = manifest_core("decide", {"order": 5}, {"sigma.json": "ff" * 32})
    assert core["kind"] == "run_manifest"
    assert set(core) == {"kind", "command", "parameters", "input_hashes"}
    digest = sha256_of_payload(core)
    artifact = stamp({"kind": "series", "terms": []}, digest)
    assert artifact["manifest_sha256"] == digest
    assert "manifest_sha256" not in {"kind": "series", "terms": []}
    # same command and inputs hash the same regardless of construction order
    again = manifest_core("decide", {"order": 5}, {"sigma.json": "ff" * 32})
    assert sha256_of_payload(again) == digest
