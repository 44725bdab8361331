"""JSON artifacts: round trips, canonical hashing, malformed payloads."""

import copy
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acforms.construct import Instance, build
from acforms.decide import PotentialWitness
from acforms.ideals import TruncatedIdeal
from acforms.linalg import AffineSystem, FarkasCertificate, verify_farkas
from acforms.poly import HomogPoly, OneForm, TruncSeries, monomials
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
from oracles import (fraction_series_to_json, fraction_solve_affine, fraction_system,
                     fraction_system_to_json, fraction_verify_farkas, fraction_view,
                     integer_system, solve_affine, str_round_trip_fraction)

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


@settings(max_examples=400)
@given(st.one_of(st.text(alphabet="-0123456789/", max_size=12),
                 st.fractions().map(str)))
def test_fraction_parser_accepts_what_the_str_round_trip_accepts(text):
    expected = str_round_trip_fraction(text)
    if expected is None:
        with pytest.raises(SerializationError):
            frac_from_str(text)
    else:
        parsed = frac_from_str(text)
        assert type(parsed) is Fraction and parsed == expected


@given(st.one_of(st.fractions(), st.integers()))
def test_fraction_writer_matches_str_of_the_fraction(value):
    assert frac_to_str(value) == str(Fraction(value))


def test_fraction_parser_caps_digits_whatever_the_interpreter_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        big = "7" * 4300
        assert frac_from_str(big) == int(big)
        assert frac_from_str(f"1/{big}") == FR(1, int(big))
        with pytest.raises(SerializationError):
            frac_from_str(big + "7")
        with pytest.raises(SerializationError):
            frac_from_str(f"1/{big}7")
    finally:
        sys.set_int_max_str_digits(old)


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


@st.composite
def _wide_series(draw):
    """Sparse parts in one to three variables, mixed signs, denominators up to
    10^30, some parts integral and some zero."""
    num_vars = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 6))
    coeffs = st.one_of(st.integers(-10**30, 10**30),
                       st.fractions(min_value=-10**30, max_value=10**30,
                                    max_denominator=10**30))
    parts = [HomogPoly.from_terms(num_vars, k, draw(st.dictionaries(
        st.sampled_from(monomials(num_vars, k)), coeffs, max_size=4))) for k in range(trunc)]
    return TruncSeries.from_parts(num_vars, trunc, parts)


@settings(deadline=None, max_examples=200)
@given(_wide_series())
def test_series_writer_matches_the_fraction_writer_and_round_trips(s):
    payload = series_to_json(s)
    assert canonical_dumps(payload) == canonical_dumps(fraction_series_to_json(s))
    assert series_from_json(payload) == s


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
    for num_vars in (0, -1):
        # no variables: the graded dimensions the ideal checks read are undefined
        with pytest.raises(SerializationError, match="num_vars must be at least 1"):
            series_from_json({"kind": "series", "num_vars": num_vars,
                              "truncation_order": 4, "terms": []})


def test_one_form_round_trip():
    f = _sample_form()
    assert one_form_from_json(one_form_to_json(f)) == f
    with pytest.raises(SerializationError):
        one_form_from_json({"kind": "one_form", "components": []})


def test_system_and_certificate_round_trip():
    system = integer_system(_sample_form(), 4)
    back = system_from_json(system_to_json(system))
    assert fraction_view(back) == fraction_view(system)
    assert back.column_labels == system.column_labels
    assert back.row_labels == system.row_labels

    infeasible = fraction_system(matrix=[[FR(1)], [FR(1)]], rhs=[FR(0), FR(1)],
                                 column_labels=["u"])
    cert = solve_affine(infeasible)
    assert isinstance(cert, FarkasCertificate)
    payload = certificate_to_json(cert, system_hash="abc123")
    assert payload["system_sha256"] == "abc123"
    assert certificate_from_json(payload).row_combination == cert.row_combination
    with pytest.raises(SerializationError):
        certificate_from_json({"kind": "farkas", "rows": "nope"})


def _system_payload(**changes):
    system = fraction_system([[FR(1), FR(2)]], [FR(3)], ["a", "b"], ["r"])
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


_NON_CANONICAL = ["2/4", "3/1", "-0", "01", " 1", 1, True]


@pytest.mark.parametrize("entry", _NON_CANONICAL, ids=repr)
@pytest.mark.parametrize("place", ["matrix", "rhs"])
def test_system_reader_rejects_non_canonical_entries(place, entry):
    payload = (_system_payload(matrix=[["1", entry]]) if place == "matrix"
               else _system_payload(rhs=[entry]))
    with pytest.raises(SerializationError):
        system_from_json(payload)


@st.composite
def integer_row_systems(draw):
    """Systems stored as integer rows with one scale each: rows of mixed
    sign, zero rows, rows at scale 1, and rows stored at a multiple of their
    least scale, so that some entries reduce to integers under a larger
    scale.  The last row is a combination of the others with a shifted
    right-hand side, so the system is inconsistent."""
    cols = draw(st.integers(0, 4))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    rational = [draw(st.one_of(st.just([Fraction(0)] * (cols + 1)),
                               st.lists(entries, min_size=cols + 1, max_size=cols + 1)))
                for _ in range(draw(st.integers(1, 4)))]
    weights = draw(st.lists(st.integers(-2, 2), min_size=len(rational), max_size=len(rational)))
    combined = [sum((w * row[c] for w, row in zip(weights, rational)), Fraction(0))
                for c in range(cols + 1)]
    combined[-1] += draw(entries.filter(bool))
    rational.append(combined)
    rows, scales = [], []
    for row in rational:
        least = math.lcm(*[v.denominator for v in row])
        scale = least * draw(st.sampled_from([1, 1, 2, 6, 35]))
        rows.append([int(v * scale) for v in row])
        scales.append(scale)
    order = draw(st.permutations(range(len(rows))))
    return AffineSystem([rows[i] for i in order], [scales[i] for i in order],
                        [f"u{c}" for c in range(cols)], [f"r{i}" for i in order])


@settings(deadline=None, max_examples=150)
@given(integer_row_systems(), st.data())
def test_integer_rows_write_read_and_verify_as_fractions(system, data):
    payload = system_to_json(system)
    assert canonical_dumps(payload) == canonical_dumps(fraction_system_to_json(system))
    back = system_from_json(payload)
    assert back == system
    assert fraction_view(back) == fraction_view(system)
    certificate = fraction_solve_affine(system)
    assert isinstance(certificate, FarkasCertificate)
    u = list(certificate.row_combination)
    i = data.draw(st.integers(0, len(u) - 1))
    u[i] += data.draw(st.sampled_from([Fraction(1), Fraction(-1, 3), Fraction(7, 2)]))
    for candidate in (certificate, FarkasCertificate(u)):
        expected = fraction_verify_farkas(system, candidate)
        assert verify_farkas(system, candidate) == verify_farkas(back, candidate) == expected
    assert verify_farkas(back, certificate)


def test_system_equality_ignores_the_row_scale():
    plain = AffineSystem([[1, -2, 3]], [2], ["a", "b"])
    assert plain == AffineSystem([[3, -6, 9]], [6], ["a", "b"])
    assert plain != AffineSystem([[3, -6, 9]], [2], ["a", "b"])
    assert plain != AffineSystem([[1, -2, 3]], [2], ["a", "c"])
    assert fraction_view(plain) == ([[FR(1, 2), FR(-1)]], [FR(3, 2)])


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
    "system": (system_from_json, system_to_json(integer_system(_sample_form(), 3))),
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
