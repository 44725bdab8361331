"""Command-line surface: exit codes, artifacts, manifests, determinism."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import acforms.cli as cli_module
from acforms.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, EXIT_REFUTED, main
from acforms.construct import Instance, build
from acforms.decide import DeciderOutcome, genericity_guard
from acforms.ideals import TruncatedIdeal
from acforms.linalg import verify_farkas
from acforms.poly import OneForm
from acforms.serialize import (certificate_from_json, dump_json,
                               ideal_to_json, instance_to_json, load_json,
                               one_form_to_json, series_to_json,
                               sha256_of_payload, system_from_json)
from conftest import S, form, series_x, zero_series

FR = Fraction


def _write(path: Path, payload: dict) -> str:
    return dump_json(str(path), payload)


def _gradient_sigma_payload(trunc=8):
    sigma = form(S(2, trunc, {2: {(2, 0): 1}}), S(2, trunc, {2: {(0, 2): 1}}))
    return one_form_to_json(sigma)


def _const_series_payload(value, trunc=3):
    return series_to_json(S(2, trunc, {0: {(0, 0): value}}) if value
                          else zero_series(trunc))


def _first_guarded_refutable():
    """The first guard-passing d=18 N=22 build with C = x: (instance, sigma)."""
    for seed in range(1, 30):
        instance = Instance(d=18, N=22, C=series_x(3), D=zero_series(3), seed=seed)
        sigma, _ = build(instance)
        if genericity_guard(sigma).passed:
            return instance, sigma
    raise AssertionError("no guard-passing seed in range")


@pytest.fixture(scope="module")
def refuted_run(tmp_path_factory):
    """One guard-passing d=18 refutation driven end to end through the CLI."""
    root = tmp_path_factory.mktemp("refuted")
    instance_path = root / "instance.json"
    _write(instance_path, instance_to_json(_first_guarded_refutable()[0]))
    build_dir = root / "build"
    assert main(["build", str(instance_path), "--out", str(build_dir)]) == EXIT_OK
    sigma_path = build_dir / "sigma.json"
    out1, out2 = root / "out1", root / "out2"
    code1 = main(["decide", str(sigma_path), "--order", "21", "--out", str(out1)])
    code2 = main(["decide", str(sigma_path), "--order", "21", "--out", str(out2)])
    return {"root": root, "sigma": sigma_path, "build_dir": build_dir,
            "out1": out1, "out2": out2, "codes": (code1, code2)}


# --- build ---------------------------------------------------------------------


def test_build_writes_artifacts_and_manifest(tmp_path, capsys):
    inst = Instance(d=3, N=7, C=S(2, 3, {0: {(0, 0): 1}}), D=zero_series(3), seed=5)
    instance_path = tmp_path / "instance.json"
    _write(instance_path, instance_to_json(inst))
    out = tmp_path / "run"
    assert main(["build", str(instance_path), "--out", str(out)]) == EXIT_OK
    manifest = load_json(str(out / "manifest.json"))
    assert manifest["kind"] == "run_manifest"
    assert manifest["command"] == "build"
    assert set(manifest["outputs"]) == {"sigma.json", "log.json"}
    for name, entry in manifest["outputs"].items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        payload = json.loads(blob)
        assert payload["manifest_sha256"] == manifest["core_sha256"]
    log = load_json(str(out / "log.json"))
    assert log["kind"] == "construction_log"
    assert log["d"] == 3 and log["N"] == 7 and log["seed"] == 5
    assert set(log["norms"]) == {str(k) for k in range(3, 7)}
    stdout = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(stdout)["kind"] == "one_form"


def test_build_artifacts_do_not_depend_on_the_path_spelling(tmp_path, monkeypatch, capsys):
    payload = instance_to_json(Instance(d=3, N=7, C=S(2, 3, {0: {(0, 0): 1}}),
                                        D=zero_series(3), seed=5))
    _write(tmp_path / "a.json", payload)
    (tmp_path / "sub").mkdir()
    _write(tmp_path / "sub" / "a.json", payload)
    monkeypatch.chdir(tmp_path)
    spellings = ("a.json", "./a.json", "sub/a.json")
    for i, spelling in enumerate(spellings):
        assert main(["build", spelling, "--out", f"out{i}"]) == EXIT_OK
    capsys.readouterr()
    for name in ("sigma.json", "log.json", "manifest.json"):
        blobs = {(tmp_path / f"out{i}" / name).read_bytes() for i in range(len(spellings))}
        assert len(blobs) == 1, name


def test_build_rejects_invalid_instance(tmp_path, capsys):
    payload = {"kind": "instance", "d": 1, "N": 7,
               "C": series_to_json(zero_series(3)),
               "D": series_to_json(zero_series(3)), "seed": 1}
    path = tmp_path / "bad.json"
    _write(path, payload)
    assert main(["build", str(path)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("d", "abc"), ("d", True), ("seed", 1.5)])
def test_build_rejects_non_integer_fields(tmp_path, capsys, field, value):
    payload = instance_to_json(Instance(d=3, N=7, C=zero_series(3),
                                        D=zero_series(3), seed=1))
    payload[field] = value
    path = tmp_path / "bad.json"
    _write(path, payload)
    assert main(["build", str(path)]) == EXIT_INPUT
    assert "must be a JSON integer" in capsys.readouterr().err


def test_obstruction_rejects_non_integer_exponent(tmp_path, capsys):
    cp = tmp_path / "c.json"
    payload = series_to_json(S(2, 2, {1: {(1, 0): 1}}))
    payload["terms"][0]["exp"] = "a"
    _write(cp, payload)
    _write(tmp_path / "d.json", series_to_json(zero_series(2)))
    assert main(["obstruction", str(cp), str(tmp_path / "d.json")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_is_reported(tmp_path, capsys):
    assert main(["decide", str(tmp_path / "absent.json"), "--order", "4"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# --- verify-ac -------------------------------------------------------------------


def test_verify_ac_pass_and_fail(tmp_path):
    inst = Instance(d=3, N=7, C=S(2, 3, {0: {(0, 0): 1}}), D=zero_series(3), seed=5)
    sigma, _ = build(inst)
    sp = tmp_path / "sigma.json"
    cp = tmp_path / "c.json"
    dp = tmp_path / "d.json"
    _write(sp, one_form_to_json(sigma))
    _write(cp, series_to_json(inst.C))
    _write(dp, series_to_json(inst.D))
    out = tmp_path / "ok"
    assert main(["verify-ac", str(sp), str(cp), str(dp), "--out", str(out)]) == EXIT_OK
    report = load_json(str(out / "report.json"))
    assert report["ok"] is True and report["failing_degrees"] == []

    bad = form(S(2, 3, {1: {(0, 1): 1}}), zero_series(3))    # y dx is not almost closed for C = D = 0
    bp = tmp_path / "bad_sigma.json"
    _write(bp, one_form_to_json(bad))
    cz = tmp_path / "cz.json"
    _write(cz, series_to_json(zero_series(3)))
    out2 = tmp_path / "fail"
    assert main(["verify-ac", str(bp), str(cz), str(cz), "--out", str(out2)]) == EXIT_REFUTED
    report = load_json(str(out2 / "report.json"))
    assert report["ok"] is False and report["first_failure"] == 0


# --- decide ----------------------------------------------------------------------


def test_decide_feasible_emits_witness_and_verifies(tmp_path, capsys):
    sp = tmp_path / "sigma.json"
    _write(sp, _gradient_sigma_payload())
    out = tmp_path / "run"
    assert main(["decide", str(sp), "--order", "5", "--out", str(out)]) == EXIT_OK
    outcome = load_json(str(out / "outcome.json"))
    assert outcome["verdict"] == "feasible_up_to_M"
    assert outcome["guard"]["passed"] is True
    assert not (out / "certificate.json").exists()
    phi = load_json(str(out / "phi.json"))
    assert phi["kind"] == "potential_witness"
    # the emitted candidate re-verifies through the standalone command
    code = main(["verify-potential", str(out / "phi.json"), str(sp), "--order", "5"])
    assert code == EXIT_OK
    capsys.readouterr()


def test_decide_refuted_exits_10_with_certificate(refuted_run):
    assert refuted_run["codes"] == (EXIT_REFUTED, EXIT_REFUTED)
    outcome = load_json(str(refuted_run["out1"] / "outcome.json"))
    assert outcome["verdict"] == "infeasible"
    assert outcome["failing_degree"] == 20
    assert outcome["branch"] == "forced_degree0"
    staged = outcome["staged"]
    assert [r["feasible"] for r in staged] == [True, True, True, False]


def test_decide_artifacts_are_byte_identical_across_out_dirs(refuted_run):
    for name in ("outcome.json", "certificate.json", "failing_system.json",
                 "manifest.json"):
        b1 = (refuted_run["out1"] / name).read_bytes()
        b2 = (refuted_run["out2"] / name).read_bytes()
        assert b1 == b2, name


# SHA-256 of each decide artifact, fixed so the artifact formats stay stable
_PINNED_DECIDE = {
    "gradient": {
        "outcome.json": "9fc31a11a629939c8ffd625ba13204131cf441fa966843913160504acd14bfb5",
        "phi.json": "1cd8b0b751394f6f25760e988ecc16a903fa21bd6781ca8fb88837c830adcb53"},
    "radial": {
        "outcome.json": "f39ebfab422877660dd5ed528f55d65493dff3d787b6ad882fdc99f46101bca2",
        "phi.json": "303e5cf02392273dcba862ef7019c166b66f067f21d7ade05c4536a68e07389e"},
    "refuted": {
        "outcome.json": "f6495cd154bf1b982a84cf60efcbab3334c213f2135bb480e45ac2085b04958d",
        "certificate.json": "7aecc4d2c923be5f404f11aadb5d09e542695a5a2eb8fa411c554156dce8b5df",
        "failing_system.json":
            "ddb0a2a950696b72b6043932a904bafb0a988b99f61ed8aa4c1a2295b06f154f"},
}


@pytest.mark.parametrize("name", sorted(_PINNED_DECIDE))
def test_decide_artifacts_match_pinned_hashes(tmp_path, capsys, name):
    if name == "gradient":
        payload, order = _gradient_sigma_payload(), 5
    elif name == "radial":
        payload = one_form_to_json(form(S(2, 4, {1: {(1, 0): 1}}), S(2, 4, {1: {(0, 1): 1}})))
        order = 3
    else:
        payload, order = one_form_to_json(_first_guarded_refutable()[1]), 21
    sp = tmp_path / "sigma.json"
    _write(sp, payload)
    out = tmp_path / "run"
    main(["decide", str(sp), "--order", str(order), "--out", str(out)])
    capsys.readouterr()
    for file_name, digest in _PINNED_DECIDE[name].items():
        assert hashlib.sha256((out / file_name).read_bytes()).hexdigest() == digest, file_name


def test_emitted_certificate_audits_standalone(refuted_run):
    sys_payload = load_json(str(refuted_run["out1"] / "failing_system.json"))
    cert_payload = load_json(str(refuted_run["out1"] / "certificate.json"))
    stamp = sys_payload.pop("manifest_sha256")
    assert stamp == cert_payload.pop("manifest_sha256")
    # the certificate names the exact system payload it refutes (pre-stamp)
    assert cert_payload["system_sha256"] == sha256_of_payload(sys_payload)
    system = system_from_json(sys_payload)
    certificate = certificate_from_json(cert_payload)
    assert verify_farkas(system, certificate)


def test_decide_degenerate_exit_code(tmp_path, monkeypatch, capsys):
    sp = tmp_path / "sigma.json"
    _write(sp, _gradient_sigma_payload())
    fake = DeciderOutcome(verdict="degenerate", order=5, lowest_degree=2)
    monkeypatch.setattr(cli_module, "decide", lambda sigma, order: fake)
    assert main(["decide", str(sp), "--order", "5"]) == EXIT_DEGENERATE
    capsys.readouterr()


def test_decide_order_beyond_truncation_is_input_error(tmp_path, capsys):
    sp = tmp_path / "sigma.json"
    _write(sp, _gradient_sigma_payload())
    assert main(["decide", str(sp), "--order", "8"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_decide_text_format_prints_staged_table(tmp_path, capsys):
    sp = tmp_path / "sigma.json"
    _write(sp, _gradient_sigma_payload())
    assert main(["decide", str(sp), "--order", "5", "--format", "text"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "verdict: feasible_up_to_M" in text
    assert "block 0 dim" in text


# --- obstruction, tilde, converge-bound --------------------------------------------


def test_obstruction_and_tilde_commands(tmp_path, capsys):
    cp = tmp_path / "c.json"
    dp = tmp_path / "d.json"
    _write(cp, series_to_json(S(2, 2, {0: {(0, 0): 2}, 1: {(1, 0): 1}})))
    _write(dp, series_to_json(S(2, 2, {0: {(0, 0): 3}})))
    out = tmp_path / "obs"
    assert main(["obstruction", str(cp), str(dp), "--out", str(out)]) == EXIT_OK
    assert load_json(str(out / "obstruction.json"))["value"] == "1"
    out2 = tmp_path / "tilde"
    assert main(["tilde", str(cp), str(dp), "--out", str(out2)]) == EXIT_OK
    tilde = load_json(str(out2 / "tilde.json"))
    assert tilde["C1_tilde"] == {"x": "7", "y": "-4"}
    assert tilde["D1_tilde"] == {"x": "9", "y": "-6"}
    assert tilde["obstruction"] == "1"
    capsys.readouterr()


def test_converge_bound_command(tmp_path, capsys):
    cp = tmp_path / "c.json"
    dp = tmp_path / "d.json"
    _write(cp, series_to_json(S(2, 2, {0: {(0, 0): 1}, 1: {(1, 0): 1}})))    # 1 + x
    _write(dp, series_to_json(zero_series(2)))
    assert main(["converge-bound", str(cp), str(dp)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["magnitude"] == "2"
    assert payload["growth_ratio"] == "16"
    assert payload["radius_lower_bound"] == "1/16"


# --- ideal commands -----------------------------------------------------------------


def _square_ideal_payload(trunc=8):
    return ideal_to_json(TruncatedIdeal((S(2, trunc, {2: {(2, 0): 1}}),
                                         S(2, trunc, {2: {(0, 2): 1}}))))


def test_ideal_min_power_and_colength(tmp_path, capsys):
    ip = tmp_path / "ideal.json"
    _write(ip, _square_ideal_payload())
    out = tmp_path / "mp"
    assert main(["ideal", "min-power", str(ip), "--max", "7", "--out", str(out)]) == EXIT_OK
    assert load_json(str(out / "min_power.json"))["value"] == 3
    out2 = tmp_path / "co"
    assert main(["ideal", "colength", str(ip), "--max", "7", "--out", str(out2)]) == EXIT_OK
    assert load_json(str(out2 / "colength.json"))["value"] == 4
    capsys.readouterr()


def test_ideal_not_found_exits_10(tmp_path, capsys):
    payload = ideal_to_json(TruncatedIdeal((S(2, 8, {5: {(5, 0): 1}}),)))
    ip = tmp_path / "principal.json"
    _write(ip, payload)
    assert main(["ideal", "min-power", str(ip), "--max", "7"]) == EXIT_REFUTED
    assert main(["ideal", "colength", str(ip), "--max", "7"]) == EXIT_REFUTED
    assert main(["ideal", "min-power", str(ip), "--max", "9"]) == EXIT_INPUT
    capsys.readouterr()


# --- verify-potential ----------------------------------------------------------------


def test_verify_potential_pass_and_fail(tmp_path, capsys):
    sp = tmp_path / "sigma.json"
    _write(sp, _gradient_sigma_payload())
    good = tmp_path / "phi.json"
    _write(good, series_to_json(S(2, 8, {3: {(3, 0): FR(1, 3), (0, 3): FR(1, 3)}})))
    assert main(["verify-potential", str(good), str(sp), "--order", "6"]) == EXIT_OK
    bad = tmp_path / "wrong.json"
    _write(bad, series_to_json(S(2, 8, {3: {(3, 0): 1}})))
    assert main(["verify-potential", str(bad), str(sp), "--order", "6"]) == EXIT_REFUTED
    capsys.readouterr()


def test_verify_potential_witness_without_phi_is_input_error(tmp_path, capsys):
    sp = tmp_path / "sigma.json"
    _write(sp, _gradient_sigma_payload())
    wp = tmp_path / "witness.json"
    _write(wp, {"kind": "potential_witness", "gradient_matches_below": 6})
    assert main(["verify-potential", str(wp), str(sp), "--order", "5"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# --- batch ------------------------------------------------------------------------


def _small_instance_payload(seed):
    return instance_to_json(Instance(d=3, N=7, C=S(2, 3, {0: {(0, 0): 1}}),
                                     D=zero_series(3), seed=seed, coeff_bound=1))


def test_batch_mixes_guard_rejections_and_decisions(tmp_path, capsys):
    for seed in (5, 8, 16):
        _write(tmp_path / f"inst_{seed:02d}.json", _small_instance_payload(seed))
    out = tmp_path / "serial"
    pattern = str(tmp_path / "inst_*.json")
    assert main(["batch", pattern, "--out", str(out)]) == EXIT_OK
    summary = load_json(str(out / "summary.json"))
    assert summary["kind"] == "batch_summary"
    assert len(summary["runs"]) == 3
    assert summary["rejected_by_guard"] == 2
    by_seed = {row["seed"]: row for row in summary["runs"]}
    assert by_seed[8]["status"] == "guard_rejected"
    assert "degree0_forcing" in by_seed[8]["guard_failures"]
    assert "leading_pair" in by_seed[16]["guard_failures"]
    assert by_seed[5]["status"] in ("feasible_up_to_M", "infeasible", "degenerate")
    assert sum(summary["counts"].values()) == 3

    out2 = tmp_path / "parallel"
    assert main(["batch", pattern, "--parallel", "2", "--out", str(out2)]) == EXIT_OK
    assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
    capsys.readouterr()


def test_batch_turns_bad_instances_into_error_rows(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    good = str(batch / "a_good.json")
    _write(Path(good), _small_instance_payload(5))
    malformed = dict(_small_instance_payload(5), d="abc")
    _write(batch / "b_malformed.json", malformed)
    # N = d + 3 is too short for the default order d + 3
    short = instance_to_json(Instance(d=3, N=6, C=S(2, 2, {0: {(0, 0): 1}}),
                                      D=zero_series(2), seed=5))
    _write(batch / "c_short.json", short)
    (batch / "d_not_json.json").write_text("{", encoding="ascii")
    pattern = str(batch / "*.json")
    summaries = []
    for extra in ([], ["--parallel", "2"]):
        out = tmp_path / f"out{len(extra)}"
        assert main(["batch", pattern, "--out", str(out)] + extra) == EXIT_INPUT
        summaries.append((out / "summary.json").read_bytes())
        summary = load_json(str(out / "summary.json"))
        rows = {Path(row["file"]).name: row for row in summary["runs"]}
        assert rows["a_good.json"]["status"] in ("feasible_up_to_M", "infeasible",
                                                  "degenerate")
        for name in ("b_malformed.json", "c_short.json", "d_not_json.json"):
            assert rows[name]["status"] == "error" and rows[name]["message"]
        assert "must be a JSON integer" in rows["b_malformed.json"]["message"]
        assert rows["c_short.json"]["seed"] == 5
        assert summary["counts"]["error"] == 3
        manifest = load_json(str(out / "manifest.json"))
        assert set(manifest["input_hashes"]) == {good, str(batch / "c_short.json")}
    assert summaries[0] == summaries[1]
    capsys.readouterr()


def test_batch_reports_a_file_that_is_not_utf8(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    _write(batch / "a_good.json", _small_instance_payload(5))
    (batch / "b_latin.json").write_bytes(b'{"kind": "instance", "mode": "g\xe9n\xe9ric"}')
    out = tmp_path / "out"
    assert main(["batch", str(batch / "*.json"), "--out", str(out)]) == EXIT_INPUT
    rows = {Path(row["file"]).name: row for row in
            load_json(str(out / "summary.json"))["runs"]}
    assert rows["b_latin.json"]["status"] == "error"
    assert "not valid JSON" in rows["b_latin.json"]["message"]
    assert rows["a_good.json"]["status"] != "error"
    capsys.readouterr()


def test_batch_lets_internal_errors_propagate(tmp_path, monkeypatch):
    _write(tmp_path / "inst.json", _small_instance_payload(5))

    def broken(sigma, order, guard=None):
        raise AssertionError("internal check failed")

    monkeypatch.setattr(cli_module, "decide", broken)
    with pytest.raises(AssertionError, match="internal check failed"):
        main(["batch", str(tmp_path / "*.json")])


def _family_instance(c_parts):
    C = S(2, 3, c_parts) if c_parts else zero_series(3)
    for seed in range(1, 30):
        instance = Instance(d=18, N=22, C=C, D=zero_series(3), seed=seed)
        if genericity_guard(build(instance)[0]).passed:
            return instance
    raise AssertionError("no guard-passing seed in range")


def test_batch_rows_match_decide(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    expected = {}
    for name, c_parts in (("x", {1: {(1, 0): 1}}), ("zero", None)):
        path = batch / f"{name}.json"
        _write(path, instance_to_json(_family_instance(c_parts)))
        built = tmp_path / f"build_{name}"
        assert main(["build", str(path), "--out", str(built)]) == EXIT_OK
        decided = tmp_path / f"decide_{name}"
        main(["decide", str(built / "sigma.json"), "--order", "21", "--out", str(decided)])
        outcome = load_json(str(decided / "outcome.json"))
        expected[str(path)] = (outcome["verdict"], outcome["failing_degree"])
    assert expected[str(batch / "x.json")] == ("infeasible", 20)
    assert expected[str(batch / "zero.json")] == ("feasible_up_to_M", None)
    out = tmp_path / "out"
    assert main(["batch", str(batch / "*.json"), "--order", "21", "--out", str(out)]) == EXIT_OK
    rows = load_json(str(out / "summary.json"))["runs"]
    assert {row["file"]: (row["status"], row["failing_degree"]) for row in rows} == expected
    capsys.readouterr()


def _recording_pool(monkeypatch):
    """Replace the process pool by one that records its worker count and
    maps in this process; returns the list of worker counts."""
    created: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", RecordingPool)
    return created


def test_batch_starts_at_most_one_worker_per_file(tmp_path, monkeypatch, capsys):
    for seed in (5, 8, 16):
        _write(tmp_path / f"inst_{seed:02d}.json", _small_instance_payload(seed))
    created = _recording_pool(monkeypatch)
    summaries = []
    for pattern, parallel in (("inst_*.json", "8"), ("inst_*.json", "2"),
                              ("inst_05.json", "4"), ("inst_*.json", "1")):
        out = tmp_path / f"out_{len(summaries)}"
        assert main(["batch", str(tmp_path / pattern), "--parallel", parallel,
                     "--out", str(out)]) == EXIT_OK
        summaries.append(load_json(str(out / "summary.json"))["runs"])
    # one file or one worker runs serially, without a pool
    assert created == [3, 2]
    assert summaries[0] == summaries[1] == summaries[3]
    assert summaries[2] == summaries[0][:1]
    capsys.readouterr()


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_batch_rejects_fewer_than_one_worker(tmp_path, monkeypatch, capsys, parallel):
    _write(tmp_path / "inst.json", _small_instance_payload(5))
    created = _recording_pool(monkeypatch)
    out = tmp_path / "out"
    assert main(["batch", str(tmp_path / "*.json"), "--parallel", parallel,
                 "--out", str(out)]) == EXIT_INPUT
    assert "--parallel must be at least 1" in capsys.readouterr().err
    assert created == [] and not out.exists()


def test_batch_empty_glob_is_input_error(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "nothing_*.json")]) == EXIT_INPUT
    assert "no instance files match" in capsys.readouterr().err


# --- module entry point ----------------------------------------------------------


def test_module_invocation_round_trip(tmp_path):
    cp = tmp_path / "c.json"
    dp = tmp_path / "d.json"
    _write(cp, series_to_json(S(2, 2, {1: {(1, 0): 1}})))
    _write(dp, series_to_json(zero_series(2)))
    proc = subprocess.run([sys.executable, "-m", "acforms", "obstruction",
                           str(cp), str(dp)], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout.strip())["value"] == "1"
