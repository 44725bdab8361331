"""The three workloads: input generators, the op each one repeats, and the
correctness gate applied to every op.

Every gate checks facts that do not come from the code under test:
the paper's refutation degree d+2 for `C = x, D = 0`, feasibility of exact
differentials (`C = D = 0`), Bezout's colength d^2 and least power 2d-1 for
two degree-d leading forms without a common factor, the certificate hash
link and Farkas identity recomputed here from the files on disk, and the
membership witness re-verified by multiplication.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# refute and scan: the paper's main family; ideal: a smaller leading degree
# with N = 2d + 2, enough truncation for the least power 2d - 1.
REFUTE_D, REFUTE_N, REFUTE_ORDER = 18, 22, 21
IDEAL_D = 12
IDEAL_N = 2 * IDEAL_D + 2
REFUTE_INPUTS = 8       # guard-passing builds cycled through by `refute`
SCAN_PER_FAMILY = 2     # C = x and C = D = 0 files in the one batch `scan` repeats
IDEAL_INPUTS = 8        # guard-passing builds cycled through by `ideal`
PARALLEL = 2


class GateError(AssertionError):
    """An op returned a wrong answer."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def first_build_seed(workload_seed: int) -> int:
    return 1 + workload_seed % 1_000_000


def _multipliers(m, trunc: int, cx: int):
    poly = m.poly
    c = poly.TruncSeries(2, trunc, {1: poly.HomogPoly(2, 1, {(1, 0): Fraction(cx)})}
                         if cx else {})
    return c, poly.TruncSeries(2, trunc, {})


def guarded_builds(m, d: int, n: int, cx: int, first: int, count: int) -> list:
    """The first `count` guard-passing builds at seeds >= `first`."""
    c, dd = _multipliers(m, n - d - 1, cx)
    picked = []
    seed = first
    while len(picked) < count:
        instance = m.construct.Instance(d=d, N=n, C=c, D=dd, seed=seed)
        sigma, _ = m.construct.build(instance)
        if m.decide.genericity_guard(sigma).passed:
            picked.append((instance, sigma))
        seed += 1
        expect(seed < first + 50 * count, "guard rejected an implausible number of seeds")
    return picked


def _quiet(fn, *args):
    """Run a CLI entry point, discarding what it prints."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


def _canonical_sha256(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# refute: acforms decide on a guard-passing d=18 build, then the certificate audit


def refute_setup(m, seed: int, directory: Path) -> list[Path]:
    paths = []
    for instance, sigma in guarded_builds(m, REFUTE_D, REFUTE_N, 1,
                                          first_build_seed(seed), REFUTE_INPUTS):
        path = directory / f"sigma-{instance.seed}.json"
        m.serialize.dump_json(str(path), m.serialize.one_form_to_json(sigma))
        paths.append(path)
    return paths


def refute_op(m, path: Path, out: Path):
    code = _quiet(m.cli.main, ["decide", str(path), "--order", str(REFUTE_ORDER),
                               "--out", str(out)])
    # the audit a user runs on the files written, as in the README
    system = m.serialize.load_json(str(out / "failing_system.json"))
    cert = m.serialize.load_json(str(out / "certificate.json"))
    system.pop("manifest_sha256")
    cert.pop("manifest_sha256")
    linked = cert["system_sha256"] == m.serialize.sha256_of_payload(system)
    verified = m.linalg.verify_farkas(m.serialize.system_from_json(system),
                                      m.serialize.certificate_from_json(cert))
    return code, linked, verified


def refute_check(path: Path, out: Path, result) -> None:
    code, linked, verified = result
    expect(code == 10, f"{path.name}: exit {code}, expected 10 (refuted)")
    outcome = _read(out / "outcome.json")
    expect(outcome["verdict"] == "infeasible", f"{path.name}: verdict {outcome['verdict']}")
    expect(outcome["failing_degree"] == REFUTE_D + 2,
           f"{path.name}: failing degree {outcome['failing_degree']}, expected d+2")
    expect(linked and verified, f"{path.name}: audit linked={linked} verified={verified}")
    system = _read(out / "failing_system.json")
    cert = _read(out / "certificate.json")
    system.pop("manifest_sha256")
    expect(cert["system_sha256"] == _canonical_sha256(system),
           f"{path.name}: certificate does not hash-link to the failing system")
    u = [Fraction(v) for v in cert["rows"]]
    matrix = [[Fraction(v) for v in row] for row in system["matrix"]]
    rhs = [Fraction(v) for v in system["rhs"]]
    expect(len(u) == len(matrix), f"{path.name}: certificate length {len(u)}")
    for col in range(len(system["column_labels"])):
        expect(sum(ui * row[col] for ui, row in zip(u, matrix)) == 0,
               f"{path.name}: certificate leaves column {col} nonzero")
    expect(sum(ui * b for ui, b in zip(u, rhs)) != 0,
           f"{path.name}: certificate annihilates the right-hand side")


# ---------------------------------------------------------------------------
# scan: acforms batch --parallel 2 over half refutable, half exact instances


def scan_setup(m, seed: int, directory: Path) -> list[Path]:
    first = first_build_seed(seed)
    for family, cx in (("x", 1), ("zero", 0)):
        for instance, _ in guarded_builds(m, REFUTE_D, REFUTE_N, cx, first, SCAN_PER_FAMILY):
            m.serialize.dump_json(str(directory / f"{family}-{instance.seed}.json"),
                                  m.serialize.instance_to_json(instance))
    return [directory]


def scan_op(m, batch: Path, out: Path):
    return _quiet(m.cli.main, ["batch", str(batch / "*.json"), "--order",
                               str(REFUTE_ORDER), "--parallel", str(PARALLEL),
                               "--out", str(out)])


def scan_check(batch: Path, out: Path, code) -> None:
    expect(code == 0, f"{batch.name}: exit {code}, expected 0")
    rows = _read(out / "summary.json")["runs"]
    expect(len(rows) == 2 * SCAN_PER_FAMILY, f"{batch.name}: {len(rows)} rows")
    for row in rows:
        name = Path(row["file"]).name
        if name.startswith("x-"):
            expect(row["status"] == "infeasible" and row["failing_degree"] == REFUTE_D + 2,
                   f"{name}: {row['status']} at degree {row.get('failing_degree')}, "
                   f"expected infeasible at d+2")
        else:
            expect(row["status"] == "feasible_up_to_M",
                   f"{name}: {row['status']}, expected feasible_up_to_M")


# ---------------------------------------------------------------------------
# ideal: colength and least power through the CLI, then a membership witness


@dataclass
class IdealInput:
    path: Path
    generators: tuple


def ideal_setup(m, seed: int, directory: Path) -> list[IdealInput]:
    inputs = []
    for instance, sigma in guarded_builds(m, IDEAL_D, IDEAL_N, 1,
                                          first_build_seed(seed), IDEAL_INPUTS):
        path = directory / f"ideal-{instance.seed}.json"
        ideal = m.ideals.TruncatedIdeal(sigma.components)
        m.serialize.dump_json(str(path), m.serialize.ideal_to_json(ideal))
        inputs.append(IdealInput(path, sigma.components))
    return inputs


def ideal_op(m, item: IdealInput, out: Path):
    top = str(IDEAL_N - 1)
    codes = tuple(_quiet(m.cli.main, ["ideal", command, str(item.path), "--max", top,
                                      "--out", str(out / command)])
                  for command in ("colength", "min-power"))
    # the criterion-09 cut: parts up to the least power, certified to order + 6
    found = 2 * IDEAL_D - 1
    order = found + 6

    def cut(series):
        return m.poly.TruncSeries(2, order + 1,
                                  {k: p for k, p in series.parts.items() if k <= found})

    a_cut, b_cut = (cut(s) for s in item.generators)
    ideal_cut = m.ideals.TruncatedIdeal((a_cut, b_cut))
    target = a_cut.partial(1).sub(b_cut.partial(0))
    witness = m.ideals.membership_witness(target, ideal_cut, order)
    if not isinstance(witness, m.ideals.MembershipWitness):
        return codes, witness, None, False
    return codes, None, witness.valid_order, witness.verify(ideal_cut)


def ideal_check(item: IdealInput, out: Path, result) -> None:
    codes, failed_degree, valid_order, verified = result
    name = item.path.name
    expect(codes == (0, 0), f"{name}: exits {codes}, expected 0 and 0")
    colength = _read(out / "colength" / "colength.json")["value"]
    expect(colength == IDEAL_D ** 2, f"{name}: colength {colength}, expected d^2")
    power = _read(out / "min-power" / "min_power.json")["value"]
    expect(power == 2 * IDEAL_D - 1, f"{name}: least power {power}, expected 2d-1")
    expect(failed_degree is None, f"{name}: membership failed at degree {failed_degree}")
    expect(valid_order == 2 * IDEAL_D + 5 and verified,
           f"{name}: witness valid below {valid_order}, verified={verified}")


@dataclass
class Workload:
    setup: Callable
    op: Callable
    check: Callable
    instances_per_op: int
    workers: int


WORKLOADS = {
    "refute": Workload(refute_setup, refute_op, refute_check, 1, 0),
    "scan": Workload(scan_setup, scan_op, scan_check, 2 * SCAN_PER_FAMILY, PARALLEL),
    "ideal": Workload(ideal_setup, ideal_op, ideal_check, 1, 0),
}
