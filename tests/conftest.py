"""Shared builders and the acceptance-criterion reporting hook."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

from acforms.poly import HomogPoly, OneForm, TruncSeries

# a failing property test prints a @reproduce_failure(...) line, so it replays
# without the local example database
settings.register_profile("acforms", print_blob=True)
settings.load_profile("acforms")

_ACCEPTANCE: dict[str, str] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(label): acceptance criterion covered by this test")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is not None:
        if report.when == "call":
            _ACCEPTANCE[mark.args[0]] = "PASS" if report.passed else "FAIL"
        elif report.failed:
            _ACCEPTANCE[mark.args[0]] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"criterion {label}: {_ACCEPTANCE[label]}")


# --- concise builders usable from every test module -------------------------


def H(num_vars: int, degree: int, terms: dict) -> HomogPoly:
    return HomogPoly.from_terms(num_vars, degree,
                                {tuple(e): Fraction(c) for e, c in terms.items()})


def S(num_vars: int, trunc: int, parts: dict) -> TruncSeries:
    return TruncSeries(num_vars, trunc,
                       {k: H(num_vars, k, terms) for k, terms in parts.items()})


def zero_series(trunc: int, num_vars: int = 2) -> TruncSeries:
    return TruncSeries(num_vars, trunc, {})


def series_x(trunc: int) -> TruncSeries:
    """The multiplier C = x."""
    return S(2, trunc, {1: {(1, 0): 1}})


def form(*components: TruncSeries) -> OneForm:
    return OneForm(tuple(components))


@pytest.fixture
def builders():
    return H, S, zero_series, series_x, form
