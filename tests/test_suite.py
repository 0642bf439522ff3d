import json
import math
from fractions import Fraction

import pytest
from test_acceptance import BUDGETS, accept
from test_golden import SUITE_FULL, cli_entry, golden_cli

from tvbcox import cli, cox, poly, suite
from tvbcox.cli import EXIT_CHECK_FAILED, EXIT_OK, main


def test_plain_writes_infinity_and_fractions_as_text():
    value = {1: (math.inf, Fraction(3, 4)), "n": [2, None, True, 0.5, "s"]}
    assert cli._plain(value) == {"1": ["infinity", "3/4"], "n": [2, None, True, 0.5, "s"]}


def test_run_suite_fast_passes():
    lines = []
    report = suite.run_suite("fast", emit=lines.append)
    assert report["passed"]
    assert len(lines) == len(suite.CHECKS)
    assert all(line.startswith("PASS") for line in lines)


def test_run_suite_full_passes(tmp_path):
    # the full level adds the kernel and initial-ideal checks at n = 3 and
    # 4 and the larger sweeps; its report, timings aside, matches
    # tests/golden/cli.json
    entry = cli_entry(SUITE_FULL, str(tmp_path))
    results = entry["report"]["results"]
    assert results["passed"], results["first_failure"]
    kernel = next(c for c in results["checks"] if c["check"] == "kernel")
    assert set(kernel["detail"]) == {"n2", "n3", "n4"}
    assert json.dumps({SUITE_FULL: entry}, indent=1) == golden_cli([SUITE_FULL])


def test_run_suite_reports_first_failure(monkeypatch):
    def broken(level):
        raise AssertionError("injected failure")

    patched = [("always-fails", broken)] + suite.CHECKS[:2]
    monkeypatch.setattr(suite, "CHECKS", patched)
    report = suite.run_suite("fast", emit=lambda _: None)
    assert not report["passed"]
    assert report["first_failure"] == ("always-fails", "injected failure")


def test_suite_command_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr(suite, "CHECKS", suite.CHECKS[:3])
    assert main(["suite", "--level", "fast"]) == EXIT_OK
    capsys.readouterr()

    def broken(level):
        raise AssertionError("nope")

    monkeypatch.setattr(suite, "CHECKS", [("broken", broken)])
    assert main(["suite", "--level", "fast"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr()
    assert "FAIL broken" in out.out
    assert "first failing check: broken" in out.err


def test_suite_report_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(suite, "CHECKS", suite.CHECKS[:2])
    path = tmp_path / "suite.json"
    assert main(["suite", "--level", "fast", "--report", str(path)]) == EXIT_OK
    payload = json.loads(path.read_text())
    assert payload["results"]["passed"] is True


def test_invalid_level():
    with pytest.raises(ValueError):
        suite.run_suite("medium")


def test_pluecker_check_fails_on_a_flipped_sign(monkeypatch):
    monkeypatch.setitem(cox.PLUCKER_SUBSTITUTION, "Y1_1", "p24")
    monkeypatch.setattr(suite, "CHECKS", [c for c in suite.CHECKS if c[0] == "pluecker-match"])
    lines = []
    report = suite.run_suite("fast", emit=lines.append)
    assert len(lines) == 1 and lines[0].startswith("FAIL pluecker-match")
    assert report["first_failure"][0] == "pluecker-match"


def test_classical_generators_need_the_w_sign_flip():
    claimed = cox.tangent_cox_ideal(2, 2)
    for w_sign, equal in ((-1, True), (1, False)):
        classical = poly.Ideal(claimed.ring, suite.classical_generators(claimed.ring, w_sign))
        assert poly.ideal_equal(classical, claimed) is equal


def _injected_failure(level):
    raise AssertionError("injected failure")


@pytest.mark.parametrize(
    "entry, budget, message, printed",
    [
        (("example-5.14", _injected_failure), None, "example-5.14: injected failure", True),
        (("unbudgeted", lambda level: {}), None, "unbudgeted: no runtime budget", False),
        (None, 0.0, "example-5.14: .* over the 0s budget", True),
    ],
    ids=["failing-check", "check-without-a-budget", "overrun-budget"],
)
def test_acceptance_fails_on_a_broken_check(monkeypatch, capsys, entry, budget, message, printed):
    # the negative control of tests/test_acceptance.py: its helper fails,
    # never skips, on a check that fails, has no budget or overruns it
    if entry is not None:
        monkeypatch.setattr(suite, "CHECKS", [entry] + suite.CHECKS[1:])
    if budget is not None:
        monkeypatch.setitem(BUDGETS, "example-5.14", budget)
    with pytest.raises(AssertionError, match=message):
        accept(1)
    verdict = "ACCEPTANCE 1: FAIL - example-5.14 (" if printed else ""
    out = capsys.readouterr().out
    assert out.startswith(verdict) and bool(out) is printed
