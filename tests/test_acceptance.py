"""Acceptance criteria: every check of `tvbcox suite`, run at level full,
each with a printed verdict and its runtime budget.  The checks live in
`suite.CHECKS` alone; this file adds only the budgets."""

import pytest

from tvbcox import suite

# seconds, keyed by check name; a check with no entry fails
BUDGETS = {
    "example-5.14": 1.0,
    "tangent-stability": 1.0,
    "uniform-sparse-region": 10.0,
    "kernel": 300.0,
    "classical-presentation": 300.0,
    "groebner-lemma": 120.0,
    "initial-ideal": 300.0,
    "pluecker-match": 60.0,
    "cauchy": 5.0,
    "degrees": 1.0,
    "gz-patterns": 300.0,
}


def accept(number):
    """Run check `number` (counted from 1) of suite.CHECKS at level full and
    print its verdict; fail on an AssertionError or an overrun budget."""
    name, fn = suite.CHECKS[number - 1]
    assert name in BUDGETS, f"{name}: no runtime budget"
    budget = BUDGETS[name]
    status, detail, elapsed = suite._run_check(fn, "full")
    verdict = "PASS" if status == "PASS" and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {name} ({elapsed:.2f}s / {budget:.0f}s budget)")
    assert status == "PASS", f"{name}: {detail['error']}"
    assert elapsed < budget, f"{name}: {elapsed:.2f}s over the {budget:.0f}s budget"


@pytest.mark.parametrize(
    "number", range(1, len(suite.CHECKS) + 1), ids=[name for name, _ in suite.CHECKS]
)
def test_acceptance(number):
    accept(number)
