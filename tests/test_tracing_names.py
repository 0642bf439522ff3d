"""Every function the benchmark's tracer wraps still exists under its name.

bench/tracing.py binds its spans by (module, function) name, so a rename in
the package would otherwise show only when the traced benchmark runs.  The
file is loaded read-only; nothing is wrapped.
"""

import importlib
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def spanned_names():
    with open(TRACING, encoding="utf-8") as fh:
        namespace = {}
        exec(compile(fh.read(), TRACING, "exec"), namespace)
    # the tracer also rebinds common_minimal_columns to tag each rank span
    return namespace["SPANNED"] + [("bundle", "common_minimal_columns")]


@pytest.mark.parametrize("module, name", spanned_names())
def test_traced_name_resolves(module, name):
    owner = importlib.import_module(f"tvbcox.{module}")
    for part in name.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
