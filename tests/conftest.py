from __future__ import annotations

import os
import warnings

import pytest
from hypothesis import settings

from cbrdiag import CaseBase, decode_case_base

# Hypothesis's pytest plugin imports this module when a property fails, to
# print a patch for the falsifying example. Where libcst is installed, that
# import raises a DeprecationWarning (mypy_extensions.TypedDict), which
# ``-W error`` turns into an internal error of the whole session instead of
# the failure's report. Imported here once, that warning alone is ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("thorough", max_examples=200, deadline=None)
settings.load_profile("thorough")

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "data", "engine_case_base.json"
)


@pytest.fixture(scope="session")
def fixture_path() -> str:
    return os.path.normpath(FIXTURE_PATH)


@pytest.fixture(scope="session")
def fixture_text() -> str:
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="session")
def engine_case_base(fixture_text: str) -> CaseBase:
    return decode_case_base(fixture_text)
