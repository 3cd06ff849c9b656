"""Test-suite settings shared by every module.

Property tests run under one Hypothesis profile: examples derive from
each test's own fixed seed, no example database is kept, and no
per-example deadline applies, so results depend neither on earlier runs
nor on how busy the host is.  What Hypothesis still caches (constants it
collects from the source) goes to a temporary directory that lives as
long as the test session, not into the source tree.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "scbn", derandomize=True, database=None, deadline=None, max_examples=200
)
settings.load_profile("scbn")

_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HYPOTHESIS_HOME].cleanup()
