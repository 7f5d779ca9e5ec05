"""Hypothesis runs derandomized and without its example database, so the
suite draws the same examples on every run. Its home directory (where it
caches source literals under constants/) is a temporary directory that lives
only for the session, so running the suite writes nothing into the checkout."""

import shutil
import tempfile

from hypothesis import configuration, settings

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="taubnut-hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME)

settings.register_profile("taubnut", derandomize=True, database=None)
settings.load_profile("taubnut")


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
