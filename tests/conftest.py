"""Hypothesis runs derandomized and without its example database, so the
suite draws the same examples on every run. Hypothesis still caches source
literals under .hypothesis/constants/, which .gitignore covers."""

from hypothesis import settings

settings.register_profile("taubnut", derandomize=True, database=None)
settings.load_profile("taubnut")
