"""Suite-wide settings: hypothesis draws the same examples on every run and
keeps no example database, so the tests are deterministic and write no
``.hypothesis/`` directory.  Each test keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
