"""Settings shared by every test module."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# every run draws the same examples, and no example database is written;
# each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# hypothesis still caches the constants it reads from the loaded sources
# under its home directory, `.hypothesis/` in the working directory by
# default: a temporary one, removed when the run ends, keeps the checkout
# clean
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-home-")
set_hypothesis_home_dir(_HOME.name)
