"""Settings shared by every test module."""

from hypothesis import settings

# every run draws the same examples, and no example database is written;
# each test keeps its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
