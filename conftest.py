import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent / "tests"))

# property tests replay the same examples on every run and keep no example
# database in the working tree
settings.register_profile("knotforms", derandomize=True, database=None, deadline=None)
settings.load_profile("knotforms")
