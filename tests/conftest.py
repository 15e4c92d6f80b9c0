import os
import sys
from pathlib import Path

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)

# make `import reference` work regardless of pytest import mode
if TESTS_DIR not in sys.path:
    sys.path.insert(0, TESTS_DIR)

import pytest
from hypothesis import settings


@pytest.fixture(scope="session")
def scenarios_dir():
    return Path(REPO_ROOT) / "scenarios"


# Properties draw the same examples on every run and keep no example
# database, so that tier-1 is deterministic and never reads .hypothesis/.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
