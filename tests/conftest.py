import os
from pathlib import Path

import pytest


@pytest.fixture
def child_env() -> dict:
    """This environment with the checkout's `src` first on PYTHONPATH, so a
    child interpreter imports the giftex under test, installed or not."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
