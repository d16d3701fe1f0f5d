import binascii
import os
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture
def child_env() -> dict:
    """This environment with the checkout's `src` first on PYTHONPATH, so a
    child interpreter imports the giftex under test, installed or not."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture
def decode_block():
    """Decodes an array block written by `to_jsonable`: float64 bytes in
    base64 plus the array's shape."""
    def decode(block: dict) -> np.ndarray:
        assert block["dtype"] == "<f8"
        raw = binascii.a2b_base64(block["base64"])
        return np.frombuffer(raw, "<f8").reshape(block["shape"])
    return decode
