"""Keyed, splittable pseudo-random draws.

Per-bidder offer coins are drawn by a keyed hash of (seed, path), so each
coin is addressable and independent of evaluation order.  Bulk sampling gets
a Philox stream per fixed-size chunk, keyed the same way, which makes results
independent of how many workers the chunks are spread across.  Only the bulk
streams need numpy, which is imported when the first one is made.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def _digest(seed: int, path: tuple[int, ...], size: int) -> bytes:
    """blake2b of the path keyed by the seed; a seed or path entry outside
    [0, 2**64) raises OverflowError, so no two keys alias."""
    key = seed.to_bytes(8, "little")
    msg = b"".join(x.to_bytes(8, "little") for x in path)
    return hashlib.blake2b(msg, digest_size=size, key=key).digest()


def draw_u64(seed: int, *path: int) -> int:
    """A uniform 64-bit integer addressed by (seed, path)."""
    return int.from_bytes(_digest(seed, path, 8), "little")


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """A Philox generator for one bulk-sampling stream."""
    import numpy as np

    key = int.from_bytes(_digest(seed, (stream,), 16), "little")
    return np.random.Generator(np.random.Philox(key=key))
