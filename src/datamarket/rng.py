"""Deterministic seed derivation and RNG construction.

Every source of randomness in the simulator is a numpy Generator seeded
from a 32-byte SHA-256 digest, so that any run is a pure function of the
scenario seed and the labels naming the consumer.
"""

from __future__ import annotations

import hashlib

import numpy as np

SEED_BYTES = 32


def derive_seed(*parts: bytes | str | int) -> bytes:
    """Hash heterogeneous parts into a 32-byte seed.

    Parts are length-prefixed so distinct part sequences can never
    collide by concatenation.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
        elif isinstance(part, int):
            data = part.to_bytes(16, "big", signed=True)
        elif isinstance(part, (bytes, bytearray)):
            data = bytes(part)
        else:
            raise TypeError(f"unsupported seed part type: {type(part)!r}")
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return h.digest()


def rng_from(seed: bytes) -> np.random.Generator:
    """Build a PCG64 generator from a 32-byte seed.

    The stream is that of ``PCG64(int.from_bytes(seed, "big"))``.  PCG64's
    SeedSequence is handed the 32-bit words numpy would take from that
    integer, least significant first with the zero high words dropped
    (one word for an all-zero seed), which skips numpy's conversion of the
    integer word by word.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    words = max(1, (len(seed.lstrip(b"\0")) + 3) // 4)
    return np.random.Generator(np.random.PCG64(np.frombuffer(seed[::-1], dtype="<u4")[:words]))
