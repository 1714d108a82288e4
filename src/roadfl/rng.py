"""Deterministic random streams.

All stochastic code draws from numpy's Philox generator, a counter-based
bit generator whose output is fixed by its 128-bit key alone. Keys are
derived by hashing a root seed together with purpose tags, so every
component (arrivals, computing delays, data assignment, ...) gets an
independent stream that reproduces bit-for-bit across platforms and is
insensitive to the order in which other streams are consumed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def substream(seed: int, *tags: object) -> np.random.Generator:
    """Return an independent generator keyed by (seed, tags)."""
    material = ":".join([str(int(seed))] + [str(t) for t in tags]).encode()
    key = int.from_bytes(hashlib.blake2s(material, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))
