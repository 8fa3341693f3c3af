"""Seeded random number generation with deterministic substreams.

Every Monte Carlo entry point takes a ``seed`` (or a numpy Generator) and
draws from its own stream, so results are reproducible and independent calls
never share state.  `derive_seed` labels substreams by hashing the parent seed
with a label, which keeps them stable under code reordering (unlike sequential
spawning).
"""

from __future__ import annotations

import numpy as np

from .config import charge
from .errors import ValidationError

# SHA-256 from the interpreter's built-in module, with the same digests as the
# OpenSSL one; importing OpenSSL's libcrypto costs every process about 3.6 MB.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(seed: int, label: str) -> int:
    digest = sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


#: Points per block of every enumeration, and block-length arrays per block of
#: mc_mean: a block of draws that each keep `width` such arrays live holds
#: _CHUNK // width draws, so one block holds about _CHUNK values whatever the
#: draw.
_CHUNK = 1 << 15


def check_count(count: int, name: str) -> int:
    """A Monte Carlo sample or trial count, which must be at least 1."""
    if count < 1:
        raise ValidationError(f"{name} must be >= 1 for a Monte Carlo estimate, got {count}")
    return count


def as_rng(seed_or_rng) -> np.random.Generator:
    """Accept either an integer seed or an existing numpy Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(int(seed_or_rng))


def mc_mean(draw, count: int, seed, name: str, points: int, width: int = 1):
    """(mean, stderr) of `count` draws, taken by draw(rng, size) from the stream
    of `seed` in blocks of at most max(1, _CHUNK // width) draws and not kept,
    where `width` is the number of block-length arrays that one draw keeps
    live.  Each draw reads `points` points, and count * points is charged
    before the first draw.  The mean is the sum of the
    block sums over the count.  Each block's M2, about its mean
    x_0 + mean(x - x_0) (exact for equal draws), merges into the total by the
    pairwise rule of Chan, Golub and LeVeque (1979); the stderr is
    sqrt(M2 / count) / sqrt(count)."""
    check_count(count, name)
    charge(count * points, f"Monte Carlo estimate over its {name}")
    rng = as_rng(0 if seed is None else seed)
    step = max(1, _CHUNK // width)
    total, mean, m2 = 0.0, 0.0, 0.0
    for lo in range(0, count, step):
        x = draw(rng, min(step, count - lo))
        total += x.sum()
        block = x[0] + (x - x[0]).mean()
        dev, delta, share = x - block, block - mean, len(x) / (lo + len(x))
        m2 += float(np.vdot(dev, dev).real) + abs(delta) ** 2 * lo * share
        mean += delta * share
    return total / count, float((m2 / count) ** 0.5 / count**0.5)
