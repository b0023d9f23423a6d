"""Bounded integer draws for the tests. The program draws no bounded
integers, so this form of a `numcore.Rng` stream lives beside the tests."""

import numpy as np

from fremure.errors import ContractError


def integers(rng, bound: int, n: int = 1) -> np.ndarray:
    """n integers in [0, bound) from ``rng``'s raw stream, each raw draw mod
    bound (the modulo bias is negligible for the small bounds used here)."""
    if bound <= 0:
        raise ContractError("integer bound must be positive")
    return (rng.raw(n) % np.uint64(bound)).astype(np.int64)
