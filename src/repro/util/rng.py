"""Random-number-generator plumbing.

Every stochastic component in this library takes an explicit
:class:`numpy.random.Generator` (or a seed convertible to one) so that whole
experiments are reproducible from a single integer seed.  Child streams are
derived with :func:`spawn_child` so that independent subsystems (fault
processes, noise, job arrivals, ...) do not consume from a shared stream —
changing one subsystem's draw count then cannot perturb another's sequence.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a ``SeedSequence`` or
    an existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_child(rng: np.random.Generator, *, streams: int = 1) -> list[np.random.Generator]:
    """Derive ``streams`` statistically independent child generators.

    Uses the bit generator's ``spawn`` support (PCG64 seed-sequence spawning),
    so children are independent of each other and of the parent's future
    output.
    """
    if streams < 1:
        raise ValueError(f"streams must be >= 1, got {streams}")
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if not isinstance(seed_seq, np.random.SeedSequence):
        raise TypeError(
            "spawn_child requires a generator whose bit generator exposes a "
            "SeedSequence (e.g. one built by as_generator); "
            f"{type(rng.bit_generator).__name__} does not"
        )
    return [np.random.default_rng(s) for s in seed_seq.spawn(streams)]
