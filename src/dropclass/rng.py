"""Deterministic random stream derivation.

All randomness in the package flows through numpy's PCG64 generator.  A
stream is identified by a 64-bit base seed plus an integer path, fed to
``numpy.random.SeedSequence`` as entropy and spawn key respectively.  The
same (seed, path) always yields the same stream on every platform.
"""

import numpy as np

from .errors import ValidationError

# Component tags used as the first path element.
CLASS_MEANS = 0
UTTERANCE = 1
SPLIT = 2
TRIALS = 3
INIT = 4
BATCH = 5
SCHEDULE = 6
BOOTSTRAP = 7
TRAIN_SEED = 8


def check_seed(value, name="seed"):
    """Return ``value`` if it is a seed SeedSequence takes, an integer in
    [0, 2**64); else raise ValidationError naming ``name``."""
    if not (isinstance(value, (int, np.integer)) and 0 <= value < 2 ** 64):
        raise ValidationError(f"must be an integer in [0, 2**64), got {value!r}", name)
    return value


def stream(seed, *path):
    """Return a Generator for the stream identified by (seed, path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed, tag):
    """Derive a child 64-bit seed from (seed, tag), for component defaults."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(tag),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
