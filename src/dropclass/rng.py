"""Deterministic random stream derivation.

All randomness in the package flows through numpy's PCG64 generator.  A
stream is identified by a 64-bit base seed plus an integer path, fed to
``numpy.random.SeedSequence`` as entropy and spawn key respectively.  The
same (seed, path) always yields the same stream on every platform.
"""

import numpy as np

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


def stream(seed, *path):
    """Return a Generator for the stream identified by (seed, path)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed, tag):
    """Derive a child 64-bit seed from (seed, tag), for component defaults."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(tag),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
