"""Counter-based random streams.

Every stochastic operation in the package derives its generator here, from an
integer seed plus a purpose key. Philox is counter-based, so a fixed seed and
key always reproduce the same stream no matter what ran before.
"""

import numpy as np

# purpose tags, one per independent stream hanging off a user seed
SAMPLE = 1
PERTURB = 2
LAPLACE = 3
SOLVER = 4
SUBSAMPLE = 5
RELEASE = 6
TRIAL = 7
THRESHOLD = 8


def generator(seed, *key):
    """Philox generator for (seed, key).

    seed must be a non-negative integer; key entries are non-negative ints
    identifying the consumer (purpose tag, then a trial, restart or grid-cell index).
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def stream(seed, *key):
    """A Generator seed as given (the draw advances it), an int as generator(seed, *key)."""
    return seed if isinstance(seed, np.random.Generator) else generator(seed, *key)


def derive_seed(seed, *key):
    """Child seed for a nested component, stable across runs."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def laplace(rng, scale):
    """One Laplace(0, scale) draw via the inverse CDF of a single uniform."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    u = rng.random() - 0.5
    # u = 0.5 - eps maps near -inf; clamp the log argument away from zero
    mag = max(1.0 - 2.0 * abs(u), np.finfo(float).tiny)
    sign = 1.0 if u >= 0 else -1.0
    return -scale * sign * float(np.log(mag))
