"""DET002 (transitive): unseeded randomness through functools.partial.

``functools.partial(random.random)`` produces a callable with no
visible call to ``random``; the whole-program pass unwraps the partial
at the binding site and reports the laundered draw with a witness chain.
"""

import functools
import random

draw = functools.partial(random.random)


def jitter():  # finding: DET002 (transitive, partial bound above)
    return draw()


def plan_backoff(attempt):  # covered: the finding lands on jitter()
    return (2 ** attempt) + jitter()


def seeded_ok(seed):
    rng = random.Random(seed)  # ok: explicit seed
    return rng.random()
