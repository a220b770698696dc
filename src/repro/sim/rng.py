"""Seeded random-number streams for reproducible simulations.

Every stochastic component takes a :class:`RandomStream` (or a seed) so a
whole experiment is reproducible from a single integer.  Streams can be
forked: ``stream.fork("site")`` derives an independent child stream whose
sequence does not depend on how much of the parent was consumed.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence


class _ZipfTable:
    """Zipf weights ``1 / (i + 1) ** skew`` and their left-to-right
    running sums, grown on demand and shared by every ``n``: both are
    prefix-stable, so the first ``n`` entries are exactly the lists a
    fresh build for ``n`` would give."""

    def __init__(self, skew: float):
        self.skew = skew
        self.weights: List[float] = []
        self.running: List[float] = []
        self._totals: Dict[int, float] = {}

    def total(self, n: int) -> float:
        """``sum`` of the first ``n`` weights, growing the table to ``n``.
        Not ``running[n - 1]``: ``sum`` is compensated from Python 3.12
        on and the running sum is not, so the two can differ in the last
        bit — enough to move a draw."""
        total = self._totals.get(n)
        if total is None:
            weights, running = self.weights, self.running
            acc = running[-1] if running else 0.0
            for i in range(len(weights), n):
                w = 1.0 / (i + 1) ** self.skew
                acc += w
                weights.append(w)
                running.append(acc)
            total = self._totals[n] = sum(weights[:n])
        return total


#: One table per skew in use (three in the product), shared by all streams.
_ZIPF_TABLES: Dict[float, _ZipfTable] = {}


class RandomStream:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self._derive(seed, name))

    @staticmethod
    def _derive(seed: int, name: str) -> int:
        digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def fork(self, name: str) -> "RandomStream":
        """An independent child stream, deterministic in (seed, path)."""
        return RandomStream(self.seed, f"{self.name}/{name}")

    # -- draws ----------------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        return self._random.random()

    def expovariate(self, rate: float) -> float:
        return self._random.expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        return self._random.lognormvariate(mu, sigma)

    def choice(self, seq: Sequence):
        return self._random.choice(seq)

    def sample(self, seq: Sequence, k: int) -> list:
        k = min(k, len(seq))
        return self._random.sample(list(seq), k)

    def shuffle(self, seq: list) -> None:
        self._random.shuffle(seq)

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        return self._random.random() < probability

    def bounded_lognormal(self, mu: float, sigma: float,
                          low: float, high: float) -> float:
        """A lognormal draw clamped to [low, high].

        Used for page-size distributions, where a heavy tail is realistic
        but single pathological draws would distort small experiments.
        """
        return max(low, min(high, self.lognormal(mu, sigma)))

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """An index in [0, n) drawn from a Zipf-like distribution."""
        if n <= 0:
            raise ValueError("zipf_index requires n >= 1")
        table = _ZIPF_TABLES.get(skew)
        if table is None:
            table = _ZIPF_TABLES[skew] = _ZipfTable(skew)
        point = self._random.random() * table.total(n)
        # The first ``i`` with ``point <= running[i]``; ``total`` may sit a
        # bit above ``running[n - 1]``, so a point past it is the last index.
        return min(bisect_left(table.running, point, 0, n), n - 1)

    def __repr__(self) -> str:
        return f"<RandomStream seed={self.seed} name={self.name!r}>"


def derive_seed(seed: int, name: str) -> int:
    """Derive a child integer seed from ``(seed, name)``.

    This is the one derivation every layer shares: a suite seed derives
    per-cell seeds (``derive_seed(suite_seed, "cell/" + cell_id)``), and
    a cell seed derives its named :class:`RandomStream`\\ s.  Because the
    child depends only on the parent seed and the *name* — never on
    draw order or on how many siblings were derived first — identical
    cells are byte-identical regardless of matrix position.
    """
    return RandomStream._derive(seed, name)


def retry_stream(seed: int, role: str) -> RandomStream:
    """The named retry-jitter stream convention scenario drivers share.

    Every scenario driver (chaos, partition, crashtest, overload) must
    derive its retry streams through this helper — one seed, one
    ``retry/<role>`` namespace — instead of ad-hoc seed arithmetic
    (``seed + index``) or hand-rolled stream names, so two drivers
    running the same cell agree on every draw.
    """
    return RandomStream(seed, name=f"retry/{role}")


def stream_from(seed_or_stream: Optional[object], name: str) -> RandomStream:
    """Coerce an int seed, a stream, or None into a :class:`RandomStream`."""
    if seed_or_stream is None:
        return RandomStream(0, name)
    if isinstance(seed_or_stream, RandomStream):
        return seed_or_stream.fork(name)
    if isinstance(seed_or_stream, int):
        return RandomStream(seed_or_stream, name)
    raise TypeError(f"expected int seed or RandomStream, got {seed_or_stream!r}")
