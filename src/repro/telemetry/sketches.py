"""Streaming quantile estimation.

Section 3.2 of the paper notes that as the datacenter grows, quantiles can be
estimated with bounded error from a stream (citing Guha & McGregor).  This
module provides the Greenwald-Khanna epsilon-approximate sketch
(:class:`GKQuantileSketch`), giving rank error at most ``eps * n`` for any
quantile with O(1/eps * log(eps * n)) space, so the summarization step keeps
scaling when exact computation over all machines becomes impractical.  It is
the aggregator's and the fleet's ``sketch`` mode, and the scaling benchmark
(experiment E11 in DESIGN.md) measures it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class _GKTuple:
    value: float
    g: int  # rank gap to the previous tuple's minimum rank
    delta: int  # uncertainty of this tuple's rank


class GKQuantileSketch:
    """Greenwald-Khanna epsilon-approximate quantile sketch.

    Supports :meth:`insert` of single observations, :meth:`query` of any
    quantile with guaranteed rank error ``<= eps * n``, bulk construction
    from sorted data (:meth:`from_sorted`), and :meth:`merge` of two
    sketches summarizing disjoint streams — the primitive the sharded
    fleet aggregator (:mod:`repro.fleet`) is built on.
    """

    def __init__(self, eps: float = 0.01):
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        self.eps = eps
        self._tuples: List[_GKTuple] = []
        self._n = 0
        # Compress every ~1/(2 eps) inserts, the standard schedule.
        self._compress_interval = max(int(1.0 / (2.0 * eps)), 1)
        self._since_compress = 0

    def __len__(self) -> int:
        return self._n

    @property
    def size(self) -> int:
        """Number of stored tuples (the sketch's space usage)."""
        return len(self._tuples)

    def insert(self, value: float) -> None:
        """Add one observation to the sketch."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot insert NaN")
        tuples = self._tuples
        # Find insertion point (first tuple with larger value).
        lo, hi = 0, len(tuples)
        while lo < hi:
            mid = (lo + hi) // 2
            if tuples[mid].value < value:
                lo = mid + 1
            else:
                hi = mid
        idx = lo
        if idx == 0 or idx == len(tuples):
            delta = 0  # new minimum or maximum is known exactly
        else:
            delta = max(int(math.floor(2.0 * self.eps * self._n)) - 1, 0)
        tuples.insert(idx, _GKTuple(value, 1, delta))
        self._n += 1
        self._since_compress += 1
        if self._since_compress >= self._compress_interval:
            self._compress()
            self._since_compress = 0

    def extend(self, values) -> None:
        for v in values:
            self.insert(v)

    @classmethod
    def from_sorted(
        cls, values: Sequence[float], eps: float = 0.01
    ) -> "GKQuantileSketch":
        """Build a sketch from an already-sorted sample in O(1/eps) tuples.

        Keeps the order statistics at ranks ``1, 1+s, 1+2s, ..., n`` with
        ``s = max(floor(2*eps*n), 1)``, each with ``delta = 0`` (their
        ranks in the input are known exactly).  Every tuple then satisfies
        ``g + delta <= 2*eps*n``, the invariant :meth:`query` relies on,
        so the result is a valid eps-summary of the sample — built with a
        constant amount of Python work per *kept* tuple instead of per
        observation, which is what makes chunked shard folding fast.
        """
        sketch = cls(eps=eps)
        n = len(values)
        if n == 0:
            return sketch
        prev = -math.inf
        for v in values:
            v = float(v)
            if math.isnan(v):
                raise ValueError("cannot sketch NaN")
            if v < prev:
                raise ValueError("values must be sorted ascending")
            prev = v
        step = max(int(math.floor(2.0 * eps * n)), 1)
        ranks = list(range(1, n + 1, step))
        if ranks[-1] != n:
            ranks.append(n)
        tuples: List[_GKTuple] = []
        prev_rank = 0
        for rank in ranks:
            tuples.append(_GKTuple(float(values[rank - 1]), rank - prev_rank, 0))
            prev_rank = rank
        sketch._tuples = tuples
        sketch._n = n
        return sketch

    def merge(self, other: "GKQuantileSketch") -> "GKQuantileSketch":
        """Combine two sketches of disjoint streams into a new sketch.

        Tuples are interleaved in value order; a tuple keeps its ``g`` and
        widens its ``delta`` by the rank uncertainty contributed by the
        *other* sketch at its position (``g + delta - 1`` of the other
        sketch's next-larger tuple).  Summing each tuple's worst case,
        ``max(g + delta)`` of the result is at most ``2*eps1*n1 +
        2*eps2*n2 <= 2*(eps1 + eps2)*(n1 + n2)``, so the merged sketch
        answers any quantile with rank error at most ``(eps1 + eps2) *
        (n1 + n2)`` — the combined-error bound quoted in docs/fleet.md.
        (For equal epsilons the same sum shows the bound is in fact
        ``eps * n``, so repeated merging across shards does not degrade
        the guarantee.)

        The result's ``eps`` is ``max(eps1, eps2)``; both inputs are left
        untouched.
        """
        merged = GKQuantileSketch(eps=max(self.eps, other.eps))
        merged._n = self._n + other._n
        if self._n == 0:
            merged._tuples = [
                _GKTuple(t.value, t.g, t.delta) for t in other._tuples
            ]
            return merged
        if other._n == 0:
            merged._tuples = [
                _GKTuple(t.value, t.g, t.delta) for t in self._tuples
            ]
            return merged
        a, b = self._tuples, other._tuples
        out: List[_GKTuple] = []
        i = j = 0
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i].value <= b[j].value):
                t, peer, k = a[i], b, j
                i += 1
            else:
                t, peer, k = b[j], a, i
                j += 1
            # Uncertainty added by the other stream: its elements below t
            # number at least rmin(prev peer tuple) and at most
            # rmax(next peer tuple) - 1.
            if k < len(peer):
                extra = peer[k].g + peer[k].delta - 1
            else:
                extra = 0
            out.append(_GKTuple(t.value, t.g, t.delta + extra))
        merged._tuples = out
        merged._compress()
        return merged

    def _compress(self) -> None:
        """Merge adjacent tuples whose combined uncertainty stays in bound."""
        tuples = self._tuples
        if len(tuples) < 3:
            return
        threshold = math.floor(2.0 * self.eps * self._n)
        out: List[_GKTuple] = [tuples[0]]
        # Never merge into the last tuple's slot from the right; iterate and
        # greedily absorb tuples into their successor when allowed.
        for i in range(1, len(tuples)):
            cur = tuples[i]
            prev = out[-1]
            mergeable = (
                len(out) > 1  # keep the minimum exact
                and i < len(tuples)  # successor exists (cur absorbs prev)
                and prev.g + cur.g + cur.delta <= threshold
            )
            if mergeable:
                cur = _GKTuple(cur.value, prev.g + cur.g, cur.delta)
                out[-1] = cur
            else:
                out.append(cur)
        self._tuples = out

    def query(self, q: float) -> float:
        """Value whose rank is within ``eps * n`` of the q-th quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must lie in [0, 1]")
        if self._n == 0:
            raise ValueError("sketch is empty")
        target = max(int(math.ceil(q * self._n)), 1)
        bound = math.floor(self.eps * self._n)
        r_min = 0
        for i, t in enumerate(self._tuples):
            r_min += t.g
            r_max = r_min + t.delta
            if r_max >= target - bound and r_min >= target - bound:
                return t.value
            if i + 1 < len(self._tuples):
                nxt = self._tuples[i + 1]
                if r_min + nxt.g + nxt.delta > target + bound:
                    return t.value
        return self._tuples[-1].value


__all__ = ["GKQuantileSketch"]
