"""Fenwick tree over suffix sums, as both ranking codecs consume it: point
updates, and a descent that returns the suffix sum where it lands and
drains the entry just before it."""

from __future__ import annotations


class SuffixFenwick:
    """Point updates and suffix sums over a 1-based integer array.

    suffix_sum(k) returns sum(a[k..n]); the codecs repeatedly drain
    half-edge counts, with add(k, -1) or drain_first_at_most, while
    querying residual totals.
    Implemented as a classic prefix Fenwick tree over the reversed index,
    so the suffix orientation is native rather than prefix-minus-prefix.
    """

    def __init__(self, values):
        self._n = len(values)
        tree = [0] * (self._n + 1)
        # O(n) build: seed reversed values, then push partial sums upward.
        for i, v in enumerate(reversed(values)):
            tree[i + 1] += v
        for i in range(1, self._n):
            parent = i + (i & -i)
            if parent <= self._n:
                tree[parent] += tree[i]
        self._tree = tree
        self._top = 1 << (self._n.bit_length() - 1) if self._n else 0

    def __len__(self) -> int:
        return self._n

    def add(self, k: int, c: int) -> None:
        """Add c to a[k]."""
        if not 1 <= k <= self._n:
            raise IndexError(f"index {k} out of range [1, {self._n}]")
        i = self._n - k + 1
        tree = self._tree
        n = self._n
        while i <= n:
            tree[i] += c
            i += i & -i

    def suffix_sum(self, k: int) -> int:
        """Sum of a[k..n]; zero when k > n."""
        if k > self._n:
            return 0
        if k < 1:
            raise IndexError(f"index {k} out of range [1, {self._n}]")
        i = self._n - k + 1
        tree = self._tree
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    def drain_first_at_most(self, s: int) -> tuple:
        """(k, suffix_sum(k)) for the smallest k in [1, n+1] with
        suffix_sum(k) <= s, and a[k-1] lowered by one (no a[0] when k = 1).

        One top-down descent to the largest reversed index whose prefix
        sum, suffix_sum(k), stays <= s.  The nodes it passes without
        moving are exactly the nodes that hold a[k-1], so it drains them
        on the way down instead of walking the tree again (Fenwick 1994).
        Requires every a[k] >= 0; a negative s lands on k = n+1.
        """
        tree = self._tree
        n = self._n
        pos = 0
        left = s
        step = self._top
        while step:
            nxt = pos + step
            if nxt <= n:
                t = tree[nxt]
                if t <= left:
                    pos = nxt
                    left -= t
                else:
                    tree[nxt] = t - 1
            step >>= 1
        return n - pos + 1, s - left

    def total(self) -> int:
        return self.suffix_sum(1)
