"""Reuse-distance (LRU stack-distance) analysis.

Mattson's classic result: under LRU, an access hits in a cache of size *C*
iff its *stack distance* — the number of distinct pages touched since the
previous access to the same page — is < *C*.  Computing the distance
histogram **once** therefore yields the exact miss count for **every**
local-memory budget, which turns the paper's far-memory-ratio sweeps
(Fig 15's SLO curves, the console's minimum-hot-size estimate) into O(1)
lookups instead of re-simulation.

The kernel is an offline divide-and-conquer over numpy arrays.  With
``prev[t]`` the previous access to ``pages[t]``, the distance of a warm
access is::

    distance(t) = (t - prev[t] - 1) - #{warm j < t : prev[j] > prev[t]}

because an access ``j`` inside the window ``(prev[t], t)`` repeats a page
already counted iff its own previous access also lies inside the window —
and ``prev[j] > prev[t]`` alone implies that (``j <= prev[t]`` would force
``prev[j] < prev[t]``).  The correction term is a left-inversion count
over the (distinct) ``prev`` values of warm accesses, computed
level-by-level like a mergesort: tiny levels by direct broadcast
comparison, larger levels by sorting packed ``value * 2^K + time`` keys in
row blocks and counting with cumulative sums — O(n log² n) element work,
but every level is a handful of full array passes.  Measured ~2.6 M
accesses/s at 1 M uniform-random accesses on the reference container
(~0.39 s), ~12× the classic per-access Fenwick-tree loop that
``tests/oracles.py`` keeps as the independent reference the equivalence
tests compare against.  The packed keys hold at most ``2**31 - 1``
accesses; a longer trace raises :class:`~repro.errors.TraceError`.

:func:`reuse_histogram` feeds :class:`MissRatioCurve` without ever
materializing the full per-access distance array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError

__all__ = ["reuse_distances", "reuse_histogram", "MissRatioCurve", "KERNEL_VERSION"]

#: Sentinel distance for cold (first-touch) accesses.
COLD = np.iinfo(np.int64).max

#: Bumped whenever kernel output could change; part of MRC cache keys.
KERNEL_VERSION = 2

#: Longest trace the kernel accepts: its packed ``value << K | time`` sort
#: keys overflow int64 at 2**31 accesses (16 GiB of int64 page ids).
_MAX_ACCESSES = 2**31 - 1

#: Merge levels 0..3 use direct broadcast compares; sorting machinery only
#: pays off once rows are at least 2 * 2**_DIRECT_LEVELS wide.
_DIRECT_LEVELS = 4


def _validated(pages: np.ndarray) -> np.ndarray:
    pages = np.asarray(pages)
    if pages.ndim != 1:
        raise TraceError(f"pages must be 1-D, got shape {pages.shape}")
    if pages.shape[0] and not np.issubdtype(pages.dtype, np.integer):
        raise TraceError(f"pages must be integers, got dtype {pages.dtype}")
    return pages


def reuse_distances(pages: np.ndarray) -> np.ndarray:
    """Exact LRU stack distance of every access in ``pages``.

    Parameters
    ----------
    pages:
        1-D integer array of page identifiers in access order.

    Returns
    -------
    numpy.ndarray
        int64 array of the same length; ``COLD`` marks first touches.
    """
    return _reuse_distances_vector(_validated(pages))


def reuse_histogram(pages: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Distance histogram of ``pages`` without the per-access array.

    Returns ``(hist, cold_misses, n_accesses)`` where ``hist[d]`` counts
    warm accesses with stack distance exactly ``d`` (``hist`` has at least
    one bin).  Bit-identical to binning :func:`reuse_distances` output.
    """
    pages = _validated(pages)
    n = pages.shape[0]
    warm = _warm_distances_vector(pages)
    hist = np.bincount(warm) if warm.size else np.zeros(1, dtype=np.int64)
    return hist, n - int(warm.size), n


# -- vectorized kernel -------------------------------------------------------

def _checked_length(pages: np.ndarray) -> int:
    n = pages.shape[0]
    if n > _MAX_ACCESSES:
        raise TraceError(
            f"trace of {n} accesses exceeds the reuse kernel's "
            f"{_MAX_ACCESSES}-access limit"
        )
    return n


def _prev_occurrence(pages: np.ndarray, n: int,
                     nxt: np.ndarray | None = None) -> np.ndarray:
    """prev[t] = index of the previous access to pages[t], or -1.

    With ``nxt`` (``n`` int64 slots, pre-filled by the caller) the same
    pass also writes nxt[t] = index of the next access to pages[t],
    leaving the slots of last accesses untouched.
    """
    lo = int(pages.min())
    hi = int(pages.max())
    prev = np.full(n, -1, dtype=np.int64)
    if lo >= 0 and hi + 1 <= (2**63 - 1) // n:
        # composite sort groups each page's accesses in time order; the
        # keys are built and decoded in place
        grp = pages.astype(np.int64)
        grp *= n
        grp += np.arange(n, dtype=np.int64)
        grp.sort()
        order = grp % n
        grp //= n
    else:
        # huge or negative ids: fall back to a stable argsort
        order = np.argsort(pages, kind="stable")
        grp = pages[order]
    same = grp[1:] == grp[:-1]
    del grp
    src = order[:-1][same]
    dst = order[1:][same]
    prev[dst] = src
    if nxt is not None:
        nxt[src] = dst
    return prev


def _left_inversions(s: np.ndarray, n: int) -> np.ndarray:
    """inv[i] = #{k < i : s[k] > s[i]} for distinct ints ``s`` in [0, n).

    Level-wise merge counting.  Values are padded to a power-of-two length
    with sentinels that can never outrank a real element (-1 for the
    compare levels, a top-tier packed key for the sorted levels), so pad
    "contributions" land harmlessly in the padded tail of the accumulator.
    """
    w = s.shape[0]
    if w < 2:
        return np.zeros(w, dtype=np.int64)
    K = int(w - 1).bit_length()
    W = 1 << K
    invW = np.zeros(W, dtype=np.int64)

    vp = np.full(W, -1, dtype=np.int64)
    vp[:w] = s
    top = min(K, _DIRECT_LEVELS)
    if K >= 1:
        rows = -(-w // 2)  # process only rows containing real elements
        B = vp[: 2 * rows].reshape(-1, 2)
        invW[: 2 * rows].reshape(-1, 2)[:, 1] += B[:, 0] > B[:, 1]
    if K >= 2 and top >= 2:
        rows = -(-w // 4)
        B = vp[: 4 * rows].reshape(-1, 4)
        R = invW[: 4 * rows].reshape(-1, 4)
        rgt = B[:, 2:4]
        R[:, 2:4] += B[:, 0:1] > rgt
        R[:, 2:4] += B[:, 1:2] > rgt
    for k in range(2, top):
        m = 1 << k
        rows = -(-w // (2 * m))
        B = vp[: 2 * m * rows].reshape(-1, 2 * m)
        R = invW[: 2 * m * rows].reshape(-1, 2 * m)
        R[:, m:] += (B[:, :m, None] > B[:, None, m:]).sum(axis=1)

    if K > top:
        # pack value << K | time; pads (value n) sort last in every block
        comp = np.empty(W, dtype=np.int64)
        t = np.arange(W, dtype=np.int64)
        comp[:w] = (s << K) | t[:w]
        comp[w:] = (np.int64(n) << K) | t[w:]
        tmask = np.int64(W - 1)
        k = top
        while k + 1 < K:
            # 4-way merge: one sort covers binary levels k and k+1
            m = 1 << k
            rows = -(-w // (4 * m))
            srt = np.sort(comp[: 4 * m * rows].reshape(-1, 4 * m), axis=1)
            tt = srt & tmask
            q = (tt >> k) & 3
            c0 = np.cumsum(q == 0, axis=1, dtype=np.int32)
            c01 = np.cumsum(q <= 1, axis=1, dtype=np.int32)
            c2 = np.cumsum(q == 2, axis=1, dtype=np.int32)
            contrib = (
                (q == 1) * (m - c0)
                + (q >= 2) * (2 * m - c01)
                + (q == 3) * (m - c2)
            )
            invW[tt.ravel()] += contrib.ravel()
            k += 2
        if k < K:  # leftover binary level
            m = 1 << k
            rows = -(-w // (2 * m))
            srt = np.sort(comp[: 2 * m * rows].reshape(-1, 2 * m), axis=1)
            tt = srt & tmask
            is_left = ((tt >> k) & 1) == 0
            cl = np.cumsum(is_left, axis=1, dtype=np.int32)
            contrib = np.where(is_left, 0, m - cl)
            invW[tt.ravel()] += contrib.ravel()
    return invW[:w]


def _warm_distances_vector(pages: np.ndarray) -> np.ndarray:
    """Distances of warm accesses only, in access order (no COLD entries)."""
    n = _checked_length(pages)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    prev = _prev_occurrence(pages, n)
    warm = np.flatnonzero(prev >= 0)
    if warm.size == 0:
        return np.empty(0, dtype=np.int64)
    s = prev[warm]
    return (warm - s - 1) - _left_inversions(s, n)


def _reuse_distances_vector(pages: np.ndarray) -> np.ndarray:
    n = _checked_length(pages)
    out = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return out
    prev = _prev_occurrence(pages, n)
    warm = np.flatnonzero(prev >= 0)
    if warm.size:
        s = prev[warm]
        out[warm] = (warm - s - 1) - _left_inversions(s, n)
    return out


class MissRatioCurve:
    """Miss counts/ratios for every cache size, from one distance pass.

    Built from a page-id trace (or a precomputed distance array).  All
    queries are O(1) after construction.
    """

    def __init__(self, pages: np.ndarray | None = None, distances: np.ndarray | None = None) -> None:
        if (pages is None) == (distances is None):
            raise TraceError("provide exactly one of pages= or distances=")
        if distances is None:
            hist, cold, n = reuse_histogram(pages)
            self._init_from_histogram(hist, cold, n)
            return
        distances = np.asarray(distances, dtype=np.int64)
        n = int(distances.shape[0])
        warm = distances[distances != COLD]
        hist = np.bincount(warm) if warm.size else np.zeros(1, dtype=np.int64)
        self._init_from_histogram(hist, n - int(warm.size), n)

    def _init_from_histogram(self, hist: np.ndarray, cold_misses: int, n_accesses: int) -> None:
        self.n_accesses = int(n_accesses)
        self.cold_misses = int(cold_misses)
        self.n_pages = self.cold_misses  # each cold miss is a distinct page
        # histogram of finite distances; hist[d] = number of accesses with
        # stack distance exactly d. Cumulative sum gives hits(C).
        hist = np.asarray(hist, dtype=np.int64)
        self._hist = hist if hist.size else np.zeros(1, dtype=np.int64)
        self._cum_hits = np.cumsum(self._hist)  # hits for C = d+1

    @classmethod
    def from_histogram(cls, hist: np.ndarray, cold_misses: int, n_accesses: int) -> "MissRatioCurve":
        """Rebuild a curve from :func:`reuse_histogram` output (cache loads)."""
        self = cls.__new__(cls)
        self._init_from_histogram(hist, cold_misses, n_accesses)
        return self

    @property
    def histogram(self) -> np.ndarray:
        """The warm-distance histogram (``histogram[d]`` accesses at distance d)."""
        return self._hist

    def hits(self, cache_pages: int) -> int:
        """Accesses that hit in an LRU cache of ``cache_pages`` pages."""
        if cache_pages < 0:
            raise ValueError(f"cache_pages must be >= 0, got {cache_pages}")
        if cache_pages == 0:
            return 0
        idx = min(cache_pages - 1, len(self._cum_hits) - 1)
        return int(self._cum_hits[idx])

    def misses(self, cache_pages: int) -> int:
        """Accesses that miss (cold + capacity) at ``cache_pages``."""
        return self.n_accesses - self.hits(cache_pages)

    # -- one-pass capacity sweeps (Mattson) -------------------------------
    def hits_at(self, cache_pages: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hits` over an array of capacities.

        One reuse pass prices **every** local-memory budget, so a
        far-memory-ratio sweep is a single fancy-index instead of one
        replay per ratio.
        """
        caps = np.asarray(cache_pages, dtype=np.int64)
        if caps.size and int(caps.min()) < 0:
            raise ValueError("cache_pages must all be >= 0")
        idx = np.minimum(caps - 1, len(self._cum_hits) - 1)
        out = self._cum_hits[np.maximum(idx, 0)]
        return np.where(caps > 0, out, 0)

    def misses_at(self, cache_pages: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`misses` over an array of capacities."""
        return self.n_accesses - self.hits_at(cache_pages)

    def capacity_misses(self, cache_pages: int) -> int:
        """Misses excluding compulsory (first-touch) ones."""
        return self.misses(cache_pages) - self.cold_misses

    def miss_ratio(self, cache_pages: int) -> float:
        """Miss fraction at ``cache_pages`` (0.0 for an empty trace)."""
        if self.n_accesses == 0:
            return 0.0
        return self.misses(cache_pages) / self.n_accesses

    def working_set_size(self, target_hit_ratio: float = 0.9) -> int:
        """Smallest cache (pages) achieving ``target_hit_ratio`` of the
        *achievable* hits (cold misses are unavoidable).

        This is the console's "minimum ratio of hot data" estimator
        (Section IV-B1, third paragraph).
        """
        if not 0.0 <= target_hit_ratio <= 1.0:
            raise ValueError(f"target_hit_ratio must be in [0,1], got {target_hit_ratio}")
        max_hits = int(self._cum_hits[-1]) if len(self._cum_hits) else 0
        if max_hits == 0:
            return 0
        target = target_hit_ratio * max_hits
        idx = int(np.searchsorted(self._cum_hits, target, side="left"))
        return idx + 1  # cache size = distance index + 1

    def min_local_pages_for_max_misses(self, max_misses: int) -> int:
        """Smallest cache size keeping miss count <= ``max_misses``.

        Returns ``n_pages`` (everything resident) when even that cannot
        help (cold misses alone exceed the budget).
        """
        if max_misses < 0:
            raise ValueError(f"max_misses must be >= 0, got {max_misses}")
        needed_hits = self.n_accesses - max_misses
        if needed_hits <= 0:
            return 0
        max_hits = int(self._cum_hits[-1]) if len(self._cum_hits) else 0
        if needed_hits > max_hits:
            return self.n_pages
        idx = int(np.searchsorted(self._cum_hits, needed_hits, side="left"))
        return idx + 1
