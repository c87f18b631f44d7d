"""Exact set-associative LRU TLB simulation.

The simulator replays a :class:`~repro.hw.trace.PageTrace` through a
two-level TLB (geometry from :class:`~repro.hw.a64fx.TLBGeometry`) and
counts per-level misses.  Entries are keyed by page base address, so 64 KiB
base pages, 2 MiB hugetlbfs pages, and 512 MiB THP pages share capacity the
way they do in the A64FX's unified DTLB: one entry per page regardless of
size — which is precisely why huge pages slash miss counts.

Replacement is true LRU per set.  Consecutive duplicate accesses are
pre-collapsed by :class:`PageTrace` (always hits under LRU), so the Python
event loop only pays for accesses that can change TLB state.

``PAPI_TLB_DM`` on the A64FX (and in the paper's tables) counts **L1 DTLB
misses**; the full page-walk cost applies only when the L2 TLB also misses.

Two engines implement the same model:

* :class:`TLBSimulator` — the scalar reference oracle: an explicit
  per-access event loop over ``OrderedDict`` LRU sets.  Trivially
  auditable against the hardware description, and the ground truth every
  fast-path result is property-tested against.
* :func:`simulate_two_level` / :func:`lru_miss_mask` — the vectorized
  batch kernel.  LRU is a stack algorithm, so an access hits an
  ``assoc``-way set iff fewer than ``assoc`` distinct pages of that set
  were touched since the previous access to the same page (its *stack
  distance*).  The kernel computes every stack distance offline from the
  previous-occurrence array alone::

      distance[i] = (i - prev[i] - 1) - #{r <= i : prev[r] > prev[i]}

  (each position in ``(prev[i], i)`` whose page recurs by time ``i``
  pairs off with exactly one later position ``r`` whose ``prev[r]``
  lands inside the interval, so subtracting those pairs from the
  interval length leaves the distinct-page count).  The second term is a
  per-element *inversion count* of ``prev``, which
  :func:`_inversion_counts` evaluates with one global argsort plus a
  top-down radix descent of cumulative sums — no per-access Python, no
  per-level sorting.  Multi-set levels with enough parallelism instead
  replay all sets simultaneously, one vectorized LRU round per column
  (:func:`_lru_rounds`).  The L2 level replays only the L1-miss
  substream, exactly as the scalar loop does.  Both engines produce
  bit-identical miss counts (see ``tests/perfmodel/test_fast_path.py``).

Because a stack distance depends only on the access stream and the set
mapping — never on the way count — :func:`run_steady_segments_multi`
replays one trace bundle against *many* geometries in a single pass:
geometries whose L1s share a set count share one distance computation
and differ only in the ``distance >= assoc`` threshold.  Geometry
sweeps (the DTLB sensitivity study) pay for one replay, not one per
point.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.hw.a64fx import TLBGeometry, TLBLevelSpec
from repro.hw.trace import PageTrace


@dataclass
class TLBStats:
    """Miss statistics from one or more simulated traces."""

    accesses: int = 0
    l1_misses: int = 0
    l2_misses: int = 0

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.accesses if self.accesses else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.accesses if self.accesses else 0.0

    def __add__(self, other: "TLBStats") -> "TLBStats":
        return TLBStats(
            self.accesses + other.accesses,
            self.l1_misses + other.l1_misses,
            self.l2_misses + other.l2_misses,
        )

    def scaled(self, factor: float) -> "TLBStats":
        """Extrapolate steady-state counts (e.g. sampled steps -> full run)."""
        return TLBStats(
            int(round(self.accesses * factor)),
            int(round(self.l1_misses * factor)),
            int(round(self.l2_misses * factor)),
        )

    def exposed_walk_cycles(self, geometry: TLBGeometry) -> float:
        """Exposed (non-overlapped) cycles attributable to TLB misses."""
        raw = (
            self.l1_misses * geometry.l1.miss_penalty
            + self.l2_misses * geometry.walk_cycles
        )
        return raw * geometry.exposed_fraction


class _LRUSetArray:
    """One TLB level: ``n_sets`` LRU sets of ``assoc`` entries each."""

    __slots__ = ("assoc", "n_sets", "sets")

    def __init__(self, entries: int, assoc: int) -> None:
        self.assoc = assoc
        self.n_sets = entries // assoc
        self.sets: list[OrderedDict] = [OrderedDict() for _ in range(self.n_sets)]

    def reset(self) -> None:
        for s in self.sets:
            s.clear()


class TLBSimulator:
    """Replays page traces; retains TLB state between calls (warm TLB)."""

    def __init__(self, geometry: TLBGeometry) -> None:
        self.geometry = geometry
        self._l1 = _LRUSetArray(geometry.l1.entries, geometry.l1.assoc)
        self._l2 = _LRUSetArray(geometry.l2.entries, geometry.l2.assoc)
        self.stats = TLBStats()

    def reset(self) -> None:
        """Flush the TLB and zero the statistics (context switch / new run)."""
        self._l1.reset()
        self._l2.reset()
        self.stats = TLBStats()

    def run(self, trace: PageTrace) -> TLBStats:
        """Replay ``trace``; returns stats for *this call* (also accumulated
        on ``self.stats``)."""
        local = TLBStats()
        n = trace.n_events
        if n == 0:
            return local
        pages = trace.page
        # set index uses VPN low bits, as hardware does
        vpn = pages // trace.size
        l1_sets, l1_assoc = self._l1.sets, self._l1.assoc
        l2_sets, l2_assoc = self._l2.sets, self._l2.assoc
        l1_idx = (
            np.zeros(n, dtype=np.intp)
            if self._l1.n_sets == 1
            else (vpn % self._l1.n_sets).astype(np.intp)
        )
        l2_idx = (
            np.zeros(n, dtype=np.intp)
            if self._l2.n_sets == 1
            else (vpn % self._l2.n_sets).astype(np.intp)
        )
        l1_misses = 0
        l2_misses = 0
        page_list = pages.tolist()
        l1_idx_list = l1_idx.tolist()
        l2_idx_list = l2_idx.tolist()
        for page, i1, i2 in zip(page_list, l1_idx_list, l2_idx_list):
            s1 = l1_sets[i1]
            if page in s1:
                s1.move_to_end(page)
                continue
            l1_misses += 1
            s2 = l2_sets[i2]
            if page in s2:
                s2.move_to_end(page)
            else:
                l2_misses += 1
                if len(s2) >= l2_assoc:
                    s2.popitem(last=False)
                s2[page] = True
            if len(s1) >= l1_assoc:
                s1.popitem(last=False)
            s1[page] = True
        local.accesses = trace.n_accesses
        local.l1_misses = l1_misses
        local.l2_misses = l2_misses
        self.stats = self.stats + local
        return local

    def run_steady_state(self, step_trace: PageTrace, warmup: int = 1) -> TLBStats:
        """Replay ``step_trace`` ``warmup + 1`` times and return stats for the
        final (steady-state) repetition only.

        Simulation time steps repeat essentially the same access pattern, so
        per-step miss counts converge after one warmup pass; callers
        extrapolate with :meth:`TLBStats.scaled`.
        """
        for _ in range(warmup):
            self.run(step_trace)
        return self.run(step_trace)


# --- vectorized batch engine ---------------------------------------------------------


#: segments whose distinct-page working set fits this many matrix rows go
#: through the per-page occurrence-count strategy
_MATRIX_MAX_PAGES = 64
#: chunk matrix segments so positions fit int16 counters (mod-2^16 counts
#: detect any in-interval change exactly when intervals are shorter)
_MATRIX_CHUNK = 65535
#: use the set-parallel rounds replay when the longest per-set substream
#: is at least this many times shorter than the whole stream
_ROUNDS_PARALLELISM = 24


def _inversion_counts(a: np.ndarray) -> np.ndarray:
    """Per-element inversion counts: ``out[i] = #{r < i : a[r] > a[i]}``.

    Vectorized top-down mergesort.  One global stable argsort orders the
    (padded) array; a radix descent then re-splits each sorted parent
    block into its two child halves using only cumulative sums, gathers,
    and scatters.  While an element moves back into its right half it
    simultaneously learns how many left-half elements exceed it, and
    summing that over all levels counts every inverted pair exactly once
    (at the level where the pair's positions part ways).  No per-level
    sort, no searchsorted: O(log n) passes of O(n) cheap vector ops.
    """
    n = int(a.size)
    out = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return out
    levels = (n - 1).bit_length()
    size = 1 << levels
    dtype = np.int32 if size < 2**31 else np.int64
    padded = np.empty(size, dtype=dtype)
    padded[:n] = a
    # pads occupy the top index suffix: they can never sit in the *left*
    # half of a block whose right half holds a real element, so the
    # sentinel value is never counted against a real query
    padded[n:] = np.iinfo(dtype).max
    order = np.argsort(padded, kind="stable").astype(dtype)
    slots = np.arange(size, dtype=dtype)
    # pad contributions land in out_full[n:] and are simply discarded
    out_full = np.zeros(size, dtype=np.int64)
    spare = np.empty(size, dtype=dtype)
    # stop the descent at small blocks and count their remaining (intra-
    # block) inversions with one direct broadcast pass: fewer sequential
    # levels, and the tail blocks fit comfortably in cache
    tail = min(levels, 5)
    for level in range(levels, tail, -1):
        half = dtype(1 << (level - 1))
        mask = dtype((1 << level) - 1)
        right = (order & half) != 0
        ex = np.cumsum(right, dtype=dtype)
        ex -= right  # exclusive prefix of right-half membership
        block_start = slots & ~mask
        pref_right = ex - ex[block_start]
        sel = np.flatnonzero(right)
        # count of left-half elements greater than a right-half element ==
        # half minus its tie-stable rank among left elements, where that
        # rank is (position within block) - (right elements before it)
        out_full[order[sel]] += half - (sel & np.int64(mask)) + pref_right[sel]
        new_slot = np.where(right, block_start + half + pref_right,
                            slots - pref_right)
        spare[new_slot] = order
        order, spare = spare, order
    # intra-block finish: order is value-sorted within blocks of 2^tail;
    # an inversion (earlier index, larger value) inside a block is a pair
    # with larger value AND smaller original index.  Pads (value sentinel,
    # index >= n) never have a smaller index than a real element.
    blk = 1 << tail
    vals = padded[order].reshape(-1, blk)
    idxs = order.reshape(-1, blk)
    pair = (vals[:, :, None] > vals[:, None, :]) \
        & (idxs[:, :, None] < idxs[:, None, :])
    out_full[order] += pair.sum(axis=1).ravel()
    out[:] = out_full[:n]
    return out


def _matrix_miss(row: np.ndarray, prev: np.ndarray, need: np.ndarray,
                 seg_lens: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Stack distances for segments with small page working sets.

    ``row`` maps each access to a dense per-segment page id (< matrix row
    budget), ``prev`` to its previous same-entry position (bucket-local,
    ``-1`` when cold), and ``need`` marks the accesses whose distance must
    actually be evaluated.  Per matrix row the cumulative occurrence
    count ``C[q, t]`` makes "page q touched inside ``(prev[i], i)``" a
    single inequality ``C[q, i-1] != C[q, prev[i]]``, so each query's
    distinct-page count is one small column reduction.  Segments are
    chunked so positions fit int16 counters: counts wrap mod 2^16, but a
    within-interval change is still detected exactly because no page can
    recur 65536 times inside an interval shorter than that.

    Returns ``(query_positions, query_distance)`` in bucket-local
    positions — verdicts are thresholds (``distance >= assoc``) at the
    call site, so one evaluation serves any number of associativities.
    """
    bounds = np.concatenate(([0], np.cumsum(seg_lens)))
    chunks = []
    lo_seg = 0
    acc = 0
    for k, ln in enumerate(seg_lens.tolist()):
        if acc and acc + ln > _MATRIX_CHUNK:
            chunks.append((int(bounds[lo_seg]), int(bounds[k])))
            lo_seg, acc = k, 0
        acc += ln
    chunks.append((int(bounds[lo_seg]), int(bounds[-1])))
    qpos_all: list[np.ndarray] = []
    qdist_all: list[np.ndarray] = []
    for lo, hi in chunks:
        q = np.flatnonzero(need[lo:hi])
        if q.size == 0:
            continue
        length = hi - lo
        rows = int(row[lo:hi].max()) + 1
        dtype = np.int16 if length <= _MATRIX_CHUNK else np.int32
        counts = np.zeros((rows, length), dtype=dtype)
        counts[row[lo:hi], np.arange(length)] = 1
        np.cumsum(counts, axis=1, out=counts)
        cols_i = counts[:, q - 1]
        cols_j = counts[:, prev[lo + q] - lo]
        distance = (cols_i != cols_j).sum(axis=0)
        qpos_all.append(lo + q)
        qdist_all.append(distance.astype(np.int64))
    if not qpos_all:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(qpos_all), np.concatenate(qdist_all)


def _lru_rounds(keys: np.ndarray, group: np.ndarray, n_groups: int,
                occ: np.ndarray, assoc: int) -> np.ndarray:
    """Exact LRU miss mask via set-parallel replay.

    ``group`` assigns each access a dense LRU-set id and ``occ`` its
    occurrence index within that set.  All sets advance together, one
    access per set per round, so the Python loop runs ``max(occ) + 1``
    times over small (n_live_sets, assoc) state matrices instead of once
    per access.  ``keys`` must be non-negative entry ids (−1 is the
    empty-way sentinel).
    """
    n = int(keys.size)
    col_order = np.argsort(occ, kind="stable")
    col_starts = np.concatenate((
        [0], np.cumsum(np.bincount(occ, minlength=int(occ.max()) + 1))))
    pg_cols = keys[col_order]
    row_cols = group[col_order]
    ways = np.full((n_groups, assoc), -1, dtype=np.int64)
    lane = np.arange(assoc)
    miss = np.empty(n, dtype=bool)
    for col in range(col_starts.size - 1):
        lo, hi = col_starts[col], col_starts[col + 1]
        rows = row_cols[lo:hi]
        pg = pg_cols[lo:hi]
        w = ways[rows]
        hit = w == pg[:, None]
        is_hit = hit.any(axis=1)
        pos = np.where(is_hit, hit.argmax(axis=1), assoc - 1)
        shifted = np.empty_like(w)
        shifted[:, 1:] = w[:, :-1]
        shifted[:, 0] = pg
        ways[rows] = np.where(lane[None, :] <= pos[:, None], shifted, w)
        miss[col_order[lo:hi]] = ~is_hit
    return miss


def lru_miss_mask(pages: np.ndarray, vpn: np.ndarray, n_sets: int,
                  assoc: int, streams: np.ndarray | None = None) -> np.ndarray:
    """Exact per-access miss mask for one set-associative LRU level.

    ``pages`` are the entry keys (page base addresses), ``vpn`` the
    virtual page numbers whose low bits select the set.  ``streams``
    optionally tags each access with an independent-simulator id: accesses
    from different streams never share TLB state (the batch form of
    running several fresh :class:`TLBSimulator` instances in one call).
    Returns a boolean array (``True`` = miss) bit-identical to replaying
    the stream(s) through an ``OrderedDict``-per-set LRU of ``assoc``
    entries.
    """
    return _lru_core(pages, vpn, n_sets, assoc, streams, steady=False)


def _lru_core(pages: np.ndarray, vpn: np.ndarray, n_sets: int,
              assoc: int | tuple[int, ...],
              streams: np.ndarray | None, steady: bool):
    """Kernel behind :func:`lru_miss_mask`.

    With ``steady=True`` the input is treated as *one period* of a stream
    replayed twice back to back (cold warm-up pass + measure pass), and
    the return value is the pair ``(first_pass_miss, second_pass_miss)``
    — both over single-period positions.  An access whose previous
    occurrence falls inside the same pass spans the identical access
    subsequence in either pass, so its stack distance — and verdict — is
    simply reused; only each entry's *first* measure-pass access (whose
    interval wraps around the period seam) is evaluated anew, via a tiny
    per-segment 2-D dominance count: the entries *not* touched inside the
    wrapped interval ``(last_e, first_e + period)`` are exactly those
    with ``last < last_e`` and ``first > first_e``.

    ``assoc`` may be a *tuple* of associativities (multi-geometry batch
    mode): stack distances do not depend on the associativity, only the
    hit/miss threshold does, so one distance pass serves every
    associativity sharing this set count.  Pruning then uses
    ``min(assoc)`` (conservative for every larger way count) and the
    set-parallel rounds strategy — which computes verdicts, not
    distances — is bypassed in favour of the general inversion-count
    path.  The return value becomes a list, one entry (mask, or
    steady-state mask pair) per requested associativity, each
    bit-identical to a dedicated single-assoc call.
    """
    multi = isinstance(assoc, tuple)
    assocs = assoc if multi else (assoc,)
    amin = min(assocs)
    n = int(pages.size)
    if n == 0:
        empty = np.zeros(0, dtype=bool)

        def _empty():
            return (np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)) \
                if steady else np.zeros(0, dtype=bool)
        if multi:
            return [_empty() for _ in assocs]
        return (empty, empty.copy()) if steady else empty
    if n_sets > 1 or streams is not None:
        # group accesses by (stream, set); stable keeps time order within
        # each set, so the (prev, i) intervals below stay inside one
        # contiguous same-set segment
        sets = (vpn % n_sets) if n_sets > 1 else np.zeros(n, dtype=np.int64)
        if streams is not None:
            sets = sets + streams.astype(np.int64) * n_sets
        if bool((sets[1:] >= sets[:-1]).all()):
            # already grouped (the common batched-call layout: one stream
            # after another) — no permutation needed
            order = None
            p = pages
            s = sets
        else:
            order = np.argsort(sets, kind="stable")
            p = pages[order]
            s = sets[order]
        # sort by (set, page, time) — one combined-key argsort when the
        # keys pack into 62 bits, which they always do for page base
        # addresses; lexsort costs two full sorts
        shift = int(p.max()).bit_length()
        if (int(s[-1]) + 1) << shift <= 2**62:
            o2 = np.argsort((s << shift) | p, kind="stable")
        else:  # pragma: no cover - pathological key widths
            o2 = np.lexsort((p, s))
        same_set = s[o2][1:] == s[o2][:-1]
        new_seg = np.empty(n, dtype=bool)
        new_seg[0] = True
        new_seg[1:] = s[1:] != s[:-1]
        seg_id = np.cumsum(new_seg) - 1
        nseg = int(seg_id[-1]) + 1
    else:
        order = None
        p = pages
        o2 = np.argsort(p, kind="stable")
        same_set = True
        seg_id = np.zeros(n, dtype=np.int64)
        nseg = 1
    # previous occurrence and dense entry id of each (set, page) pair —
    # the same page base can land in different sets when accessed with
    # different page sizes, and the scalar LRU keeps those independent
    ps = p[o2]
    same = np.empty(n, dtype=bool)
    same[0] = False
    same[1:] = (ps[1:] == ps[:-1]) & same_set
    prev = np.empty(n, dtype=np.int64)
    prev[o2] = np.where(same, np.concatenate(([0], o2[:-1])), -1)
    ent = np.empty(n, dtype=np.int64)
    ent[o2] = np.cumsum(~same) - 1
    idx = np.arange(n, dtype=np.int64)

    # Verdict state: single mode keeps a boolean mask (so the rounds
    # strategy can write misses directly); multi mode keeps the raw
    # stack distance, thresholded per associativity at the end.  Cold
    # accesses (prev < 0) miss at any way count: distance sentinel n.
    miss = np.ones(n, dtype=bool)
    dist = np.full(n, n, dtype=np.int64) if multi else None
    warm = prev >= 0
    # fewer than `amin` accesses since the previous occurrence cannot
    # have evicted the entry: guaranteed hit, no evaluation needed (and
    # a fortiori a hit at any larger associativity in the batch)
    need = warm & (idx - prev - 1 >= amin)
    # segment bookkeeping: lengths and per-segment working-set size
    # (entries are numbered in (set, page) order, which visits segments
    # in grouped order)
    seg_lens = np.bincount(seg_id, minlength=nseg)
    u_seg = np.bincount(seg_id[~warm], minlength=nseg)
    if need.any():
        # a working set no larger than the associativity can never evict:
        # every warm access in such a segment is a guaranteed hit (this
        # disposes of most L2 sets outright)
        need &= (u_seg > amin)[seg_id]
    miss[warm & ~need] = False
    if multi:
        dist[warm & ~need] = 0  # true distance < amin <= every assoc
    if need.any():
        row = ent - np.concatenate(([0], np.cumsum(u_seg)[:-1]))[seg_id]

        active = u_seg > amin
        is_matrix = active & (u_seg <= _MATRIX_MAX_PAGES)
        is_rest = active & ~is_matrix
        rest = np.flatnonzero(is_rest)
        # the rounds replay produces verdicts for one way count only, so
        # batch mode always takes the distance-producing general path
        use_rounds = (not multi and rest.size > 1
                      and int(seg_lens[rest].max()) * _ROUNDS_PARALLELISM
                      <= int(seg_lens[rest].sum()))

        for strategy, seg_sel in (("matrix", is_matrix),
                                  ("rest", is_rest)):
            bucket = seg_sel[seg_id]
            if strategy == "rest" and rest.size == 0:
                continue
            if not (need & bucket).any():
                continue
            sel = np.flatnonzero(bucket)
            loc = np.empty(n, dtype=np.int64)
            loc[sel] = np.arange(sel.size)
            prev_b = prev[sel]
            prev_loc = np.where(prev_b >= 0, loc[prev_b], -1)
            if strategy == "matrix":
                qpos, qdist = _matrix_miss(row[sel], prev_loc, need[sel],
                                           seg_lens[seg_sel])
                if multi:
                    dist[sel[qpos]] = qdist
                else:
                    miss[sel[qpos]] = qdist >= amin
            elif use_rounds:
                lens = seg_lens[seg_sel]
                starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
                group = np.repeat(np.arange(lens.size), lens)
                occ = np.arange(sel.size) - np.repeat(starts, lens)
                miss[sel] = _lru_rounds(ent[sel], group, lens.size, occ,
                                        amin)
            else:
                # general case: stack distance from the prev array alone.
                # Of the i - prev[i] - 1 positions between an access and
                # its previous occurrence, those whose page recurs by
                # time i pair off 1:1 with the positions r <= i whose own
                # prev[r] lands inside the interval; the remainder are
                # distinct pages ahead in the LRU stack.  Cold accesses
                # neither query nor ever satisfy prev[r] > prev[i], so
                # the inversion count runs on the warm subsequence only.
                warm_b = np.flatnonzero(prev_loc >= 0)
                inv = _inversion_counts(prev_loc[warm_b])
                distance = warm_b - prev_loc[warm_b] - 1 - inv
                if multi:
                    dist[sel[warm_b]] = distance
                else:
                    miss[sel[warm_b]] = distance >= amin

    def _scatter(m):
        if order is None:
            return m
        out = np.empty(n, dtype=bool)
        out[order] = m
        return out

    if not steady:
        if multi:
            return [_scatter(dist >= a) for a in assocs]
        return _scatter(miss)
    # second-pass mask: reuse every in-pass verdict; re-evaluate each
    # entry's seam-wrapping first access from per-entry (first, last)
    # occurrence positions.  Entry groups are contiguous in o2 with time
    # order preserved, so group boundaries give first/last directly.
    starts = np.flatnonzero(~same)
    first_e = o2[starts]
    last_e = o2[np.concatenate((starts[1:], [n])) - 1]
    seg_e = seg_id[first_e]
    # order entries by (segment, last); with a per-segment ascending
    # offset on the values, cross-segment pairs are never inverted and
    # one inversion count yields the dominance count per entry
    eorder = np.argsort(seg_e * n + last_e)
    dom = _inversion_counts(seg_e[eorder] * np.int64(n) + first_e[eorder])
    # distinct other entries touched inside the wrapped interval — a
    # stack distance too, so it also thresholds per associativity
    wrapped_dist = u_seg[seg_e[eorder]] - 1 - dom
    if multi:
        results = []
        for a in assocs:
            m1 = dist >= a
            m2 = m1.copy()
            m2[first_e[eorder]] = wrapped_dist >= a
            results.append((_scatter(m1), _scatter(m2)))
        return results
    miss2 = miss.copy()
    miss2[first_e[eorder]] = wrapped_dist >= amin
    return _scatter(miss), _scatter(miss2)


def simulate_two_level(
        pages: np.ndarray, sizes: np.ndarray, geometry: TLBGeometry,
        streams: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Batch-simulate the two-level TLB over one access stream.

    Returns ``(l1_miss, l2_miss)`` boolean masks over the stream.  The L2
    level sees only the L1-miss substream — probed (and updated) exactly
    when the scalar loop would, so the masks match :class:`TLBSimulator`
    access for access.
    """
    pages = np.asarray(pages, dtype=np.int64)
    vpn = pages // np.asarray(sizes, dtype=np.int64)
    l1_miss = lru_miss_mask(pages, vpn, geometry.l1.n_sets, geometry.l1.assoc,
                            streams)
    l2_miss = np.zeros(pages.size, dtype=bool)
    pos = np.flatnonzero(l1_miss)
    if pos.size:
        l2_miss[pos] = lru_miss_mask(
            pages[pos], vpn[pos], geometry.l2.n_sets, geometry.l2.assoc,
            None if streams is None else streams[pos])
    return l1_miss, l2_miss


def run_segments(geometry: TLBGeometry, traces: list[PageTrace],
                 streams: list[int] | None = None) -> list[TLBStats]:
    """Replay ``traces`` back to back through one (initially cold) TLB and
    return per-trace stats — the batch equivalent of consecutive
    :meth:`TLBSimulator.run` calls on a shared simulator.

    Warm-up passes are expressed by listing a trace more than once and
    reading only the later segment's stats.  ``streams`` optionally gives
    each trace a simulator id; traces with different ids replay through
    independent (fresh) TLBs, still in one batch call.
    """
    if not traces:
        return []
    lengths = np.array([t.n_events for t in traces], dtype=np.int64)
    if int(lengths.sum()) == 0:
        return [TLBStats() for _ in traces]
    pages = np.concatenate([t.page for t in traces])
    sizes = np.concatenate([t.size for t in traces])
    seg = np.repeat(np.arange(lengths.size), lengths)
    stream_arr = None
    if streams is not None:
        stream_arr = np.repeat(np.asarray(streams, dtype=np.int64), lengths)
    # NOTE: no seam re-deduplication — a repeat across a segment boundary
    # is a real (always-hitting) access in the scalar replay too
    l1_miss, l2_miss = simulate_two_level(pages, sizes, geometry, stream_arr)
    l1_counts = np.bincount(seg[l1_miss], minlength=lengths.size)
    l2_counts = np.bincount(seg[l2_miss], minlength=lengths.size)
    return [TLBStats(accesses=t.n_accesses,
                     l1_misses=int(l1_counts[i]),
                     l2_misses=int(l2_counts[i]))
            for i, t in enumerate(traces)]


def _concat_segments(traces: list[PageTrace], streams: list[int] | None):
    """The traces' events back to back: pages, VPNs, each event's
    segment (trace) index, and its stream id (None without ``streams``)."""
    lengths = np.array([t.n_events for t in traces], dtype=np.int64)
    pages = np.concatenate([t.page for t in traces])
    sizes = np.concatenate([t.size for t in traces])
    seg = np.repeat(np.arange(lengths.size), lengths)
    stream_arr = None
    if streams is not None:
        stream_arr = np.repeat(np.asarray(streams, dtype=np.int64), lengths)
    return pages, pages // np.asarray(sizes, dtype=np.int64), seg, stream_arr


def _steady_stats(traces: list[PageTrace], pages, vpn, seg, stream_arr,
                  l1_masks: tuple[np.ndarray, np.ndarray],
                  l2: TLBLevelSpec) -> list[TLBStats]:
    """Measure-pass per-trace stats from one L1's (warm-up, measure)
    miss masks.  The L2 replays the L1-miss substreams of both passes
    back to back, since the warm-up pass's misses warm the L2 just as
    they do in the scalar replay."""
    m1, m2 = l1_masks
    p1 = np.flatnonzero(m1)
    p2 = np.flatnonzero(m2)
    pos = np.concatenate((p1, p2))
    l2_miss = lru_miss_mask(pages[pos], vpn[pos], l2.n_sets, l2.assoc,
                            None if stream_arr is None else stream_arr[pos])
    l2_second = l2_miss[p1.size:]
    l1_counts = np.bincount(seg[p2], minlength=len(traces))
    l2_counts = np.bincount(seg[p2[l2_second]], minlength=len(traces))
    return [TLBStats(accesses=t.n_accesses,
                     l1_misses=int(l1_counts[i]),
                     l2_misses=int(l2_counts[i]))
            for i, t in enumerate(traces)]


def run_steady_segments(geometry: TLBGeometry, traces: list[PageTrace],
                        streams: list[int] | None = None) -> list[TLBStats]:
    """Steady-state per-trace stats, processing each period only once.

    Equivalent to replaying every stream's whole trace sequence *twice*
    through an initially cold TLB — one warm-up pass, one measure pass,
    exactly :meth:`TLBSimulator.run_steady_state` with ``warmup=1`` —
    and reporting the measure pass, but the L1 kernel runs on a single
    copy of the events (see :func:`_lru_core`).
    """
    if not any(t.n_events for t in traces):
        return [TLBStats(accesses=t.n_accesses) for t in traces]
    pages, vpn, seg, stream_arr = _concat_segments(traces, streams)
    g1 = geometry.l1
    masks = _lru_core(pages, vpn, g1.n_sets, g1.assoc, stream_arr,
                      steady=True)
    return _steady_stats(traces, pages, vpn, seg, stream_arr, masks,
                         geometry.l2)


def run_steady_segments_multi(
        geometries: list[TLBGeometry], traces: list[PageTrace],
        streams: list[int] | None = None) -> list[list[TLBStats]]:
    """Steady-state per-trace stats for *many* TLB geometries in one pass.

    Bit-identical to ``[run_steady_segments(g, traces, streams) for g in
    geometries]`` but far cheaper: the trace concatenation and VPN math
    happen once, and the expensive L1 stack-distance pass is shared by
    every geometry whose L1 has the same set count — distances are
    associativity-independent, so each geometry's verdict is just a
    threshold (see :func:`_lru_core`).  The A64FX L1 DTLB is fully
    associative (one set), so entry-count sweeps all collapse into a
    single pass.  Each distinct L1 then replays its own (much smaller)
    L1-miss substream through each distinct L2; geometries that share
    both levels share the whole result.

    Returns one per-trace stats list per geometry, in geometry order.
    """
    geometries = list(geometries)
    if not any(t.n_events for t in traces):
        return [[TLBStats(accesses=t.n_accesses) for t in traces]
                for _ in geometries]
    pages, vpn, seg, stream_arr = _concat_segments(traces, streams)

    # one shared L1 pass per distinct set count; the distinct
    # associativities within a group are thresholds over its distances
    by_sets: dict[int, set[int]] = {}
    for g in geometries:
        by_sets.setdefault(g.l1.n_sets, set()).add(g.l1.assoc)
    l1_masks: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for n_sets, assoc_set in by_sets.items():
        assocs = tuple(sorted(assoc_set))
        pairs = _lru_core(pages, vpn, n_sets, assocs, stream_arr,
                          steady=True)
        for a, pair in zip(assocs, pairs):
            l1_masks[(n_sets, a)] = pair

    out: list[list[TLBStats]] = []
    shared: dict[tuple, list[TLBStats]] = {}
    for g in geometries:
        l1key = (g.l1.n_sets, g.l1.assoc)
        key = (l1key, (g.l2.n_sets, g.l2.assoc))
        cached = shared.get(key)
        if cached is not None:
            out.append([TLBStats(s.accesses, s.l1_misses, s.l2_misses)
                        for s in cached])
            continue
        stats = _steady_stats(traces, pages, vpn, seg, stream_arr,
                              l1_masks[l1key], g.l2)
        shared[key] = stats
        out.append(stats)
    return out


__all__ = ["TLBSimulator", "TLBStats", "lru_miss_mask", "simulate_two_level",
           "run_segments", "run_steady_segments", "run_steady_segments_multi"]
