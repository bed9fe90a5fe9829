"""Bit-parallel character kernels: edit distance, LCS, Jaro-Winkler.

Each kernel scores a whole batch of string pairs in one loop over left-string
positions in which every pair of a block advances at once: the pairs share
one Python integer per state vector, and a few big-integer operations per
step update all of them.  The strings arrive as UTF-32 code-point arrays of
one integer dtype (from
:meth:`~repro.text.batch.interner.AttributeView.ensure_char_codes`).

Layout.  Pair ``k`` with a right string of length ``m`` owns the bits
``[o_k, o_k + W_k)``, where ``W_k`` is ``m + 1`` rounded up to whole 64-bit
words.  Bit ``o_k + j`` stands for right position ``j``; bit ``o_k + m`` is
the pair's *guard* bit.  The guard stays clear in every state vector, so a
carry out of the top of a segment dies there.  Carries and shifts only move
information upwards, so no segment ever reads a higher one.  The edit/LCS
loop lays pairs out longest-left-first from bit 0: once the shortest active
left string is used up, its pair's state is final, and the loop parks the
high bits and truncates them off, so the active pairs stay a low prefix that
shrinks.  (The Jaro matcher alone needs no freezing: past the end of a left
string its step masks are empty.)

Step ``i`` needs the equality mask of left character ``a_k[i]`` against every
segment.  A per-block ``Peq`` table holds one bitmask per (pair, distinct
character), the pattern-match vectors of Myers, so the step masks are one
word gather at O(n·m/64) cost for the whole block.

The three algorithms:

* edit distance: Hyyrö's formulation of Myers' bit-vector algorithm (G.
  Myers, *A fast bit-vector algorithm for approximate string matching based
  on dynamic programming*, JACM 1999; H. Hyyrö, *A bit-vector algorithm for
  computing Levenshtein and Damerau edit distances*, 2003).  The top row
  ``D[0][i] = i`` enters as a ``+1`` horizontal delta at each segment's low
  bit, and the distance is read from the final vertical deltas:
  ``n + popcount(Pv) - popcount(Mv)``;
* LCS length: the Allison–Dix recurrence (L. Allison and T. I. Dix, *A
  bit-string longest-common-subsequence algorithm*, IPL 1986) in Hyyrö's
  form (*Bit-parallel LCS-length computation revisited*, 2004):
  ``V' = (V + U) | (V - U)`` with ``U = V & Eq``.  ``U`` is a subset of ``V``,
  so the subtraction never borrows; the length is ``m - popcount(V)``;
* Jaro-Winkler: the scalar greedy matcher gives left position ``i`` the
  lowest unmatched right position inside the match window that holds an
  equal character.  The window is a band register that shifts up one bit
  per step, so the candidates are ``Eq & band & unmatched``, and the match is
  the lowest set bit of each segment of ``candidates | guard``.  One
  subtraction of the segments' low bits isolates it for every pair
  (``y & ~(y - low)``), and the guard absorbs the borrow of a segment
  without candidates.  The match positions of each step come back out of the
  recorded step masks for the transposition count.

Every result is an integer until the final Jaro-Winkler expression, which is
evaluated in the scalar code's operation order, so all three kernels are
**bit-identical** to :mod:`repro.text.similarity` by construction.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

#: Pairs packed into one integer: wide enough to amortise the interpreter's
#: per-operation overhead.  Pair indices within a block must fit in int16.
BLOCK_PAIRS = 1024
#: Bound on a block's step tables (left positions x packed words, 8 bytes a
#: word); a call with long strings packs fewer pairs per block, so its peak
#: memory does not grow with string length.
TABLE_WORDS = 1 << 20

_WORD = 64
#: Code points fit in 21 bits, so ``(pair << 21) | code`` keys a Peq row.
_CODE_BITS = 21
#: ``_LOW_BITS[t]`` has the low ``t`` bits set, for ``t`` in ``0..64``.
_LOW_BITS = np.array([(1 << t) - 1 for t in range(_WORD + 1)], dtype=np.uint64)
#: Bit ``t`` in row ``t``: picks ``a[t] == b[t]`` out of step ``t``'s mask.
_DIAGONAL = np.array([[1], [2], [4], [8]], dtype=np.uint64)


def _lengths_of(code_arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.fromiter(map(len, code_arrays), dtype=np.int64, count=len(code_arrays))


def _flat(code_arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate same-dtype code arrays (a byte join beats np.concatenate)."""
    return np.frombuffer(
        b"".join([codes.tobytes() for codes in code_arrays]), dtype=code_arrays[0].dtype
    )


def _to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little")


def _prefix_masks(lengths: np.ndarray, word_base: np.ndarray) -> int:
    """Per segment, the low ``lengths[word]`` bits set, as one integer."""
    return _to_int(_LOW_BITS[np.minimum(np.maximum(lengths - word_base, 0), _WORD)])


def _segment_popcounts(value: int, block: "_Block") -> np.ndarray:
    packed = np.frombuffer(value.to_bytes(block.words * 8, "little"), dtype="<u8")
    return np.add.reduceat(np.bitwise_count(packed).astype(np.int64), block.word_starts)


class _Block:
    """One block of pairs, packed into bit segments.

    ``eq`` holds the per-step equality masks: row ``i``, word ``w`` has the
    right positions of packed word ``w`` that equal its pair's left character
    ``i`` (all zero once that left string has ended).
    """

    def __init__(
        self,
        left_codes: Sequence[np.ndarray],
        right_codes: Sequence[np.ndarray],
        left_len: np.ndarray,
        right_len: np.ndarray,
    ) -> None:
        count = left_len.size
        pairs = np.arange(count)
        self.left_len = left_len
        self.right_len = right_len
        seg_words = right_len // _WORD + 1
        self.word_ends = word_ends = np.cumsum(seg_words)
        self.word_starts = word_starts = word_ends - seg_words
        self.words = words = int(word_ends[-1])
        # Per packed word: its pair, and the right position of its bit 0 in
        # the pair's string and in the block's flat right codes.
        self.word_pair = word_pair = np.repeat(pairs, seg_words)
        word_base = (np.arange(words) - word_starts[word_pair]) * _WORD
        self.word_flat = (np.cumsum(right_len) - right_len)[word_pair] + word_base
        word_right_len = right_len[word_pair]
        self.mask = _prefix_masks(word_right_len, word_base)
        low = np.zeros(words, dtype=np.uint64)
        low[word_starts] = 1
        self.low = _to_int(low)
        # Adding each segment's low bit to its run of m ones carries into bit
        # m and stops there: the guard bits.
        self.guard = self.mask + self.low
        self.steps = steps = int(left_len.max())

        # The Jaro window [max(0, i - w), min(i + w + 1, m)) starts as a
        # prefix and moves up one bit per step; while i < w its bottom stays
        # at 0, so step i re-injects the low bit of each segment with w > i.
        window = np.maximum(np.maximum(left_len, right_len) // 2 - 1, 0)[word_pair]
        self.band = _prefix_masks(np.minimum(window + 1, word_right_len), word_base)
        reach = min(steps, int(window.max()))
        self.inject = (window > np.arange(reach)[:, None]) * low

        # Peq rows: one per (pair, distinct character), each spanning its
        # pair's segment words, plus a zero tail for finished pairs.  Left
        # then right characters share one sort that assigns the rows.
        lengths = np.concatenate((left_len, right_len))
        flat = _flat([*left_codes, *right_codes])
        owner = np.repeat(np.concatenate((pairs, pairs)), lengths)
        position = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        row_keys, rows = np.unique((owner << _CODE_BITS) | flat, return_inverse=True)
        row_words = seg_words[row_keys >> _CODE_BITS]
        row_starts = np.cumsum(row_words) - row_words
        table_words = int(row_words.sum())
        split = int(left_len.sum())
        self.right_flat = flat[split:]
        bits = np.zeros((table_words + int(seg_words.max())) * _WORD, dtype=bool)
        bits[row_starts[rows[split:]] * _WORD + position[split:]] = True
        peq = np.packbits(bits, bitorder="little").view("<u8")

        # Step table: word (i, w) is the Peq word of left character a_k[i]
        # that covers the right positions of packed word w.
        step_row = np.full((steps, count), table_words, dtype=np.int64)
        step_row[position[:split], owner[:split]] = row_starts[rows[:split]]
        index = np.take(step_row, word_pair, axis=1)
        index += word_base >> 6
        self.eq = peq[index]

    def match_positions(self, step_masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(pair, flat right index)`` of every Jaro match, in step order."""
        packed = step_masks.reshape(-1)
        hits = np.flatnonzero(packed)
        word = hits % self.words
        bit = np.bitwise_count(packed[hits] - np.uint64(1)).astype(np.int64)
        return self.word_pair[word], self.word_flat[word] + bit

    def prefix_lengths(self) -> np.ndarray:
        """Common-prefix lengths, capped at 4, as the Winkler boost counts them.

        ``a[t] == b[t]`` exactly when bit ``t`` of the pair's first word is
        set in step ``t``'s mask; gathering those bits as ``d``, the prefix is
        the run of trailing ones, ``popcount(d ^ (d + 1)) - 1``.
        """
        heads = self.eq[:4, self.word_starts] & _DIAGONAL[: min(4, self.steps)]
        diagonal = np.bitwise_or.reduce(heads, axis=0)
        return np.bitwise_count(diagonal ^ (diagonal + np.uint64(1))).astype(np.int64) - 1


def _bytes_of(table: np.ndarray) -> memoryview:
    """A zero-copy byte view of a C-contiguous word table, sliced per step."""
    return memoryview(table.reshape(-1).view(np.uint8))


def _run(block: _Block, dp: bool) -> tuple[int, int, int, np.ndarray]:
    """The step loop: ``(Pv, Mv, V, per-step Jaro match masks as words)``.

    With ``dp`` false only the Jaro matcher runs (``Pv``, ``Mv`` and ``V``
    come back as their initial values).
    """
    rows = _bytes_of(block.eq)
    inject_rows = _bytes_of(block.inject)
    step_masks = np.zeros_like(block.eq)
    step_rows = _bytes_of(step_masks)
    reach = len(block.inject)
    row_bytes = block.words * 8
    mask, low, guard, band = block.mask, block.low, block.guard, block.band
    pv, mv, v, unmatched = mask, 0, mask, mask
    final_pv = final_mv = final_v = 0
    width = block.words
    from_bytes = int.from_bytes
    # Steps past the end of a left string have an all-zero mask, so the Jaro
    # matcher alone needs no truncation; the edit and LCS states do.
    schedule = [width] * block.steps
    if dp:
        # Active packed words per step: the pairs (longest left first) whose
        # left string is longer than i form a prefix, and so do their words.
        active = np.searchsorted(-block.left_len, -np.arange(block.steps), side="left")
        schedule = np.concatenate(([0], block.word_ends))[active].tolist()
    for i, active in enumerate(schedule):
        if active != width:
            # Pairs whose left string ended are final: park, then truncate.
            width = active
            keep = (1 << (active * _WORD)) - 1
            final_pv |= pv & ~keep
            final_mv |= mv & ~keep
            final_v |= v & ~keep
            pv, mv, v, unmatched = pv & keep, mv & keep, v & keep, unmatched & keep
            mask, low, guard, band = mask & keep, low & keep, guard & keep, band & keep
        start = i * row_bytes
        stop = start + active * 8
        eq = from_bytes(rows[start:stop], "little")
        if dp:
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | (~(xh | pv) & mask)
            mh = (pv & xh) << 1
            ph = (ph << 1) | low
            pv = (mh | ~(xv | ph)) & mask
            mv = ph & xv
            u = v & eq
            v = ((v + u) | (v - u)) & mask
        candidates = (eq & band & unmatched) | guard
        lowest = candidates & ~(candidates - low) & mask
        unmatched ^= lowest
        step_rows[start:stop] = lowest.to_bytes(stop - start, "little")
        band <<= 1
        if i < reach:
            band |= from_bytes(inject_rows[start:stop], "little")
        band &= mask
    return final_pv | pv, final_mv | mv, final_v | v, step_masks


def _jaro_winkler(block: _Block, step_masks: np.ndarray, prefix_weight: float) -> np.ndarray:
    """Finish Jaro-Winkler from the matches, in the scalar operation order."""
    count = block.left_len.size
    pair, right_index = block.match_positions(step_masks)
    matches = np.bincount(pair, minlength=count)
    # The k-th matched left character is the right character it matched (in
    # step order); the k-th matched right character is the k-th in position
    # order.  Both sequences group by pair with equal counts.  (A stable sort
    # of int16 keys is a radix sort; block pair indices fit.)
    by_step = np.argsort(pair.astype(np.int16), kind="stable")
    unequal = block.right_flat[right_index[by_step]] != block.right_flat[np.sort(right_index)]
    transpositions = np.bincount(pair[by_step][unequal], minlength=count) // 2

    # matches / len1 + matches / len2 + (matches - t) / matches, then / 3.0;
    # int64 / int64 -> float64 is identical to Python's int / int here.  The
    # denominators are clamped to 1 so that a pair without matches (which
    # an empty side forces) evaluates to exactly 0 / 1 + 0 / 1 + 0 / 1 = 0.0,
    # the scalar score, without a 0/0.
    jaro = (
        matches / np.maximum(block.left_len, 1)
        + matches / np.maximum(block.right_len, 1)
        + (matches - transpositions) / np.maximum(matches, 1)
    ) / 3.0
    # Equal strings match perfectly and score exactly 1.0, like the scalar
    # short-circuit; neither boundary value takes the prefix boost.
    boundary = (jaro == 0.0) | (jaro == 1.0)
    boosted = jaro + block.prefix_lengths() * prefix_weight * (1.0 - jaro)
    return np.where(boundary, jaro, boosted)


def _blocks(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    left_lengths: np.ndarray | None,
    right_lengths: np.ndarray | None,
    ordered: bool,
) -> Iterator[tuple[np.ndarray | slice, _Block]]:
    """Blocks of equal size, longest left first if ``ordered``.

    Yields ``(original_indices, block)``; callers scatter each block's results
    back through ``original_indices``.  The edit and LCS loop needs the order
    (it freezes pairs by truncation); the Jaro matcher alone does not.  A
    block holds :data:`BLOCK_PAIRS` pairs, or fewer when the call's longest
    strings would make its step tables exceed :data:`TABLE_WORDS`.
    """
    if left_lengths is None:
        left_lengths = _lengths_of(left_codes)
    if right_lengths is None:
        right_lengths = _lengths_of(right_codes)
    if not left_lengths.size:
        return
    widest = int(left_lengths.max()) * int(right_lengths.max() // _WORD + 1)
    size = min(BLOCK_PAIRS, max(1, TABLE_WORDS // max(widest, 1)))
    order = np.argsort(-left_lengths, kind="stable") if ordered else None
    for start in range(0, left_lengths.size, size):
        rows: np.ndarray | slice
        if order is None:
            rows = slice(start, start + size)
            left_block, right_block = left_codes[rows], right_codes[rows]
        elif isinstance(left_codes, np.ndarray):
            rows = order[start : start + size]
            left_block, right_block = left_codes[rows], right_codes[rows]
        else:
            rows = order[start : start + size]
            left_block = [left_codes[i] for i in rows]
            right_block = [right_codes[i] for i in rows]
        yield rows, _Block(left_block, right_block, left_lengths[rows], right_lengths[rows])


def batched_char_trio(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    left_lengths: np.ndarray | None = None,
    right_lengths: np.ndarray | None = None,
    prefix_weight: float = 0.1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Levenshtein distances, LCS lengths, Jaro-Winkler scores)`` at once.

    The three metrics share the packing, the Peq table and the step loop, so
    the char-trio kernel fills three metric columns per batch from one pass.
    """
    count = len(left_codes)
    distances = np.empty(count, dtype=np.int64)
    lcs_lengths = np.empty(count, dtype=np.int64)
    jw_scores = np.empty(count, dtype=float)
    for rows, block in _blocks(left_codes, right_codes, left_lengths, right_lengths, True):
        pv, mv, v, step_masks = _run(block, dp=True)
        distances[rows] = (
            block.left_len + _segment_popcounts(pv, block) - _segment_popcounts(mv, block)
        )
        lcs_lengths[rows] = block.right_len - _segment_popcounts(v, block)
        jw_scores[rows] = _jaro_winkler(block, step_masks, prefix_weight)
    return distances, lcs_lengths, jw_scores


def batched_jaro_winkler(
    left_codes: Sequence[np.ndarray],
    right_codes: Sequence[np.ndarray],
    prefix_weight: float = 0.1,
    left_lengths: np.ndarray | None = None,
    right_lengths: np.ndarray | None = None,
) -> np.ndarray:
    """Jaro-Winkler similarities, bit-identical to the scalar function."""
    scores = np.empty(len(left_codes), dtype=float)
    for rows, block in _blocks(left_codes, right_codes, left_lengths, right_lengths, False):
        scores[rows] = _jaro_winkler(block, _run(block, dp=False)[3], prefix_weight)
    return scores
