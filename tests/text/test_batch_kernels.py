"""Batched metric kernels vs scalar metrics: bit-exact parity.

Every registry metric with a batch kernel is compared column-for-column
against its scalar function — the comparison is ``np.array_equal`` on the
float bits, never an approximate one — over a pool of adversarial values
(``None``, empties, whitespace-only, unicode, separators, numeric-looking
strings, strings longer than one 64-bit word) and over hypothesis-drawn
pairs long enough to cross the word boundary.  The bit-parallel char kernels
are additionally pinned against the scalar oracles at every length either
side of the 64- and 128-bit word boundaries, over two- and three-letter
alphabets (dense matches stress the carries, borrows and guard bits) and
unicode, in batches that mix long and short left strings.  The Monge-Elkan
exact-token short-circuit is pinned against a full-scan reference.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.text.batch.chars as chars
from repro.data.schema import Attribute, AttributeType
from repro.features.metric_registry import metrics_for_attribute
from repro.text.batch.chars import batched_char_trio, batched_jaro_winkler
from repro.text.batch.interner import CorpusIndex
from repro.text.similarity import (
    jaro_winkler_similarity,
    lcs_length,
    levenshtein_distance,
    monge_elkan_similarity,
)
from repro.text.tokenize import idf_weights, normalize, tokenize

#: Values chosen to hit every edge branch: missing, empty-after-normalise,
#: single chars, unicode, entity separators, numeric-looking text, repeated
#: tokens, and strings spanning two to four 64-bit words.
ADVERSARIAL = [
    None, "", " ", "  ,  ", "a", "A", "aa", "ab", "ba", "b" * 130, "ab" * 100,
    "léo ève ünïcode", "the the the", "one two three four five",
    "Smith, J, Doe, A", "J Smith", "smith j", "1998", "12.5", "nan", "inf",
    "-3", "0", "a,b,c", ",,,", "x" * 126, "y" * 127, "prefix match", "prefix",
    "AB", "A.B.", "VLDB", "Very Large Data Bases", "mixed 123 tokens",
    "deduplication of bibliographic records", "bibliographic record dedup",
]

ATTRIBUTES = [
    Attribute("text", AttributeType.TEXT),
    Attribute("entity_name", AttributeType.ENTITY_NAME),
    Attribute("entity_set", AttributeType.ENTITY_SET),
    Attribute("numeric", AttributeType.NUMERIC),
    Attribute("categorical", AttributeType.CATEGORICAL),
]

CONTEXT = {"idf": idf_weights(list(ADVERSARIAL))}


def batched_columns(attribute, lefts, rights, context):
    """Score every registry metric of ``attribute`` through its batch kernel."""
    view = CorpusIndex().view(attribute.name, attribute.separator)
    left_ids = view.entry_ids(list(lefts))
    right_ids = view.entry_ids(list(rights))
    dedup = view.pair_dedup(left_ids, right_ids)
    columns = {}
    for spec in metrics_for_attribute(attribute):
        assert spec.batch_function is not None, f"{spec.name} lost its kernel"
        columns[spec.metric] = view.memoized_scores(
            spec.metric, spec.batch_function, dedup, context
        )
    return columns


def assert_parity(attribute, lefts, rights, context):
    columns = batched_columns(attribute, lefts, rights, context)
    for spec in metrics_for_attribute(attribute):
        scalar = np.array(
            [spec.function(left, right, context) for left, right in zip(lefts, rights)]
        )
        assert np.array_equal(columns[spec.metric], scalar), spec.name


@pytest.mark.parametrize("attribute", ATTRIBUTES, ids=lambda a: a.name)
def test_adversarial_cross_product_parity(attribute):
    """Full cross product of the adversarial pool, every metric, bit for bit."""
    lefts, rights = zip(*[(a, b) for a in ADVERSARIAL for b in ADVERSARIAL])
    assert_parity(attribute, lefts, rights, CONTEXT)


text_values = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"),
            whitelist_characters=" ,.-",
        ),
        max_size=150,
    ),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(text_values, text_values), min_size=1, max_size=32))
@pytest.mark.parametrize("attribute", ATTRIBUTES, ids=lambda a: a.name)
def test_property_parity(attribute, pairs):
    """Hypothesis-drawn batches stay bit-identical for every registry metric."""
    lefts, rights = zip(*pairs)
    assert_parity(attribute, lefts, rights, CONTEXT)


def codes_of(string):
    return np.frombuffer(string.encode("utf-32-le"), dtype=np.int32).copy()


#: Lengths either side of the packed kernels' 64-bit word boundaries.
BOUNDARY_LENGTHS = (0, 1, 63, 64, 65, 127, 128, 129, 200)
#: Two- and three-letter alphabets make matches dense (long carry and borrow
#: chains); the unicode one puts code points beyond ASCII and the BMP.
ALPHABETS = ("ab", "abc", "é日ßж😀")


def random_string(rng, alphabet, length):
    return normalize("".join(rng.choice(alphabet) for _ in range(length)))


def assert_char_trio_parity(pairs):
    lefts = [codes_of(a) for a, _ in pairs]
    rights = [codes_of(b) for _, b in pairs]
    distances, lcs_lengths, jw_scores = batched_char_trio(lefts, rights)
    inner_jw = batched_jaro_winkler(lefts, rights)
    for (a, b), lev, lcs, jw, inner in zip(pairs, distances, lcs_lengths, jw_scores, inner_jw):
        assert lev == levenshtein_distance(a, b), (a, b)
        assert lcs == lcs_length(a, b), (a, b)
        assert jw == inner, (a, b)
        if a and b:  # an empty side is the callers' missing-value prelude
            assert jw == jaro_winkler_similarity(a, b), (a, b)


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_char_trio_word_boundary_singles(alphabet):
    """One pair per call, at every boundary length on each side."""
    rng = random.Random(alphabet)
    for length in BOUNDARY_LENGTHS:
        for other in (length, rng.choice(BOUNDARY_LENGTHS)):
            pair = (random_string(rng, alphabet, length), random_string(rng, alphabet, other))
            assert_char_trio_parity([pair])


@pytest.mark.parametrize("alphabet", ALPHABETS)
@pytest.mark.parametrize("batch", [14, 256])
def test_char_trio_word_boundary_batches(alphabet, batch):
    """Mixed boundary lengths in one call, plus one long left among short ones."""
    rng = random.Random(f"{alphabet}/{batch}")
    pairs = [
        (
            random_string(rng, alphabet, rng.choice(BOUNDARY_LENGTHS)),
            random_string(rng, alphabet, rng.choice(BOUNDARY_LENGTHS)),
        )
        for _ in range(batch)
    ]
    assert_char_trio_parity(pairs)
    # Every pair but one freezes after a few steps, by truncation, while the
    # long row keeps running across all of the others' words.
    short = [
        (random_string(rng, alphabet, rng.randint(1, 5)), random_string(rng, alphabet, length))
        for length in rng.choices(BOUNDARY_LENGTHS, k=batch - 1)
    ]
    short.insert(rng.randrange(batch), (random_string(rng, alphabet, 200), random_string(rng, alphabet, 129)))
    assert_char_trio_parity(short)


def test_char_trio_long_strings_split_into_blocks(monkeypatch):
    """A small step-table bound splits a call into many blocks; scores stay exact."""
    rng = random.Random("blocks")
    lengths = rng.choices(BOUNDARY_LENGTHS, k=80)
    pairs = [
        (random_string(rng, "abc", left), random_string(rng, "abc", right))
        for left, right in zip(lengths[::2], lengths[1::2])
    ]
    lefts = [codes_of(a) for a, _ in pairs]
    rights = [codes_of(b) for _, b in pairs]
    whole = batched_char_trio(lefts, rights) + (batched_jaro_winkler(lefts, rights),)
    monkeypatch.setattr(chars, "TABLE_WORDS", 2000)  # two pairs per block
    split = batched_char_trio(lefts, rights) + (batched_jaro_winkler(lefts, rights),)
    for expected, actual in zip(whole, split):
        assert np.array_equal(expected, actual)
    assert_char_trio_parity(pairs)


@pytest.mark.parametrize("length", [4, 6, 9, 64, 65, 130, 200])
def test_jaro_window_edges(length):
    """A lone shared character just inside and just outside the match window.

    With window ``w``, left position ``i`` may match right positions
    ``i - w .. i + w``: the pairs below put the only shared character at each
    edge and one step beyond, on both sides, so the kernel's sliding window
    must open and close on exactly the scalar's steps.
    """
    reach = length // 2 - 1
    pairs = []
    for offset in (reach, reach + 1):
        pairs.append(("x" * offset + "a" + "y" * (length - offset - 1), "a" + "z" * (length - 1)))
        pairs.append(("a" + "y" * (length - 1), "z" * offset + "a" + "x" * (length - offset - 1)))
    assert_char_trio_parity(pairs)
    jw = batched_jaro_winkler([codes_of(a) for a, _ in pairs], [codes_of(b) for _, b in pairs])
    assert jw[0] > 0.0 and jw[1] > 0.0  # on the window's edge: one match
    assert jw[2] == 0.0 and jw[3] == 0.0  # one step outside: none


# --------------------------------------------------- Monge-Elkan short-circuit
def full_scan_monge(left, right):
    """The pre-short-circuit Monge-Elkan: always scans every right token."""
    left_norm, right_norm = normalize(left), normalize(right)
    if not left_norm and not right_norm:
        return 1.0
    if not left_norm or not right_norm:
        return 0.0
    left_tokens, right_tokens = tokenize(left), tokenize(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(
            jaro_winkler_similarity(left_token, right_token)
            for right_token in right_tokens
        )
    return total / len(left_tokens)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(left=text_values, right=text_values)
def test_monge_elkan_short_circuit_regression(left, right):
    """The exact-token short-circuit changes no score by a single bit."""
    assert monge_elkan_similarity(left, right) == full_scan_monge(left, right)


def test_monge_elkan_custom_inner_keeps_full_scan():
    """Custom inners make no max-at-1.0 promise, so identical tokens still scan."""
    calls = []

    def inner(left_token, right_token):
        calls.append((left_token, right_token))
        return 0.25

    score = monge_elkan_similarity("alpha beta", "alpha beta", inner=inner)
    # Every (left, right) token combination was evaluated — no short-circuit —
    # and the score reflects the inner function, not an assumed 1.0.
    assert len(calls) == 4
    assert score == 0.25
