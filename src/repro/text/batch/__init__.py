"""Corpus-interned, numpy-batched similarity kernels.

This package is the batched counterpart of :mod:`repro.text.similarity` /
:mod:`repro.text.difference`: the :class:`CorpusIndex` interns every distinct
attribute value once (normalised form, token ids, n-gram ids, entity ids,
char codes, TF-IDF rows — built lazily per attribute), and the kernels in
:mod:`repro.text.batch.kernels` score whole columns of interned pairs with
vectorised numpy arithmetic, **bit-identical** to the scalar metrics.

:data:`BATCH_KERNELS` maps metric short names to kernels; the metric registry
attaches them to its :class:`~repro.features.metric_registry.MetricSpec`
objects and :class:`~repro.features.vectorizer.PairVectorizer` dispatches
column by column, falling back to the scalar function for metrics without a
kernel (custom metrics).
"""

from .chars import batched_jaro_winkler
from .interner import AttributeView, CorpusIndex, TokenInterner
from .kernels import BATCH_KERNELS, BatchKernel

__all__ = [
    "AttributeView",
    "BATCH_KERNELS",
    "BatchKernel",
    "CorpusIndex",
    "TokenInterner",
    "batched_jaro_winkler",
]
