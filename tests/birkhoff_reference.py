"""The Birkhoff fill with eagerly built spans, as the engine ran it before
partitions derived their spans on first read.

:func:`eager_fill` runs the same greedy as ``athermal.form._fill`` and
builds every set's ``BirkhoffSpan`` tuple in the same pass: object-int
offsets, one stable sort by bin and a split at the bin edges.  The tests
feed it the classes the engine's fill receives and compare the result
with the partition's derived ``sets``.  Nothing here is imported by
``athermal``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Iterable, Sequence

import numpy as np

from athermal.form import BirkhoffSpan


def eager_fill(classes: Iterable[tuple[int, float, int]], targets: Sequence[float], ell: int,
               tolerance: float, grouped: bool, stopped: bool = False) -> SimpleNamespace:
    """The partition's fields, ``sets`` built span by span as the greedy
    hands out each class: (ones, ln w, multiplicity) classes, heaviest
    first; counts in units of 2^e strings."""
    targets = np.array(targets, dtype=float)
    achieved = np.zeros_like(targets)
    heaviest, columns = -math.inf, []
    for t, log_w, mult in classes:
        heaviest, shift = max(heaviest, log_w), max(0, mult.bit_length() - 53)
        log_unit, left = log_w + shift * math.log(2), mult / 2 ** shift
        deficit = targets - achieved
        order = np.argsort(-deficit, kind="stable")
        with np.errstate(divide="ignore", invalid="ignore"):
            quota = np.floor(np.exp(np.log(deficit[order]) - log_unit))
        quota[~(quota >= 1.0)] = 0.0
        units = np.minimum(quota, np.maximum(
            left - np.concatenate(([0.0], np.cumsum(quota)[:-1])), 0.0))
        left -= units.sum()
        if left > 0:
            deficit[order] -= units * math.exp(log_unit)
            short = np.argsort(-deficit, kind="stable")[:np.count_nonzero(deficit > 0)]
            tops = np.minimum(1.0, np.maximum(left - np.arange(len(short)), 0.0))
            deficit[short] -= tops * math.exp(log_unit)
            order = np.concatenate((order, short, [np.argmax(deficit)]))
            units = np.concatenate((units, tops, [max(0.0, left - len(short))]))
        takers, units = order[units > 0], units[units > 0]
        achieved += np.bincount(takers, units * math.exp(log_unit), len(targets))
        # A bin taking two allocations in a row takes one span.
        first = np.flatnonzero(np.concatenate(([True], takers[1:] != takers[:-1])))
        starts = (np.cumsum(units) - units)[first].astype(np.int64).astype(object) << shift
        columns.append((takers[first], np.full(len(first), t), starts,
                        np.append(starts[1:], mult) - starts))

    bins, ones, starts, counts = map(np.concatenate, zip(*columns))
    order = np.argsort(bins, kind="stable")
    spans = list(map(BirkhoffSpan._make, zip(ones[order].tolist(), starts[order].tolist(),
                                             counts[order].tolist())))
    edges = np.cumsum(np.bincount(bins, minlength=len(targets))).tolist()
    deviation = float(np.max(np.abs(achieved - targets)))
    return SimpleNamespace(
        ell=ell, target_weights=tuple(targets.tolist()),
        sets=tuple(tuple(spans[a:b]) for a, b in zip([0] + edges, edges)),
        achieved_weights=tuple(achieved.tolist()), max_deviation=deviation, tolerance=tolerance,
        within_tolerance=bool(max(deviation, math.exp(heaviest)) <= tolerance + 1e-12),
        grouped=grouped, rest=int(np.argmax(targets - achieved)) if stopped else None)
