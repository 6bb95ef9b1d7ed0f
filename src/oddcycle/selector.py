"""Complement selection over pairs of disjoint sets.

Given q pairs (A_i, B_i) of disjoint subsets of [n], pick one side per pair
so that the complement L of the union meets at most one side of every pair.
A uniformly random choice leaves sum_x 2^(-d(x)) >= n * 2^(-d) survivors in
expectation, where d(x) counts the pairs containing x and d is its average;
the derandomized mode walks the pairs choosing the side that maximizes the
conditional expectation, so it always achieves ceil(n * 2^(-d)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .colouring import _MAX_N, _seeded, _shown
from .errors import InputError, InternalInconsistency, RetryExhausted
from .graph import _integer_ids, _scalar_id


class SelectorInstance:
    """Ground set [n] plus q pairs of disjoint subsets."""

    def __init__(self, n, pairs):
        n = _scalar_id(n, "ground-set size must be an integer")
        if n < 0:
            raise InputError("ground-set size must be >= 0")
        if n > _MAX_N:
            raise InputError(f"ground-set size {_shown(n)} exceeds the vertex limit of {_MAX_N}")
        self.n = n
        norm = []
        for i, (a, b) in enumerate(pairs):
            a, b = (np.unique(_integer_ids(side, f"pair {i} must hold integer ids"))
                    for side in (a, b))
            for side in (a, b):
                if side.size and (side.min() < 0 or side.max() >= n):
                    raise InputError(f"pair {i} leaves the ground set [0, {n})")
            if np.intersect1d(a, b).size:
                raise InputError(f"pair {i} sides are not disjoint")
            norm.append((a, b))
        self.pairs = tuple(norm)

    @property
    def q(self):
        return len(self.pairs)

    def degrees(self):
        """d(x): the number of pairs whose union contains x."""
        d = np.zeros(self.n, dtype=np.int64)
        for a, b in self.pairs:
            d[a] += 1
            d[b] += 1
        return d

    def degree_sum(self):
        return int(self.degrees().sum())

    def mean_degree(self):
        return self.degree_sum() / self.n if self.n else 0.0

    def survivor_target(self):
        """ceil(n * 2^(-d)) computed exactly."""
        return ceil_expected_survivors(self.n, self.degree_sum())


def ceil_expected_survivors(n, degree_sum):
    """Smallest integer m with m >= n * 2^(-degree_sum/n), in exact integer
    arithmetic (m^n * 2^p >= n^n)."""
    n = _scalar_id(n, "ground-set size must be an integer")
    degree_sum = _scalar_id(degree_sum, "degree sum must be an integer")
    if n <= 0:
        return 0
    if degree_sum <= 0:
        return n
    m = max(1, int(math.floor(n * 2.0 ** (-degree_sum / n))) - 1)
    target = n**n
    while m**n << degree_sum < target:
        m += 1
    return m


@dataclass(frozen=True)
class SelectorResult:
    """Per-pair side choices (0 or 1), their union, and the surviving set."""

    choices: tuple
    chosen_union: np.ndarray
    survivors: np.ndarray


def _assemble(inst, choices):
    union = np.zeros(inst.n, dtype=bool)
    for (a, b), c in zip(inst.pairs, choices):
        union[a if c == 0 else b] = True
    return SelectorResult(
        choices=tuple(int(c) for c in choices),
        chosen_union=np.flatnonzero(union),
        survivors=np.flatnonzero(~union),
    )


def select_complement(inst, mode="derandomized", *, seed=None, max_tries=50, target=None):
    """Choose sides per pair and return the surviving complement.

    derandomized: conditional-expectation walk, |survivors| >= ceil(n*2^(-d))
    guaranteed. randomized: seeded uniform choices, retried up to
    ``max_tries`` until |survivors| >= target (default ceil(n*2^(-d)));
    raises RetryExhausted when no try reaches it. Both modes check
    ``seed``, ``max_tries`` and ``target`` alike; only randomized reads them.
    """
    if mode not in ("derandomized", "randomized"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "randomized" and seed is None:
        raise InputError("randomized mode needs a seed")
    rng = None if seed is None else _seeded(seed)[0]
    max_tries = _scalar_id(max_tries, "max_tries must be an integer")
    if max_tries < 1:
        raise InputError(f"max_tries must be >= 1, got {_shown(max_tries)}")
    if target is not None:
        target = _scalar_id(target, "target must be an integer")
    if mode == "derandomized":
        return _derandomized(inst)
    return _randomized(inst, rng, max_tries, inst.survivor_target() if target is None else target)


def _derandomized(inst):
    q = inst.q
    # Python int weights scaled by 2^q: x with r pairs still ahead carries
    # 2^(q-r), the exact conditional survival probability times 2^q, and a
    # dead x carries 0.
    weight = [1 << (q - r) for r in inst.degrees().tolist()]
    total = sum(weight)
    choices = []
    for a_side, b_side in inst.pairs:
        a_side, b_side = a_side.tolist(), b_side.tolist()
        loss_a = sum(weight[x] for x in a_side)
        loss_b = sum(weight[x] for x in b_side)
        # E(after choosing side s) = total - loss_a - loss_b + 2 * loss_other
        choice = 0 if loss_b >= loss_a else 1
        kill, keep = (a_side, b_side) if choice == 0 else (b_side, a_side)
        for x in kill:
            weight[x] = 0
        for x in keep:
            weight[x] *= 2
        total = total - loss_a - loss_b + 2 * (loss_b if choice == 0 else loss_a)
        choices.append(choice)
    result = _assemble(inst, choices)
    # total is now |survivors| * 2^q by construction
    if total != len(result.survivors) << q:
        raise InternalInconsistency(
            f"expected survivor weight {total} is not {len(result.survivors)} * 2^{q}",
            witness={"total": total, "survivors": result.survivors.tolist(), "choices": choices},
        )
    return result


def _randomized(inst, rng, max_tries, target):
    best = -1
    for _ in range(max_tries):
        choices = rng.integers(0, 2, size=inst.q)
        result = _assemble(inst, choices)
        if len(result.survivors) >= target:
            return result
        best = max(best, len(result.survivors))
    raise RetryExhausted(
        f"no survivor set of size >= {target} in {max_tries} tries (best {best})"
    )
