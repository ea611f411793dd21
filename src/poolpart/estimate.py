"""Maximum-likelihood fits of population models to observed batches.

Both fits use only sufficient statistics of the fully observed statuses:
the positives-per-batch histogram for the exchangeable family (its
likelihood depends on each batch only through its positive count) and the
pooled positive fraction for the IID family.  `kl_counts` compares two
fitted models; on a common population size the count-level divergence
equals the divergence between the full outcome distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import (
    SymmetricModel,
    _checked_vector,
    check_int,
    check_int_vector,
    check_real,
    iid_model,
    status_matrix,
)

__all__ = [
    "EmpiricalCounts",
    "empirical_counts",
    "fit_symmetric",
    "fit_iid",
    "log_likelihood",
    "kl_counts",
]


@dataclass(frozen=True, eq=False)
class EmpiricalCounts:
    """Histogram of batches by number of positive specimens."""

    n: int
    histogram: np.ndarray
    total_batches: int

    def __post_init__(self):
        h = _checked_vector(self, "histogram", check_int_vector)
        total = check_int("total_batches", self.total_batches, 0)
        object.__setattr__(self, "total_batches", total)
        if np.any(h < 0):
            raise ValidationError("histogram entries must be nonnegative")
        if int(h.sum()) != total:
            raise ValidationError("histogram must sum to total_batches")


def empirical_counts(batches: Sequence) -> EmpiricalCounts:
    data = status_matrix(batches)
    n = data.shape[1]
    hist = np.bincount(data.sum(axis=1), minlength=n + 1)
    return EmpiricalCounts(n, hist, data.shape[0])


def _smoothed_total(observed: int, laplace: float, cells: int) -> float:
    """observed + laplace * cells, the denominator of a smoothed frequency.
    A laplace that overflows it would divide inf by inf, so it is rejected."""
    total = observed + laplace * cells
    if not math.isfinite(total):
        raise ValidationError(
            f"laplace {laplace!r} is too large: the smoothed total "
            f"{observed} + {cells} * laplace overflows"
        )
    return total


def _laplace(laplace) -> float:
    """The smoothing weight, a finite real number >= 0."""
    laplace = check_real("laplace", laplace)
    if not (math.isfinite(laplace) and laplace >= 0):
        raise ValidationError(f"laplace must be finite and >= 0, got {laplace!r}")
    return laplace


def fit_symmetric(batches: Sequence, laplace: float = 0.0) -> SymmetricModel:
    """MLE over all exchangeable models: alpha[k] = count-k frequency.

    Optional additive smoothing (laplace > 0) keeps downstream q curves away
    from hard zeros; the default is the raw, possibly non-monotone histogram.
    """
    laplace = _laplace(laplace)
    ec = empirical_counts(batches)
    total = _smoothed_total(ec.total_batches, laplace, ec.n + 1)
    alpha = (ec.histogram.astype(float) + laplace) / total
    return SymmetricModel(ec.n, alpha / math.fsum(alpha.tolist()))


def fit_iid(batches: Sequence, laplace: float = 0.0) -> SymmetricModel:
    """MLE within the IID subfamily: prevalence = pooled positive fraction,
    smoothed toward 1/2 by `laplace` pseudo-counts per status."""
    laplace = _laplace(laplace)
    data = status_matrix(batches)
    p = (float(data.sum()) + laplace) / _smoothed_total(data.size, laplace, 2)
    return iid_model(data.shape[1], p)


def log_likelihood(m: SymmetricModel, batches: Sequence) -> float:
    """Joint log-likelihood of fully observed batches under the model."""
    ec = empirical_counts(batches)
    if ec.n != m.n:
        raise ValidationError(f"model size {m.n} does not match batch size {ec.n}")
    terms = []
    for k in range(ec.n + 1):
        c = int(ec.histogram[k])
        if c == 0:
            continue
        a = float(m.alpha[k])
        if a <= 0.0:
            return -math.inf
        terms.append(c * (math.log(a) - math.log(math.comb(ec.n, k))))
    return math.fsum(terms)


def kl_counts(r: SymmetricModel, p: SymmetricModel) -> float:
    """KL divergence D(r || p) evaluated on positive counts, in nats.

    For exchangeable models every outcome with k positives shares one
    weight, so the count-level sum equals the divergence over the full
    outcome space.
    """
    if r.n != p.n:
        raise ValidationError(f"models must share n, got {r.n} and {p.n}")
    terms = []
    for k in range(r.n + 1):
        a = float(r.alpha[k])
        if a == 0.0:
            continue
        b = float(p.alpha[k])
        if b == 0.0:
            raise ValidationError(
                f"support violation: r.alpha[{k}] = {a!r} but p.alpha[{k}] = 0"
            )
        terms.append(a * math.log(a / b))
    return math.fsum(terms)
