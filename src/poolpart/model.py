"""Exchangeable binary population models in three equivalent representations.

A population of n specimens with exchangeable (permutation-invariant) binary
statuses is fully described by any one of:

  alpha[k]  probability that exactly k specimens are positive (k = 0..n)
  w[k]      probability of one particular outcome vector with k positives;
            alpha[k] = C(n,k) * w[k]
  q[h]      probability that an arbitrary group of h specimens tests all
            negative (h = 0..n, q[0] = 1)

alpha is the canonical form held by SymmetricModel: its entries stay in
[0, 1] at every population size, while w underflows and q inversion is badly
conditioned for large n.  QCurve and OutcomeWeights are derived views.

Conversions carry exact rational values alongside the float64 vectors
whenever n <= _EXACT_LIMIT.  The q -> w recursion subtracts near-equal
quantities and amplifies rounding in q by roughly 2**n, so float arithmetic
alone cannot round-trip alpha -> q -> w -> alpha at large n; the rational
channel makes the round trip exact.  The q -> w recursion runs on integer
numerators over one common denominator and rounds each w[k] once; a curve
without the channel is read as the exact dyadic rationals its floats are.
Both alpha -> q paths use q[h] = sum_k alpha[k] C(n-k,h) / C(n,h).  With
the channel the sum adds Fractions and divides once (an integer sum would
speed `report` several-fold; it waits for the benchmark's memory fix,
ROADMAP item 1).  Without it an O(n**2) float recurrence gives the ratios,
and q[h] has relative error below (2h + 2) * 2**-53.
Every other conversion reads exact rationals (the channel, else the dyadic
values of the floats) and rounds each result once, so C(n, k) beyond the
float range (n >= 1030) does not overflow; a result beyond it raises.

All values are immutable after construction and safe to share across
threads.  Sampling takes an explicit seed or generator and keeps no hidden
state; `substream` derives independent generators for parallel Monte Carlo.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ValidationError

__all__ = [
    "SymmetricModel",
    "QCurve",
    "OutcomeWeights",
    "OutcomeVector",
    "iid_model",
    "q_from_alpha",
    "w_from_q",
    "alpha_from_w",
    "w_from_alpha",
    "marginal_zero_bruteforce",
    "sample_outcome",
    "prevalence",
    "substream",
]

# Largest n for which conversions keep an exact rational channel.  Beyond
# this the Fractions get expensive and callers fall back to float paths.
_EXACT_LIMIT = 100

_NORM_TOL = 1e-12
_NEG_W_TOL = -1e-9

ExactVec = Optional[tuple]  # tuple[Fraction, ...] when present


def _is_int(v) -> bool:
    """A Python or numpy integer that is not a boolean."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_int(name: str, v, low: int = 1) -> int:
    """Sizes, counts and trial numbers: a non-boolean integer >= low, as int."""
    if not _is_int(v) or v < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {v!r}")
    return int(v)


def check_n(n) -> int:
    """Population sizes are integers >= 1."""
    return check_int("population size", n)


def _checked_vector(obj, name: str) -> np.ndarray:
    """Store obj.n as a checked int and obj.<name> as a read-only float copy
    of length n + 1 with finite entries; return that copy."""
    n = check_n(obj.n)
    object.__setattr__(obj, "n", n)
    out = np.asarray(getattr(obj, name), dtype=float).copy()
    if out.ndim != 1 or out.shape[0] != n + 1:
        raise ValidationError(f"{name} must have length n+1 = {n + 1}, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{name} contains non-finite entries")
    out.setflags(write=False)
    object.__setattr__(obj, name, out)
    return out


def _rationals(exact: ExactVec, v: np.ndarray):
    """The rational channel if there is one, else the dyadic values of v."""
    return exact if exact is not None else tuple(map(Fraction, v.tolist()))


def _rounded(xs, name: str) -> list:
    """Each exact rational in xs rounded once to a float."""
    try:
        return [float(x) for x in xs]
    except OverflowError as e:
        raise ValidationError(f"{name} leaves the float range: {e}") from e


@dataclass(frozen=True, eq=False)
class SymmetricModel:
    """Exchangeable model in the alpha (positive-count) representation."""

    n: int
    alpha: np.ndarray
    _exact: ExactVec = field(default=None, repr=False)

    def __post_init__(self):
        a = _checked_vector(self, "alpha")
        if np.any(a < 0.0) or np.any(a > 1.0):
            raise ValidationError("alpha entries must lie in [0, 1]")
        total = math.fsum(a.tolist())
        if abs(total - 1.0) > _NORM_TOL:
            raise ValidationError(f"alpha must sum to 1 within {_NORM_TOL}, got {total!r}")

    def to_dict(self) -> dict:
        return {"n": self.n, "alpha": [float(x) for x in self.alpha]}

    @classmethod
    def from_dict(cls, d: dict) -> "SymmetricModel":
        try:
            n = d["n"]
            alpha = d["alpha"]
        except (KeyError, TypeError) as e:
            raise ValidationError(f"model document needs keys 'n' and 'alpha': {e}") from e
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValidationError(f"model 'n' must be an integer, got {n!r}")
        if not isinstance(alpha, (list, tuple, np.ndarray)):
            raise ValidationError(
                f"model 'alpha' must be a list of numbers, got {type(alpha).__name__}"
            )
        for a in alpha:
            if isinstance(a, bool) or not isinstance(a, numbers.Real):
                raise ValidationError(f"model 'alpha' entries must be numbers, got {a!r}")
        try:
            alpha = np.asarray(alpha, dtype=float)
        except OverflowError as e:  # an integer beyond the float range
            raise ValidationError(f"model 'alpha' entries must be floats: {e}") from e
        return cls(int(n), alpha)


@dataclass(frozen=True, eq=False)
class QCurve:
    """Group all-negative probabilities q[h], h = 0..n."""

    n: int
    q: np.ndarray
    _exact: ExactVec = field(default=None, repr=False)

    def __post_init__(self):
        v = _checked_vector(self, "q")
        if v[0] != 1.0:
            raise ValidationError(f"q[0] must equal 1 exactly, got {v[0]!r}")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValidationError("q entries must lie in [0, 1]")
        # allow one ulp of float slack on the monotonicity check
        if np.any(np.diff(v) > 1e-12):
            raise ValidationError("q must be nonincreasing in group size")


@dataclass(frozen=True, eq=False)
class OutcomeWeights:
    """Per-outcome probabilities w[k] for outcomes with k positives."""

    n: int
    w: np.ndarray
    _exact: ExactVec = field(default=None, repr=False)

    def __post_init__(self):
        v = _checked_vector(self, "w")
        if np.any(v < 0.0):
            raise ValidationError("w entries must be nonnegative")
        total = _outcome_mass(self.n, v)
        if abs(total - 1.0) > _NORM_TOL:
            raise ValidationError(
                f"sum of C(n,k)*w[k] must be 1 within {_NORM_TOL}, got {total!r}"
            )


@dataclass(frozen=True, eq=False)
class OutcomeVector:
    """Realized statuses for one population draw: 0 negative, 1 positive."""

    statuses: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "statuses", binary_vector(self.statuses))

    @property
    def n(self) -> int:
        return int(self.statuses.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.statuses.sum())


def binary_vector(statuses) -> np.ndarray:
    """A read-only uint8 copy of one nonempty 1-d 0/1 status vector."""
    s = np.asarray(statuses)
    if s.ndim != 1 or s.size == 0:
        raise ValidationError("statuses must be a nonempty 1-d vector")
    s = status_matrix([s])[0]
    s.setflags(write=False)
    return s


def status_matrix(batches: Sequence, size: Optional[int] = None) -> np.ndarray:
    """Stack a cohort of status vectors (arrays, or objects with a
    `.statuses` array) into a (batches x size) uint8 0/1 matrix.  Every
    batch must be 1-d, of length `size` when given, else of the first
    batch's length.  The 0/1 check runs once, on the stacked matrix."""
    rows = [np.asarray(getattr(b, "statuses", b)) for b in batches]
    if not rows:
        raise ValidationError("at least one batch is required")
    for s in rows:
        if s.ndim != 1:
            raise ValidationError("each batch must be a 1-d status vector")
        if size is not None and len(s) != size:
            raise ValidationError(f"batch size {len(s)} does not match target size {size}")
        if len(s) != len(rows[0]):
            raise ValidationError(f"heterogeneous batch sizes: {len(rows[0])} then {len(s)}")
    data = np.stack(rows)
    if not np.all((data == 0) | (data == 1)):
        raise ValidationError("statuses must be 0/1 valued")
    return data.astype(np.uint8)


def _outcome_mass(n: int, w: np.ndarray) -> float:
    """sum_k C(n,k) w[k], each term rounded once."""
    terms = (math.comb(n, k) * Fraction(x) for k, x in enumerate(w.tolist()))
    return math.fsum(_rounded(terms, f"C(n,k)*w[k] at n = {n}"))


def _exact_alpha(m: SymmetricModel) -> ExactVec:
    if m._exact is None and m.n <= _EXACT_LIMIT:
        return tuple(map(Fraction, m.alpha.tolist()))
    return m._exact


def iid_model(n: int, prevalence: float) -> SymmetricModel:
    """Binomial-count model: each specimen independently positive with the
    given prevalence.  alpha[k] = C(n,k) p^k (1-p)^(n-k), so q[h] = (1-p)^h.
    """
    n = check_n(n)
    p = float(prevalence)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"prevalence must lie in [0, 1], got {p!r}")
    if n <= _EXACT_LIMIT or p in (0.0, 1.0):  # log space below would take log(0)
        pf = Fraction(p)
        exact = tuple(math.comb(n, k) * pf**k * (1 - pf) ** (n - k) for k in range(n + 1))
        channel = exact if n <= _EXACT_LIMIT else None
        return SymmetricModel(n, _rounded(exact, "alpha"), _exact=channel)
    # log-space binomial pmf for large n; exponent differences stay modest
    lp, lq = math.log(p), math.log1p(-p)
    logc = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        for k in range(n + 1)
    ]
    alpha = np.array([math.exp(logc[k] + k * lp + (n - k) * lq) for k in range(n + 1)])
    alpha = alpha / math.fsum(alpha.tolist())
    return SymmetricModel(n, alpha)


def q_from_alpha(m: SymmetricModel) -> QCurve:
    """Convert alpha to the q representation.

    Drawing h specimens without replacement from a population with exactly k
    positives leaves all h negative with probability C(n-k,h)/C(n,h), so both
    paths compute q[h] = sum_k alpha[k] C(n-k,h) / C(n,h).  With the rational
    channel the sum over the nonzero alpha[k] is exact and divided once.
    Otherwise r_h[k] = C(n-k,h)/C(n,h) is kept as one float vector that
    each step multiplies by (n-k-h+1)/(n-h+1): O(n**2) work, O(n) memory
    and no big integers.  Every factor lies in [0, 1] and each step rounds
    twice, so r_h[k] has relative error below 2h * 2**-53; `math.fsum` adds
    the nonnegative terms with one rounding, so q[h] has relative error
    below (2h + 2) * 2**-53.  No step grows a term, so the float q is
    nonincreasing, and q[n] = alpha[0] exactly.
    """
    n = m.n
    exact = _exact_alpha(m)
    if exact is not None:
        nz = [(k, x) for k, x in enumerate(exact) if x]
        # Fraction(sum, ...): an empty sum is the int 0, and 0 / C(n, h) a float
        qx = [
            Fraction(sum(x * math.comb(n - k, h) for k, x in nz if k <= n - h), math.comb(n, h))
            for h in range(n + 1)
        ]
        q = [1.0, *_rounded(qx[1:], "q")]
        return QCurve(n, q, _exact=tuple(qx))
    q = np.empty(n + 1)
    q[0] = 1.0
    r = np.ones(n + 1)
    n_minus_k = np.arange(n, -1, -1, dtype=float)
    for h in range(1, n + 1):
        live = n - h + 1  # r_h[k] = 0 for k > n - h
        r[:live] *= (n_minus_k[:live] - (h - 1)) / live
        q[h] = math.fsum((m.alpha[:live] * r[:live]).tolist())
    return QCurve(n, np.minimum(q, 1.0))


def w_from_q(qc: QCurve) -> OutcomeWeights:
    """Invert q to per-outcome weights via the triangular recursion

        w[0] = q[n],   w[k] = q[n-k] - sum_{i<k} C(k,i) w[i].

    Entries in [-1e-9, 0) are treated as roundoff and clamped to zero;
    anything more negative means q is not a valid exchangeable
    representation and raises ValidationError.  The recursion at k = n
    forces sum_k C(n,k) w[k] = q[0] = 1; drift beyond 1e-9 after clamping
    is likewise an error, drift in (1e-12, 1e-9] is renormalized away.

    The recursion runs on Python integers, over the rational channel or,
    without one, over the exact dyadic rationals the floats of q are: every
    q[h] is put over one common denominator L = lcm of the denominators,
    the numerators W[k] follow the recursion exactly (coefficients from a
    running Pascal row, zero terms skipped), and each float is rounded once
    as W[k] / L, which equals float(Fraction(W[k], L)).  With a channel the
    result carries Fraction(W[k], L), so it matches the Fraction recursion
    bit for bit.

    Rounding in a float q is amplified by roughly 2**n here.  Curves
    produced by q_from_alpha carry exact rationals and invert exactly;
    float-only curves are trustworthy only at small n.  When a float-only
    curve reconstructs a negative w[k] that rounding of that size could
    explain, the error says so.  A W[k] / L that nears the float range
    raises ValidationError.
    """
    n = qc.n
    qx = _rationals(qc._exact, qc.q)
    den = math.lcm(*(x.denominator for x in qx))
    qi = [x.numerator * (den // x.denominator) for x in qx]
    wi = [qi[n]]
    row = [1]  # C(k, i), i = 0..k
    for k in range(1, n + 1):
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
        wi.append(qi[n - k] - sum(c * x for c, x in zip(row, wi) if x))
        # below this bound |W[k] / L| < 2**1023, so the float division cannot overflow
        if wi[k].bit_length() - den.bit_length() > 1022:
            raise ValidationError(f"q -> w recursion leaves the float range at w[{k}] (n = {n})")
    w = np.array([x / den for x in wi])
    exact: ExactVec = None if qc._exact is None else tuple(Fraction(x, den) for x in wi)

    bad = [(k, v) for k, v in enumerate(w) if v < _NEG_W_TOL]
    if bad:
        k, v = bad[0]
        note = ""
        # rounding in a float q (2**-53) amplified by 2**n can reach 2**(n - 53)
        if exact is None and math.log2(-v) < n - 53:
            note = (
                f"; without a rational channel the recursion amplifies rounding in a float "
                f"q by about 2**{n}, so at n = {n} this may be rounding, not an invalid q"
            )
        raise ValidationError(
            f"q is not a valid symmetric representation: reconstructed w[{k}] = {float(v)!r} "
            f"< {_NEG_W_TOL} ({len(bad)} entr{'y' if len(bad) == 1 else 'ies'} below tolerance)"
            f"{note}"
        )
    clamped = w < 0.0
    if clamped.any():
        w = np.where(clamped, 0.0, w)
        exact = None  # rational channel no longer matches the floats

    total = _outcome_mass(n, w)
    drift = abs(total - 1.0)
    if drift > 1e-9:
        raise ValidationError(
            f"q does not normalize: sum of C(n,k)*w[k] = {total!r} is off by {drift:.3e}"
        )
    if drift > _NORM_TOL:
        w = w / total
        exact = None
    return OutcomeWeights(n, w, _exact=exact)


def alpha_from_w(ow: OutcomeWeights) -> SymmetricModel:
    """alpha[k] = C(n,k) w[k] from the channel, else the dyadic values of w,
    rounded once.  The result carries a channel when the input does."""
    n = ow.n
    ax = tuple(math.comb(n, k) * x for k, x in enumerate(_rationals(ow._exact, ow.w)))
    return SymmetricModel(n, _rounded(ax, "alpha"), _exact=None if ow._exact is None else ax)


def w_from_alpha(m: SymmetricModel) -> OutcomeWeights:
    """w[k] = alpha[k] / C(n,k) from the channel (built from the floats when
    n <= 100), else the dyadic values of alpha, rounded once.  An alpha whose
    mass sits where w[k] underflows (e.g. near k = n/2 at n >= 1030) has no
    float per-outcome form and raises ValidationError."""
    n = m.n
    exact = _exact_alpha(m)
    wx = tuple(x / math.comb(n, k) for k, x in enumerate(_rationals(exact, m.alpha)))
    try:
        return OutcomeWeights(n, _rounded(wx, "w"), _exact=None if exact is None else wx)
    except ValidationError as e:
        raise ValidationError(f"w underflows float64 at n = {n}: {e}") from e


def marginal_zero_bruteforce(m: SymmetricModel, h: int) -> float:
    """All-negative probability for the first h specimens, by summing the
    per-outcome weights over every outcome vector.  Test oracle; 2**n terms,
    so n is capped at 16.
    """
    n = m.n
    if n > 16:
        raise ValidationError(f"brute-force marginal is limited to n <= 16, got n = {n}")
    if not 0 <= h <= n:
        raise ValidationError(f"group size must lie in [0, {n}], got {h}")
    w = [float(m.alpha[k]) / math.comb(n, k) for k in range(n + 1)]
    mask = (1 << h) - 1
    return math.fsum(w[z.bit_count()] for z in range(1 << n) if not z & mask)


def check_uint64(name: str, v) -> None:
    """Seeds and stream labels are non-boolean integers in [0, 2**64)."""
    if not _is_int(v) or not 0 <= int(v) < 2**64:
        raise ValidationError(f"{name} must be a uint64, got {v!r}")


def substream(seed: int, lane: int = 0, draw: int = 0) -> np.random.Generator:
    """Independent counter-based generator for (seed, lane, draw).

    Philox increments counter word 0 first, so placing the stream labels in
    words 2 and 3 leaves 2**128 states per stream: substreams never overlap
    and results do not depend on scheduling order.
    """
    for name, v in (("seed", seed), ("lane", lane), ("draw", draw)):
        check_uint64(name, v)
    # uint64, since a list holding a label >= 2**63 would be read as float64
    bg = np.random.Philox(key=int(seed), counter=np.array([0, 0, lane, draw], dtype=np.uint64))
    return np.random.Generator(bg)


def sample_outcome(
    m: SymmetricModel, rng_seed: Union[int, np.random.Generator]
) -> OutcomeVector:
    """Draw one outcome vector: count k ~ alpha, then a uniformly random
    k-subset of positions goes positive.  Accepts an integer master seed or
    a Generator (e.g. from `substream`) for use inside Monte Carlo loops.
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else substream(rng_seed)
    k = int(rng.choice(m.n + 1, p=m.alpha))
    x = np.zeros(m.n, dtype=np.uint8)
    if k == m.n:
        x[:] = 1
    elif k > 0:
        x[rng.choice(m.n, size=k, replace=False)] = 1
    return OutcomeVector(x)


def prevalence(m: SymmetricModel) -> float:
    """Marginal positive probability of any single specimen: E[count]/n."""
    return math.fsum(k * float(m.alpha[k]) for k in range(m.n + 1)) / m.n
