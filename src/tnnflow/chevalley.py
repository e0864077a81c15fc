"""Standard pinning of SL(n): Chevalley generators and one-parameter subgroups.

The simple root data of SL(n) in its defining representation: raising
generators ``e_i = E_{i,i+1}``, lowering generators ``f_i = E_{i+1,i}``,
coroots ``h_i = E_{i,i} - E_{i+1,i+1}``, indexed by ``i = 1, ..., n-1``.
The element ``tau = sum_i (e_i + f_i)`` is the symmetric tridiagonal
0/1 matrix whose exponential drives the contraction dynamics downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from . import linalg

__all__ = [
    "GroupElement",
    "Pinning",
    "build_pinning",
    "one_param",
    "generator_sum",
    "generator_sum_spectrum",
    "exp_generator_sum",
]

RATIONAL = "rational"
FLOAT = "float"


@dataclass(frozen=True)
class GroupElement:
    """An element of SL(n), stored as a matrix over Q or over binary64.

    ``field`` records which arithmetic the entries live in; exact elements
    compose exactly, and mixing an exact element with a float one demotes
    the product to floats.  Calling the constructor checks an exact
    determinant; elements whose determinant is 1 by construction (factor
    products, one-parameter subgroups, sigma images) are built through
    :meth:`_det_one` instead.
    """

    entries: np.ndarray
    field: str

    def __post_init__(self):
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise ValueError("group elements are square matrices")
        if self.field not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown field tag {self.field!r}")
        if self.field == RATIONAL and linalg.det(self.entries) != 1:
            raise ValueError("exact group element must have determinant 1")
        self.entries.setflags(write=False)

    @classmethod
    def _det_one(cls, entries: np.ndarray) -> "GroupElement":
        """An exact element whose determinant is 1 by theorem, built without re-proving it."""
        g = object.__new__(cls)
        object.__setattr__(g, "entries", entries)
        object.__setattr__(g, "field", RATIONAL)
        entries.setflags(write=False)
        return g

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.field == RATIONAL and other.field == RATIONAL:
            return GroupElement._det_one(self.entries @ other.entries)  # det is multiplicative
        return GroupElement(
            linalg.to_float(self.entries) @ linalg.to_float(other.entries), FLOAT
        )

    def to_float(self) -> "GroupElement":
        if self.field == FLOAT:
            return self
        return GroupElement(linalg.to_float(self.entries), FLOAT)


@dataclass(frozen=True)
class Pinning:
    """Chevalley generators of sl(n) in the defining representation."""

    n: int
    e: tuple
    f: tuple
    h: tuple

    @property
    def indices(self) -> range:
        """Simple root indices 1..n-1."""
        return range(1, self.n)

    def raising(self, i: int) -> np.ndarray:
        return self.e[i - 1]

    def lowering(self, i: int) -> np.ndarray:
        return self.f[i - 1]

    def coroot(self, i: int) -> np.ndarray:
        return self.h[i - 1]


def build_pinning(n: int) -> Pinning:
    if n < 2:
        raise ValueError("the special linear group needs n >= 2")
    e, f, h = [], [], []
    for i in range(1, n):
        ei = linalg.rational_zeros(n, n)
        ei[i - 1, i] = Fraction(1)
        fi = linalg.rational_zeros(n, n)
        fi[i, i - 1] = Fraction(1)
        hi = linalg.rational_zeros(n, n)
        hi[i - 1, i - 1] = Fraction(1)
        hi[i, i] = Fraction(-1)
        for m in (ei, fi, hi):
            m.setflags(write=False)
        e.append(ei)
        f.append(fi)
        h.append(hi)
    return Pinning(n, tuple(e), tuple(f), tuple(h))


def one_param(pinning: Pinning, kind: str, i: int, t) -> GroupElement:
    """One-parameter subgroup element: x_i(t), y_i(t), or the coweight h_i(t).

    ``x_i(t) = I + t e_i`` and ``y_i(t) = I + t f_i`` (the nilpotent series
    stops after one term); the coweight puts ``t`` at slot ``i`` and ``1/t``
    at slot ``i+1`` and requires ``t != 0``.  The parameter must be exact
    (a float raises ``TypeError``), and so is the element.
    """
    if i not in pinning.indices:
        raise ValueError(f"simple root index {i} out of range for n={pinning.n}")
    if not isinstance(t, Rational):
        raise TypeError("exact parameter required; rationalize a float parameter first")
    t = Fraction(t)
    m = linalg.rational_identity(pinning.n)
    if kind == "x":
        m[i - 1, i] = t
    elif kind == "y":
        m[i, i - 1] = t
    elif kind == "coweight":
        if t == 0:
            raise ValueError("coweight parameter must be nonzero")
        m[i - 1, i - 1] = t
        m[i, i] = 1 / t
    else:
        raise ValueError(f"kind must be 'x', 'y' or 'coweight', got {kind!r}")
    return GroupElement._det_one(m)


def generator_sum(pinning: Pinning) -> np.ndarray:
    """The symmetric tridiagonal matrix ``sum_i e_i + f_i`` (exact entries)."""
    tau = linalg.rational_zeros(pinning.n, pinning.n)
    for i in pinning.indices:
        tau[i - 1, i] = tau[i, i - 1] = Fraction(1)
    return tau


def generator_sum_spectrum(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(d, P)`` with ``generator_sum = P diag(d) P^T`` on C^n, in closed form, top first.

    The generator sum is the adjacency matrix of the path on n vertices:
    ``d_k = 2 cos(k pi / (n+1))`` and ``P[j, k] = sqrt(2/(n+1)) sin(j k pi / (n+1))``
    for j, k = 1..n, so P is orthogonal and its first column is positive.  The
    integer jk is reduced mod 2(n+1) before the sine, so every angle is below 2 pi.
    """
    if n < 2:
        raise ValueError("the special linear group needs n >= 2")
    k = np.arange(1, n + 1)
    d = 2.0 * np.cos(np.pi * k / (n + 1))
    return d, np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))


def exp_generator_sum(n: int, t: float) -> GroupElement:
    """exp(t * generator_sum) in SL(n), computed spectrally from the closed-form eigenbasis.

    The trace of the generator sum is zero, hence the result has
    determinant 1 up to roundoff.
    """
    d, p = generator_sum_spectrum(n)
    m = (p * np.exp(float(t) * d)) @ p.T
    return GroupElement((m + m.T) / 2.0, FLOAT)
