"""Standard pinning of SL(n): Chevalley generators and the generator sum.

The simple root data of SL(n) in its defining representation: raising
generators ``e_i = E_{i,i+1}``, lowering generators ``f_i = E_{i+1,i}``,
coroots ``h_i = E_{i,i} - E_{i+1,i+1}``, indexed by ``i = 1, ..., n-1``.
Each is an int matrix.  The element ``tau = sum_i (e_i + f_i)`` is the
symmetric tridiagonal 0/1 matrix whose exponential drives the contraction
dynamics downstream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupElement",
    "Pinning",
    "build_pinning",
    "generator_sum",
    "generator_sum_spectrum",
]

RATIONAL = "rational"
FLOAT = "float"


@dataclass(frozen=True)
class GroupElement:
    """An element of SL(n), stored as a matrix over binary64 or, built only by
    ``totpos.sample_positive``, over Q.

    The constructor takes float entries tagged ``FLOAT``; other entries raise
    ``TypeError``, and the tag ``RATIONAL`` raises ``ValueError``.  An exact
    element is only ever a factor product, whose determinant is 1 by
    construction: :meth:`_det_one` builds it with its ``Fraction`` entries and
    proves nothing.
    """

    entries: np.ndarray
    field: str

    def __post_init__(self):
        if self.field == RATIONAL:
            raise ValueError("an exact group element is a factor product: build it with totpos.sample_positive")
        if self.field != FLOAT:
            raise ValueError(f"unknown field tag {self.field!r}")
        n = self.entries.shape[0]
        if self.entries.shape != (n, n):
            raise ValueError("group elements are square matrices")
        if self.entries.dtype.kind != "f":
            raise TypeError(f"a {self.field} group element cannot hold {self.entries.dtype} entries")
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


@dataclass(frozen=True)
class Pinning:
    """Chevalley generators of sl(n) in the defining representation, as int matrices.

    Only ``n`` is kept: each generator is built from its index pair
    ``(i-1, i)`` when it is asked for.  An index outside 1..n-1 raises
    ``ValueError``.
    """

    n: int

    @property
    def indices(self) -> range:
        """Simple root indices 1..n-1."""
        return range(1, self.n)

    def raising(self, i: int) -> np.ndarray:
        """e_i = E_{i,i+1}."""
        if i not in self.indices:
            raise ValueError(f"simple root index {i} out of range for n={self.n}")
        e = np.zeros((self.n, self.n), dtype=int)
        e[i - 1, i] = 1
        return e

    def lowering(self, i: int) -> np.ndarray:
        """f_i = E_{i+1,i}, the transpose of e_i."""
        return self.raising(i).T

    def coroot(self, i: int) -> np.ndarray:
        """h_i = [e_i, f_i] = E_{i,i} - E_{i+1,i+1}."""
        e = self.raising(i)
        return e @ e.T - e.T @ e


def build_pinning(n: int) -> Pinning:
    if n < 2:
        raise ValueError("the special linear group needs n >= 2")
    return Pinning(n)


def generator_sum(pinning: Pinning) -> np.ndarray:
    """The symmetric tridiagonal int matrix ``sum_i e_i + f_i``."""
    n = pinning.n
    return np.eye(n, k=1, dtype=int) + np.eye(n, k=-1, dtype=int)


def generator_sum_spectrum(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(d, P)`` with ``generator_sum = P diag(d) P^T`` on C^n, in closed form, top first.

    The generator sum is the adjacency matrix of the path on n vertices:
    ``d_k = 2 cos(k pi / (n+1))`` and ``P[j, k] = sqrt(2/(n+1)) sin(j k pi / (n+1))``
    for j, k = 1..n, so P is orthogonal and its first column is positive.  The
    integer jk is reduced mod 2(n+1) before the sine, so every angle is below 2 pi.
    Each n is computed once: every call hands back the same two arrays, so they
    are read-only.
    """
    if n < 2:
        raise ValueError("the special linear group needs n >= 2")
    return _spectrum(n)


# the cache sits on a private function so that generator_sum_spectrum stays a plain
# function, which perfbench/tracing.py wraps like every name in __all__
@functools.cache
def _spectrum(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(1, n + 1)
    d = 2.0 * np.cos(np.pi * k / (n + 1))
    p = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * n + 2)) / (n + 1))
    for a in (d, p):
        a.setflags(write=False)
    return d, p
