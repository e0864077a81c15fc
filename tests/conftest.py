"""Shared fixtures: pinnings, modules, and charts are expensive enough to
build once per session."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from tnnflow import linalg
from tnnflow.cells import enumerate_cells, face_poset
from tnnflow.chevalley import build_pinning, exp_generator_sum
from tnnflow.embedding import build_rep, eigenchart, lambda_for
from tnnflow.flow import DiagonalFlow


def _leibniz_det(a) -> Fraction:
    """The signed sum over permutations: a determinant sharing no code with ``linalg``."""
    n = a.shape[0]
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, p in enumerate(perm):
            term *= a[i, p]
        total += term
    return total


@pytest.fixture(scope="session")
def leibniz_det():
    """Determinant oracle for the exact kernels, independent of elimination."""
    return _leibniz_det


def _subtract(v: dict, x, b: dict) -> None:
    """``v -= x * b`` on sparse rows, in place; entries that cancel are dropped."""
    for c, y in b.items():
        z = v.get(c, 0) - x * y
        if z:
            v[c] = z
        else:
            del v[c]


def _fraction_reduce_rows(rows) -> list:
    """Reduced row echelon basis of sparse rows ``{column: Fraction}``, in Fractions.

    The ``Fraction`` elimination that the integer pass of ``linalg`` replaced:
    each row is reduced against the basis, scaled to pivot 1, and cleared from
    every other basis row.  Returns ``[(pivot, row)]`` sorted by pivot.
    """
    basis: dict = {}
    for row in rows:
        v = {c: x for c, x in row.items() if x != 0}
        for p in [c for c in v if c in basis]:
            _subtract(v, v[p], basis[p])
        if not v:
            continue
        pivot = min(v)
        scale = 1 / Fraction(v[pivot])
        v = {c: x * scale for c, x in v.items()}
        for b in basis.values():
            if pivot in b:
                _subtract(b, b[pivot], v)
        basis[pivot] = v
    return sorted(basis.items())


@pytest.fixture(scope="session")
def fraction_reduce_rows():
    """Echelon oracle for ``linalg.reduce_rows``, in ``Fraction`` arithmetic."""
    return _fraction_reduce_rows


def _exact_rank(a) -> int:
    """Rank of an exact matrix: the size of the reduced echelon basis of its rows."""
    return len(linalg.reduce_rows({j: x for j, x in enumerate(row) if x != 0} for row in a))


@pytest.fixture(scope="session")
def exact_rank():
    """Rank oracle for exact matrices (no production code needs a rank)."""
    return _exact_rank


def _stepwise_frame(m, t: float, s=None) -> np.ndarray:
    """The orthonormal frame of the flag of exp(t tau) m, or of S exp(-t tau) S^T m
    for the fold's ``s``, flowed in steps at most 0.5 long with a QR after each.

    A single product exp(t tau) m at t = 5 can have condition number ~1e12.
    QR preserves leading column spans -- hence the flag -- so orthonormalizing
    after each modest step keeps every intermediate well conditioned.  ``m``
    may be one matrix or a stack of them.
    """
    n = np.shape(m)[-1]
    k = max(1, int(np.ceil(abs(t) / 0.5)))
    step = exp_generator_sum(n, t / k).entries
    if s is not None:
        step = s @ exp_generator_sum(n, -t / k).entries @ s.T
    q, _ = np.linalg.qr(np.asarray(m, dtype=np.float64))
    for _ in range(k):
        q, _ = np.linalg.qr(step @ q)
    return q


@pytest.fixture(scope="session")
def stepwise_frame():
    """Flowed-flag oracle for ``flow.flag_frame``: the flow taken step by step, with no closed form."""
    return _stepwise_frame


@pytest.fixture(scope="session")
def pin3():
    return build_pinning(3)


@pytest.fixture(scope="session")
def pin4():
    return build_pinning(4)


@pytest.fixture(scope="session")
def rep3():
    """The complete-flag module of SL(3) (weight = sum of both fundamentals)."""
    return build_rep(lambda_for(3, ()))


@pytest.fixture(scope="session")
def chart3(rep3):
    return eigenchart(rep3)


@pytest.fixture(scope="session")
def flow3(chart3):
    return DiagonalFlow.from_chart(chart3)


@pytest.fixture(scope="session")
def rep42():
    """The Grassmannian-like module for n = 4, J = {2}."""
    return build_rep(lambda_for(4, (2,)))


@pytest.fixture(scope="session")
def chart42(rep42):
    return eigenchart(rep42)


@pytest.fixture(scope="session")
def census3():
    return enumerate_cells()


@pytest.fixture(scope="session")
def poset3(census3):
    return face_poset(census3)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
