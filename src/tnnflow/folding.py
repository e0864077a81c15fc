"""The order-two diagram automorphism of SL(n) and its fixed flags.

The Dynkin diagram of type A_{n-1} has the flip i -> n-i; it lifts to the
group as

    sigma(g) = S (g^T)^{-1} S^T,    S[k, n+1-k] = (-1)^{k+1} (1-based),

a signed antidiagonal twist of inverse-transpose.  With these signs sigma
maps each one-parameter subgroup x_i(t), y_i(t) to its mirror x_{n-i}(t),
y_{n-i}(t) with the *same* parameter -- no sign leaks -- so sigma preserves
total nonnegativity, commutes with exp(t * generator_sum), and its fixed
locus is swept out by factorizations whose mirrored parameters are tied.
The flow check draws and multiplies out its samples and its control as one
int stack, in the letter loop of :mod:`tnnflow.totpos`, flows each flag in
closed form, with no steps, by the graded step
of :func:`tnnflow.flow.flag_frame` (sigma(u) on the reversed spectrum, with
S P for P), one stack per side for every time, and takes no inverse: the
stack is decided sigma-fixed by the form identity u^T S u = S on its ints,
and the flag of sigma(u) is read off the QR frame of u.  One frame product
compares the two sides.  S is an int matrix; no ``Fraction`` matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .chevalley import generator_sum_spectrum
from .flow import _frame_gap, _graded_frame
from .totpos import (
    ReducedWord,
    _positive_ratio,
    _run_word,
    _stack_add,
    _zero_masks,
)

__all__ = [
    "Folding",
    "build_folding",
    "symmetric_word",
    "fixed_locus_flow_check",
]


@dataclass(frozen=True)
class Folding:
    """The diagram flip of SL(n), realized by the signed antidiagonal S."""

    n: int
    s_matrix: np.ndarray

    def __post_init__(self):
        self.s_matrix.setflags(write=False)

    def sigma(self, i: int) -> int:
        """The induced map on simple root indices."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"simple root index {i} out of range")
        return self.n - i


def _signed_antidiagonal(n: int) -> np.ndarray:
    """The int matrix S, S[k, n-1-k] = (-1)^k (0-based)."""
    s = np.zeros((n, n), dtype=int)
    s[np.arange(n), np.arange(n)[::-1]] = [(-1) ** k for k in range(n)]
    return s


def _preserves_form(ints: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """sigma(u) == u, per matrix of a stack of column-scaled ints, u = ``ints[k] / scales[k]``
    column by column (as the letter loop :func:`~tnnflow.totpos._run_word` gives them
    on object ints), decided as u^T S u == S: one bool per matrix.

    sigma(u) = S u^-T S^T equals u iff u^T S^T u S = 1, that is (S being a
    signed permutation, S^T = S^-1) iff u preserves the bilinear form of S.
    With u = M diag(e)^-1 for the int matrix M, that is M^T S M = diag(e) S
    diag(e), an identity of ints, taken for the whole stack as one object-array
    product: S M is M with its rows reversed and row r signed (-1)^r, and entry
    (a, n-1-a) of the right side is (-1)^a e_a e_{n-1-a}.  No inverse is taken.
    """
    n = ints.shape[-1]
    signs = np.array([(-1) ** r for r in range(n)], dtype=object)
    form = np.zeros(ints.shape, dtype=object)
    form[:, np.arange(n), np.arange(n)[::-1]] = signs * scales * scales[:, ::-1]
    return (np.swapaxes(ints, 1, 2) @ (signs[:, None] * ints[:, ::-1]) == form).all(axis=(1, 2))


def build_folding(n: int) -> Folding:
    """The automorphism of SL(n), realized by the signed antidiagonal S.

    With these signs sigma(x_i(t)) = x_{n-i}(t) and sigma(y_i(t)) = y_{n-i}(t),
    sigma is an involution, and its derivative fixes the generator sum; the
    tests check each identity exactly for n = 2..8.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return Folding(n, _signed_antidiagonal(n))


# ---------------------------------------------------------------------------
# the symmetric (folded) factorization


def symmetric_word(n: int) -> tuple:
    """A reduced word for w0 grouped into flip-orbits, for even n.

    Folding A_{n-1} by the flip gives type C_m, m = n/2; the standard
    C_m word (1 2 ... m)^m for its longest element lifts letter by letter:
    each folded letter expands to its orbit {j, n-j} (a commuting pair, or
    the single middle letter).  Returns (word, orbit_blocks) where each
    block lists the positions in the word tied to one folded letter.

    Odd n is refused: the middle two simple roots are adjacent, so mirrored
    parameters cannot simply be tied there.
    """
    if n < 2 or n % 2:
        raise ValueError("symmetric factorizations need even n")
    m = n // 2
    letters = []
    blocks = []
    for _ in range(m):
        for j in range(1, m + 1):
            start = len(letters)
            if j < m:
                letters.extend((j, n - j))
            else:
                letters.append(m)
            blocks.append(tuple(range(start, len(letters))))
    word = ReducedWord(n, tuple(letters))
    return word, tuple(blocks)


def _symmetric_batch(blocks: tuple, rng: np.random.Generator, count: int) -> np.ndarray:
    """The fold gate's ``count`` flip-symmetric samples as int ratios, ``(count, letters, 2)``
    object ints ``(p, q)``, for the letter loop :func:`~tnnflow.totpos._run_word`.

    Every third row from the second on is a boundary sample: it zeroes a
    random subset of the blocks, its size uniform on 1..len(blocks)-1
    (:func:`~tnnflow.totpos._zero_masks`, as the invariance gate draws its
    masks).  One ``rng.uniform(-3, 3, (count, len(blocks)))`` call then draws
    a value per block, each kept one a :func:`~tnnflow.totpos._positive_ratio`
    copied across its orbit block, and each zeroed one ``(0, 1)``.
    """
    zeroed = np.zeros((count, len(blocks)), dtype=bool)
    boundary = np.arange(1, count, 3)
    zeroed[boundary] = _zero_masks(rng, len(boundary), len(blocks), len(blocks) - 1)
    draws = rng.uniform(-3.0, 3.0, zeroed.shape).tolist()
    ratios = [[(0, 1) if z else _positive_ratio(x) for x, z in zip(row, zs)] for row, zs in zip(draws, zeroed.tolist())]
    return np.array(ratios, dtype=object)[:, np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])]


def _control_ratios(blocks: tuple, rng: np.random.Generator) -> list:
    """The fold gate's negative control as int ratios ``(p, q)``, one per letter: one
    ``rng.uniform(-3, 3, len(blocks))`` call, each value a
    :func:`~tnnflow.totpos._positive_ratio` copied across its orbit block, and then
    the first member of the first tied pair doubled, in lowest terms, which unties it."""
    values = [_positive_ratio(x) for x in rng.uniform(-3.0, 3.0, len(blocks)).tolist()]
    ratios = [values[b] for b, block in enumerate(blocks) for _ in block]
    first = next(block[0] for block in blocks if len(block) == 2)
    p, q = ratios[first]
    ratios[first] = (p, q // 2) if q % 2 == 0 else (2 * p, q)
    return ratios


def fixed_locus_flow_check(
    folding: Folding,
    rng: np.random.Generator,
    times=(0.1, 1.0, 5.0),
    count: int = 100,
    tol: float = 1e-12,
) -> dict:
    """Flowing a sigma-fixed flag keeps it sigma-fixed, at every sampled time.

    Each sample is an exactly symmetric lower-unipotent factorization u.  The
    batch is drawn at once as int ratios (:func:`_symmetric_batch`: one array
    draw each for the boundary masks and the values), then a deliberately
    de-symmetrized control, also as int ratios (:func:`_control_ratios`: one
    more value draw, and one member of a tied pair doubled), and all are
    multiplied out as one stack of column-scaled ints by
    :func:`~tnnflow.totpos._run_word`, with no
    ``Fraction`` built; its floats are the int true quotients, each the
    rounding of the exact entry.  At t = 0 a flag is sigma-fixed iff
    sigma(u) == u exactly, by one fact:

    - for lower-unipotent u and v, flag(u) = flag(v) iff u^-1 v lies in
      B+ (the stabilizer of the base flag) and U-, whose intersection is
      {1}; that is, iff u = v;
    - sigma maps U- to U-, since sigma(y_i(t)) = y_{n-i}(t).

    So the t = 0 check is exact element equality, decided for the whole stack
    on its ints as the identity u^T S u = S (:func:`_preserves_form`), with no
    inverse taken; a sample that fails it raises ``AssertionError``.  For t > 0
    the flag of exp(t tau) u is compared against its sigma image within
    ``tol``, as the largest sine of a principal angle between the two flags
    (:func:`_frame_gap`), which is scale-invariant.  The image is evaluated
    through exact group identities -- sigma(exp(t tau) u) = S exp(-t tau) S^T
    sigma(u), where sigma(u) = u for a fixed sample, so its sigma side flows
    u's own floats.  The control's sigma side flows the frame S Q J of the
    flag of sigma(u), for the QR frame Q of u and the column reversal J (the
    leading k columns of u^-T S^T span the orthogonal complement of the
    leading n-k columns of u), so no inverse is taken.  Neither side forms the
    product, whose condition number reaches ~1e12 at t = 5: the stack takes
    one QR, and each side flows all its (time, sample) frames, the control's
    included, in one graded step :func:`~tnnflow.flow._graded_frame`, one time
    per frame.  The sigma side is (S P) diag(e^{-t d}) (S P)^T applied to
    sigma(u), the step on the reversed spectrum, -d reversed and S P's columns
    reversed, which keeps it descending; flowing S^T sigma(u) back and
    multiplying by S would repeat the QR on a row-permuted u, exact only to
    eps cond(u).  One :func:`_frame_gap` call reads every gap; ``worst_gap``
    and the witness, the first failing (sample, time) in sample order, are
    read off the samples' (sample, time) array.  The control must fail,
    exactly at t = 0 and beyond ``1e-6`` at every t > 0, which guards against
    a vacuously symmetric pipeline.  ``count`` below 1 raises ``ValueError``:
    an empty sample would certify nothing.
    """
    n = folding.n
    if n < 4:
        raise ValueError(f"the fixed-locus check needs n >= 4 (a mirrored pair to untie), got {n}")
    if count < 1:
        raise ValueError(f"the fixed-locus check needs count >= 1, got {count}")
    word, blocks = symmetric_word(n)
    s = linalg.to_float(folding.s_matrix)
    d, p = generator_sum_spectrum(n)
    sp = s @ p

    batch = _symmetric_batch(blocks, rng, count)
    control = np.array([_control_ratios(blocks, rng)], dtype=object)  # drawn last: row `count` of the stack
    ratios = np.concatenate([batch, control]).transpose(1, 2, 0)
    start = (np.tile(np.eye(n, dtype=object), (count + 1, 1, 1)), np.ones((count + 1, n), dtype=object))
    ints, scales = _run_word(n, 1, [("y", i, p, q) for i, (p, q) in zip(word.letters, ratios)], start, _stack_add)
    fixed = _preserves_form(ints, scales)
    if not fixed[:count].all():
        raise AssertionError("symmetric sampler produced a non-fixed element")
    q = np.linalg.qr((ints / scales[:, None, :]).astype(np.float64))[0]
    q_sigma = np.concatenate([q[:count], np.linalg.qr(s @ q[count:, :, ::-1])[0]])
    # time-major: slice j holds every frame at times[j]
    ts = np.repeat(times, count + 1)
    flowed = _graded_frame(np.tile(q, (len(times), 1, 1)), ts, d, p)
    mirrored = _graded_frame(np.tile(q_sigma, (len(times), 1, 1)), ts, -d[::-1], sp[:, ::-1])
    gaps = _frame_gap(flowed, mirrored).reshape(len(times), count + 1).T  # (sample, time)
    worst = float(np.fmax.reduce(gaps[:count], axis=None, initial=0.0))
    failing = np.argwhere(gaps[:count] > tol)  # row-major: the first is the first in sample order
    all_fixed, witness = not len(failing), None
    if not all_fixed:
        k, j = failing[0].tolist()
        witness = {"sample": k, "time": times[j], "gap": float(gaps[k, j])}
    control_broken = not fixed[count] and bool((gaps[count] > 1e-6).all())

    return {
        "n": n,
        "realization": {
            "form": "sigma(g) = S (g^T)^{-1} S^T",
            "s_matrix": [[int(x) for x in row] for row in folding.s_matrix],
        },
        "times": list(times),
        "count": count,
        "worst_gap": worst,
        "all_fixed": all_fixed,
        "witness": witness,
        "control_broken": control_broken,  # must be True
        "passed": all_fixed and control_broken,
    }
