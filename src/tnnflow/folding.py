"""The order-two diagram automorphism of SL(n) and its fixed flags.

The Dynkin diagram of type A_{n-1} has the flip i -> n-i; it lifts to the
group as

    sigma(g) = S (g^T)^{-1} S^T,    S[k, n+1-k] = (-1)^{k+1} (1-based),

a signed antidiagonal twist of inverse-transpose.  With these signs sigma
maps each one-parameter subgroup x_i(t), y_i(t) to its mirror x_{n-i}(t),
y_{n-i}(t) with the *same* parameter -- no sign leaks -- so sigma preserves
total nonnegativity, commutes with exp(t * generator_sum), and its fixed
locus is swept out by factorizations whose mirrored parameters are tied.
The flow check flows each flag in closed form, with no steps, and takes no
inverse: a sample is decided sigma-fixed by the form identity u^T S u = S on
its ints, and the flag of sigma(u) is read off the QR frame of u.
:func:`apply_group` is the exact sigma, which the tests hold as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .chevalley import GroupElement, generator_sum_spectrum
from .flow import _frame_gap, flag_frame
from .totpos import (
    FactorizationParams,
    ReducedWord,
    _lower_product,
    _mask_indices,
    _positive_ratio,
    _scaled_product,
)

__all__ = [
    "Folding",
    "build_folding",
    "apply_group",
    "symmetric_word",
    "symmetric_params",
    "break_symmetry",
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
    s = linalg.rational_zeros(n, n)
    for k in range(1, n + 1):
        s[k - 1, n - k] = Fraction((-1) ** (k + 1))
    return s


def apply_group(folding: Folding, g: GroupElement) -> GroupElement:
    """sigma(g) = S (g^T)^{-1} S^T, for an exact g (float entries raise ``TypeError``).

    S X S^T for X = (g^T)^-1 is X with both indices reversed and entry
    (a, b) signed (-1)^(a+b).
    """
    if not linalg.is_rational_array(g.entries):
        raise TypeError("exact entries required; rationalize float input first")
    out = linalg.inv(g.entries.T)[::-1, ::-1]
    out[1::2, ::2] = -out[1::2, ::2]  # negation, not a Fraction product per entry
    out[::2, 1::2] = -out[::2, 1::2]
    return GroupElement._det_one(out)  # det(S g^-T S^T) = det(g)^-1


def _preserves_form(columns: list, scales: list) -> bool:
    """sigma(u) == u, for u with column c ``columns[c] / scales[c]``, decided as u^T S u == S.

    sigma(u) = S u^-T S^T equals u iff u^T S^T u S = 1, that is (S being a
    signed permutation, S^T = S^-1) iff u preserves the bilinear form of S.
    With u = M diag(e)^-1 for the int matrix M, that is M^T S M = diag(e) S
    diag(e), an identity of ints: S M is M with its rows reversed and row r
    signed (-1)^r, and entry (a, n-1-a) of the right side is (-1)^a e_a
    e_{n-1-a}.  No inverse is taken.
    """
    n = len(columns)
    m = np.array(columns, dtype=object).reshape(n, n).T
    signs = np.array([(-1) ** r for r in range(n)], dtype=object)
    e = np.array(scales, dtype=object)
    form = np.zeros((n, n), dtype=object)
    form[np.arange(n), np.arange(n)[::-1]] = signs * e * e[::-1]
    return bool((m.T @ (signs[:, None] * m[::-1]) == form).all())


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


def _symmetric_ratios(blocks: tuple, rng: np.random.Generator, zero_blocks=None) -> list:
    """Flip-symmetric parameters as int ratios ``(p, q)``, one per letter of the word whose
    orbit ``blocks`` :func:`symmetric_word` gives.

    One :func:`~tnnflow.totpos._positive_ratio` is drawn per folded letter,
    by one ``rng.uniform()`` call, in block order, and copied across its orbit
    block; the blocks of ``zero_blocks`` draw nothing and read ``(0, 1)``.  A
    block index outside the blocks raises ``ValueError``.
    """
    zeroed = _mask_indices(() if zero_blocks is None else zero_blocks, len(blocks), "zero_blocks")
    ratios = [(0, 1)] * sum(map(len, blocks))
    for b, block in enumerate(blocks):
        if b not in zeroed:
            ratio = _positive_ratio(rng.uniform(-3.0, 3.0))
            for pos in block:
                ratios[pos] = ratio
    return ratios


def symmetric_params(
    n: int,
    rng: np.random.Generator,
    zero_blocks=None,
) -> FactorizationParams:
    """Random flip-symmetric factorization parameters (exact rationals).

    One positive value is drawn per folded letter and copied across its
    orbit block, so the resulting lower-unipotent product is exactly fixed
    by sigma.  ``zero_blocks`` pins whole blocks to zero (boundary samples);
    a block index outside the blocks raises ``ValueError``.  This is the
    ``Fraction`` view of the ratio draw :func:`_symmetric_ratios`.
    """
    word, blocks = symmetric_word(n)
    return FactorizationParams(word, tuple(Fraction(p, q) for p, q in _symmetric_ratios(blocks, rng, zero_blocks)))


def break_symmetry(params: FactorizationParams) -> FactorizationParams:
    """Perturb one member of a tied pair: the negative control sample.

    Raises ``ValueError`` when no tied pair has a positive parameter to untie,
    as at n = 2, whose one block is the middle letter.
    """
    word, blocks = symmetric_word(params.word.n)
    if word.letters != params.word.letters:
        raise ValueError("parameters do not come from the symmetric word")
    vals = list(params.t)
    pair = next((b for b in blocks if len(b) == 2 and vals[b[0]] > 0), None)
    if pair is None:
        raise ValueError("no tied pair has a positive parameter to untie")
    vals[pair[0]] = vals[pair[0]] * 2
    return FactorizationParams(word, tuple(vals))


def _flowed_frames(s: np.ndarray, t: float, uf: np.ndarray, suf: np.ndarray) -> tuple:
    """The frames of the flags of exp(t tau) u and S exp(-t tau) S^T sigma(u), for stacks uf and suf.

    S exp(-t tau) S^T = (S P) diag(e^{-t d}) (S P)^T, so sigma(u) is flowed
    with -d and S P, both reversed to keep the spectrum descending (ascending,
    the gaps reach 1 by t = 20).  Flowing S^T sigma(u) back and multiplying by
    S would repeat the QR on a row-permuted u, exact only to eps cond(u).
    """
    d, p = generator_sum_spectrum(len(s))
    sp = (s @ p)[:, ::-1]
    return p @ flag_frame(uf, t, d, p), sp @ flag_frame(suf, t, -d[::-1], sp)


def fixed_locus_flow_check(
    folding: Folding,
    rng: np.random.Generator,
    times=(0.1, 1.0, 5.0),
    count: int = 100,
    tol: float = 1e-12,
) -> dict:
    """Flowing a sigma-fixed flag keeps it sigma-fixed, at every sampled time.

    Each sample is an exactly symmetric lower-unipotent factorization u,
    drawn as int ratios (:func:`_symmetric_ratios`, whose ``Fraction`` view
    is :func:`symmetric_params`) and multiplied out as column-scaled ints by
    :func:`~tnnflow.totpos._lower_product`, with no ``Fraction`` built.  At
    t = 0 its flag is sigma-fixed iff sigma(u) == u exactly, by one fact:

    - for lower-unipotent u and v, flag(u) = flag(v) iff u^-1 v lies in
      B+ (the stabilizer of the base flag) and U-, whose intersection is
      {1}; that is, iff u = v;
    - sigma maps U- to U-, since sigma(y_i(t)) = y_{n-i}(t).

    So the t = 0 check is the exact element equality the loop makes, decided
    on the column-scaled ints of u as the identity u^T S u = S
    (:func:`_preserves_form`), with no inverse taken.  For t > 0 the flag of
    exp(t tau) u is compared against its sigma image within ``tol``, as the
    largest sine of a principal angle between the two flags
    (:func:`_frame_gap`), which is scale-invariant.  The image is evaluated
    through exact group identities -- sigma(exp(t tau) u) = S exp(-t tau) S^T
    sigma(u), where sigma(u) = u for a fixed sample, so its sigma side flows
    u's own floats.  The control, which is not fixed, flows the frame S Q J of
    the flag of sigma(u), for the QR frame Q of u and the column reversal J
    (the leading k columns of u^-T S^T span the orthogonal complement of the
    leading n-k columns of u), so no inverse is taken, and its asymmetry at
    t = 0 is the failing form identity.  Neither side forms the product, whose
    condition number reaches ~1e12 at t = 5: each is one closed-form row
    scaling of an orthonormal frame and one QR, with no steps, and the sigma
    side is (S P) diag(e^{-t d}) (S P)^T applied to sigma(u), its spectrum -d
    reversed to stay descending
    (:func:`_flowed_frames`).  All samples are drawn first and then flowed
    as one stack per time and side; the witness is the first failing
    (sample, time) in sample order.  A deliberately de-symmetrized sample
    must fail, exactly at t = 0 and beyond ``1e-6`` at every t > 0, which
    guards against a vacuously symmetric pipeline.  ``count`` below 1 raises
    ``ValueError``: an empty sample would certify nothing.
    """
    n = folding.n
    if n < 4:
        raise ValueError(f"the fixed-locus check needs n >= 4 (a mirrored pair to untie), got {n}")
    if count < 1:
        raise ValueError(f"the fixed-locus check needs count >= 1, got {count}")
    word, blocks = symmetric_word(n)
    s = linalg.to_float(folding.s_matrix)

    def flag_gaps(uf, suf) -> dict:
        """For each time, the fold gaps of a stack of float elements against their sigma images."""
        return {t: _frame_gap(*_flowed_frames(s, t, uf, suf)) for t in times}

    us = []
    for k in range(count):
        zero_blocks = None
        if k % 3 == 1:  # mix boundary samples in
            size = int(rng.integers(1, len(blocks)))
            zero_blocks = rng.choice(len(blocks), size=size, replace=False).tolist()
        u = _lower_product(word, _symmetric_ratios(blocks, rng, zero_blocks))
        if not _preserves_form(*u):
            raise AssertionError("symmetric sampler produced a non-fixed element")
        us.append(u)

    # negative control, drawn after the samples
    u_bad = _scaled_product(break_symmetry(symmetric_params(n, rng)), "lower")

    uf = np.array([linalg._float_of_scaled(*u) for u in us])
    gaps = flag_gaps(uf, uf)
    worst = 0.0
    all_fixed = True
    witness = None
    for k in range(count):
        for t in times:
            gap = float(gaps[t][k])
            worst = max(worst, gap)
            if gap > tol:
                all_fixed = False
                witness = witness or {"sample": k, "time": t, "gap": gap}

    bad = np.array([linalg._float_of_scaled(*u_bad)])
    sigma_bad = s @ np.linalg.qr(bad)[0][..., ::-1]
    control_broken = not _preserves_form(*u_bad) and all(g[0] > 1e-6 for g in flag_gaps(bad, sigma_bad).values())

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
