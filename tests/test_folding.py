"""The diagram flip of SL(n): signs, fixed flags, and flow compatibility."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnnflow import folding, linalg
from tnnflow.chevalley import (
    RATIONAL,
    GroupElement,
    build_pinning,
    generator_sum,
    generator_sum_spectrum,
    one_param,
)
from tnnflow.flow import flag_frame
from tnnflow.folding import (
    _flowed_frames,
    _frame_gap,
    _preserves_form,
    _symmetric_ratios,
    apply_group,
    break_symmetry,
    build_folding,
    fixed_locus_flow_check,
    symmetric_params,
    symmetric_word,
)
from tnnflow.totpos import _lower_product, _scaled_product, sample_params, sample_positive, standard_word_w0


@pytest.fixture(scope="module")
def fold4():
    return build_folding(4)


def test_signed_antidiagonal():
    fold = build_folding(4)
    s = linalg.to_float(fold.s_matrix)
    want = np.array(
        [
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(s, want)
    # S is orthogonal and squares to -I for even n
    assert np.array_equal(s @ s.T, np.eye(4))
    assert np.array_equal(s @ s, -np.eye(4))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sigma_swaps_one_parameter_subgroups(n):
    fold = build_folding(n)
    pin = build_pinning(n)
    for i in range(1, n):
        got = apply_group(fold, one_param(pin, "x", i, Fraction(5, 3)))
        want = one_param(pin, "x", n - i, Fraction(5, 3))
        assert np.equal(got.entries, want.entries).all()


@pytest.mark.parametrize("n", range(2, 7))
def test_apply_group_matches_literal_product(n):
    """The signed reversal equals S (g^T)^-1 S^T multiplied out, on exact elements."""
    fold = build_folding(n)
    rng = np.random.default_rng([n, 17])
    s = fold.s_matrix
    word = standard_word_w0(n)
    positive = sample_positive(sample_params(word, rng, group=True), "group")
    lower = sample_positive(sample_params(word, rng), "lower")
    # lower-unipotent times a signed cyclic shift: its first pivot is 0
    shift = linalg.rational_zeros(n, n)
    for i in range(n):
        shift[(i + 1) % n, i] = Fraction(1)
    shift[0, n - 1] = Fraction(-1 if n % 2 == 0 else 1)
    for g in (positive, lower @ GroupElement(shift, RATIONAL)):
        assert g is positive or g.entries[0, 0] == 0
        got = apply_group(fold, g).entries
        assert np.equal(got, s @ linalg.inv(g.entries.T) @ s.T).all()
        # and without any inverse: sigma(g) S g^T S^T = I
        assert np.equal(got @ s @ g.entries.T @ s.T, linalg.rational_identity(n)).all()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_apply_group_keeps_determinant_one(n):
    """apply_group skips the det check: det(S g^-T S^T) = det(g)^-1 = 1."""
    fold = build_folding(n)
    rng = np.random.default_rng([n, 23])
    word = standard_word_w0(n)
    for side, group in (("group", True), ("lower", False), ("upper", False)):
        g = sample_positive(sample_params(word, rng, zero_mask=[0], group=group), side)
        image = apply_group(fold, g)
        assert image.field == RATIONAL and linalg.det(image.entries) == 1


def test_apply_group_refuses_float_entries(fold4, pin4):
    g = one_param(pin4, "y", 2, Fraction(7, 2)) @ one_param(pin4, "x", 3, Fraction(2))
    with pytest.raises(TypeError):
        apply_group(fold4, g.to_float())


def test_sigma_is_involution_and_fixes_tau(fold4, pin4):
    g = one_param(pin4, "y", 2, Fraction(7, 2)) @ one_param(pin4, "x", 3, Fraction(2))
    assert np.equal(apply_group(fold4, apply_group(fold4, g)).entries, g.entries).all()
    tau = generator_sum(pin4)
    s = fold4.s_matrix
    assert np.equal(-(s @ tau.T @ s.T), tau).all()


@pytest.mark.parametrize("n", range(2, 9))
def test_folding_identities_hold_exactly(n):
    """The identities that make S the right twist, checked on the nose:
    sigma(x_i(t)) = x_{n-i}(t) and sigma(y_i(t)) = y_{n-i}(t) for sample
    rational t, sigma is an involution on a generic exact element, and the
    derivative fixes the generator sum: -S tau^T S^T = tau."""
    fold = build_folding(n)
    pin = build_pinning(n)
    for i in pin.indices:
        for kind in ("x", "y"):
            for t in (Fraction(1), Fraction(2), Fraction(1, 2)):
                got = apply_group(fold, one_param(pin, kind, i, t))
                want = one_param(pin, kind, fold.sigma(i), t)
                assert np.equal(got.entries, want.entries).all(), (kind, i, t)
    probe = one_param(pin, "x", 1, Fraction(3, 7))
    for i in pin.indices:
        probe = probe @ one_param(pin, "y", i, Fraction(2, 3)) @ one_param(pin, "x", i, Fraction(1, 5))
    assert np.equal(apply_group(fold, apply_group(fold, probe)).entries, probe.entries).all()
    tau = generator_sum(pin)
    s = fold.s_matrix
    assert np.equal(-(s @ tau.T @ s.T), tau).all()


def test_symmetric_word_structure():
    word, blocks = symmetric_word(4)
    assert word.letters == (1, 3, 2, 1, 3, 2)
    assert blocks == ((0, 1), (2,), (3, 4), (5,))
    with pytest.raises(ValueError):
        symmetric_word(3)
    with pytest.raises(ValueError):
        symmetric_word(5)


def test_symmetric_params_are_tied(rng):
    params = symmetric_params(4, rng)
    word, blocks = symmetric_word(4)
    for block in blocks:
        vals = {params.t[k] for k in block}
        assert len(vals) == 1
        assert all(v > 0 for v in vals)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_symmetric_ratio_draw_is_the_fraction_draw(n):
    """The int ratios the fold gate multiplies out give the product of
    ``symmetric_params`` on the same stream, boundary blocks included; both
    draw one scalar ``rng.uniform`` per block that is not zeroed, in block
    order, and leave the generator where those draws leave it."""
    word, blocks = symmetric_word(n)
    for zero_blocks in (None, [0], [len(blocks) - 1], list(range(1, len(blocks), 2))):
        rng, fractions, oracle = (np.random.default_rng([n, 28]) for _ in range(3))
        u = _lower_product(word, _symmetric_ratios(blocks, rng, zero_blocks))
        params = symmetric_params(n, fractions, zero_blocks=zero_blocks)
        assert u == _scaled_product(params, "lower")
        want = [Fraction(0)] * len(word)
        for b, block in enumerate(blocks):
            if b not in (zero_blocks or ()):
                c = Fraction(*math.exp(oracle.uniform(-3.0, 3.0)).as_integer_ratio())
                want = [c if pos in block else v for pos, v in enumerate(want)]
        assert params.t == tuple(want)
        assert rng.uniform() == fractions.uniform() == oracle.uniform()


def test_symmetric_params_refuses_a_block_index_outside_the_blocks():
    """An index past the blocks, or a negative one, raises ``ValueError`` naming it."""
    for bad in (99, 4, -1):
        with pytest.raises(ValueError, match=f"zero_blocks index {bad} "):
            symmetric_params(4, np.random.default_rng(0), zero_blocks=[1, bad])


def test_symmetric_samples_are_exactly_fixed(fold4, rng):
    for _ in range(5):
        params = symmetric_params(4, rng)
        u = sample_positive(params, "lower")
        assert np.equal(apply_group(fold4, u).entries, u.entries).all()


def test_break_symmetry_unties(fold4, rng):
    params = break_symmetry(symmetric_params(4, rng))
    u = sample_positive(params, "lower")
    assert not np.equal(apply_group(fold4, u).entries, u.entries).all()


def _same_flag(a, b, exact_rank) -> bool:
    """The rank oracle: the leading k columns of a and of b span one k-plane, for every k."""
    return all(exact_rank(np.hstack([a[:, :k], b[:, :k]])) == k for k in range(1, a.shape[0]))


nonzero_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@st.composite
def lower_unipotent_samples(draw):
    """Exact lower-unipotent samples of one SL(n), boundary ones included, and
    an exact invertible upper-triangular matrix b."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    word = standard_word_w0(n)
    masks = draw(st.lists(st.sets(st.integers(0, len(word) - 1)), min_size=1, max_size=3))
    samples = [sample_positive(sample_params(word, rng, zero_mask=sorted(m)), "lower") for m in masks]
    if n % 2 == 0:
        blocks = symmetric_word(n)[1]
        zeros = draw(st.lists(st.sets(st.integers(0, len(blocks) - 1)), min_size=1, max_size=3))
        samples += [sample_positive(symmetric_params(n, rng, zero_blocks=z), "lower") for z in zeros]
    b = linalg.rational_zeros(n, n)
    for i in range(n):
        b[i, i] = draw(nonzero_fractions)
        for j in range(i + 1, n):
            b[i, j] = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7))
    return samples, b


@settings(max_examples=40, deadline=None)
@given(case=lower_unipotent_samples())
def test_lower_unipotent_flags_agree_iff_elements_agree(case, exact_rank):
    """flag(u) = flag(v) iff u = v on U-: the fact the exact t = 0 fold check rests on."""
    samples, b = case
    for u, v in itertools.product(samples, repeat=2):
        equal = bool(np.equal(u.entries, v.entries).all())
        assert _same_flag(u.entries, v.entries, exact_rank) == equal
    # the oracle is not vacuous: u and u b span one flag, though u b != u for b != 1
    for u in samples:
        assert _same_flag(u.entries, u.entries @ b, exact_rank)


def _identity_samples(n, rng):
    """Group, lower and upper samples of the staircase word, and for even n >= 4
    symmetric samples (boundary ones included) and a ``break_symmetry`` control."""
    word = standard_word_w0(n)
    samples = [sample_positive(sample_params(word, rng, group=True), side) for side in ("group", "lower", "upper")]
    if n % 2 == 0 and n >= 4:
        blocks = symmetric_word(n)[1]
        params = [symmetric_params(n, rng, zero_blocks=z) for z in (None, [len(blocks) - 1], [0])]
        params.append(break_symmetry(symmetric_params(n, rng)))
        samples += [sample_positive(p, "lower") for p in params]
    return samples


@pytest.mark.parametrize("n", range(2, 9))
def test_sigma_flag_is_the_orthogonal_complement_reversed(n):
    """The identity behind the control's sigma frame S Q J: the leading k columns
    of S^T sigma(g) = g^-T S^T are orthogonal to the leading n-k columns of g, so
    they span the complement of that span, and sigma(g) has the flag of S Q J.
    Exact, in ``Fraction``s, with :func:`apply_group` as sigma."""
    fold = build_folding(n)
    for g in _identity_samples(n, np.random.default_rng([n, 29])):
        reversed_inverse = fold.s_matrix.T @ apply_group(fold, g).entries
        for k in range(1, n):
            assert not (reversed_inverse[:, :k].T @ g.entries[:, : n - k]).any(), k


@pytest.mark.parametrize("n", [4, 6, 8])
def test_control_sigma_frame_spans_the_flag_of_apply_group(n, monkeypatch):
    """The sigma side the gate flows for its control has the flag of the exact
    sigma of its float control: the frame S Q J, read off the QR frame Q of u."""
    flowed = []

    def spy(s, t, uf, suf):
        flowed.append((uf, suf))
        return real(s, t, uf, suf)

    real = folding._flowed_frames
    monkeypatch.setattr(folding, "_flowed_frames", spy)
    fold = build_folding(n)
    for seed in range(5):
        fixed_locus_flow_check(fold, np.random.default_rng([n, seed]), count=1)
        (uf, suf) = flowed[-1]  # the control is flowed last
        u = GroupElement(linalg.rationalize(uf[0]), RATIONAL)
        want = np.linalg.qr(linalg.to_float(apply_group(fold, u).entries))[0]
        assert _frame_gap(np.linalg.qr(suf[0])[0], want) <= 1e-10


@pytest.mark.parametrize("n", [4, 6, 8])
def test_de_symmetrized_control_fails_at_every_time(n):
    """Over 20 seeds, the control of the gate is broken at every time, so a gate
    whose samples agreed with their sigma images only vacuously would fail."""
    fold = build_folding(n)
    for seed in range(20):
        report = fixed_locus_flow_check(fold, np.random.default_rng([n, seed]), count=1)
        assert report["control_broken"] is True and report["passed"] is True, seed


@pytest.mark.parametrize("n", [4, 6, 8])
def test_form_identity_decides_sigma_fixed_as_the_inverse_does(n):
    """u^T S u == S on the column-scaled ints holds exactly where the exact sigma
    of :func:`apply_group` fixes u, on symmetric samples (boundary ones included),
    on ``break_symmetry`` controls, and on unipotent samples of the staircase
    word, whose parameters are not tied."""
    fold = build_folding(n)
    rng = np.random.default_rng([n, 53])
    blocks = symmetric_word(n)[1]
    samples = [symmetric_params(n, rng, zero_blocks=z) for z in (None, None, [len(blocks) - 1], [0, 1])]
    samples += [break_symmetry(symmetric_params(n, rng)) for _ in range(3)]
    samples += [sample_params(standard_word_w0(n), rng) for _ in range(2)]
    verdicts = []
    for params in samples:
        verdicts.append(_preserves_form(*_scaled_product(params, "lower")))
        u = sample_positive(params, "lower")
        assert verdicts[-1] is bool(np.equal(apply_group(fold, u).entries, u.entries).all())
    assert verdicts == [True] * 4 + [False] * 5


@pytest.mark.parametrize("n, zero_blocks", [(2, None), (4, [0, 2])])
def test_break_symmetry_refuses_when_no_tied_pair_is_positive(n, zero_blocks):
    """At n = 2 the one block is the middle letter; at n = 4 blocks 0 and 2 are both pairs."""
    params = symmetric_params(n, np.random.default_rng(0), zero_blocks=zero_blocks)
    with pytest.raises(ValueError, match="tied pair"):
        break_symmetry(params)


def test_fixed_locus_flow_check(fold4, rng):
    report = fixed_locus_flow_check(fold4, rng, count=25)
    assert report["passed"], report
    assert report["worst_gap"] <= 1e-12
    assert report["control_broken"]


def _per_sample_fold_check(folding, rng, times, count, tol):
    """The fold gate flowed one sample at a time, as an oracle for the stacked gate.

    Same draws, same order; each sample and the control go through
    :func:`~tnnflow.flow.flag_frame` and :func:`_frame_gap` as a single pair.
    """
    n = folding.n
    blocks = symmetric_word(n)[1]
    s = linalg.to_float(folding.s_matrix)
    d, p = generator_sum_spectrum(n)
    sp = (s @ p)[:, ::-1]

    def flag_gap(u, su):
        uf, suf = linalg.to_float(u.entries), linalg.to_float(su.entries)
        return {t: _frame_gap(p @ flag_frame(uf, t, d, p), sp @ flag_frame(suf, t, -d[::-1], sp)) for t in times}

    worst, all_fixed, witness = 0.0, True, None
    for k in range(count):
        zero_blocks = None
        if k % 3 == 1:
            size = int(rng.integers(1, len(blocks)))
            zero_blocks = rng.choice(len(blocks), size=size, replace=False).tolist()
        u = sample_positive(symmetric_params(n, rng, zero_blocks=zero_blocks), "lower")
        for t, gap in flag_gap(u, apply_group(folding, u)).items():
            assert isinstance(gap, float)
            worst = max(worst, gap)
            if gap > tol:
                all_fixed = False
                witness = witness or {"sample": k, "time": t, "gap": gap}
    u_bad = sample_positive(break_symmetry(symmetric_params(n, rng)), "lower")
    su_bad = apply_group(folding, u_bad)
    control_broken = not np.equal(su_bad.entries, u_bad.entries).all()
    control_broken = control_broken and all(g > 1e-6 for g in flag_gap(u_bad, su_bad).values())
    return {"worst_gap": worst, "witness": witness, "all_fixed": all_fixed, "control_broken": control_broken}


@pytest.mark.parametrize("n, count", [(4, 40), (6, 10), (8, 7)])
def test_stacked_fold_gate_matches_per_sample_flow(n, count):
    """Flowing all samples as one stack changes no bit of the gate's verdict.

    Every third sample from the second on zeroes whole blocks (boundary
    samples).  Beside the gate's own 1e-12, tolerances at 0, a half and nine
    tenths of the worst round-off gap make some gaps fail, so the witness --
    the first failing (sample, time) in sample order -- is compared too.
    """
    fold = build_folding(n)
    times = (0.1, 1.0, 5.0)
    worst = _per_sample_fold_check(fold, np.random.default_rng([n, 5]), times, count, 1e-12)["worst_gap"]
    assert 0.0 < worst <= 1e-12
    for tol in (1e-12, 0.0, 0.5 * worst, 0.9 * worst):
        got = fixed_locus_flow_check(fold, np.random.default_rng([n, 5]), times=times, count=count, tol=tol)
        want = _per_sample_fold_check(fold, np.random.default_rng([n, 5]), times, count, tol)
        assert {key: got[key] for key in want} == want, tol
        assert want["control_broken"]
        assert (want["witness"] is None) == (tol == 1e-12)


def test_frame_gap_of_stacks_is_the_gap_of_each_pair(rng):
    qa = np.linalg.qr(rng.standard_normal((5, 4, 4)))[0]
    qb = np.linalg.qr(rng.standard_normal((5, 4, 4)))[0]
    stacked = _frame_gap(qa, qb)
    assert stacked.shape == (5,)
    assert stacked.tolist() == [_frame_gap(a, b) for a, b in zip(qa, qb)]
    d, p = generator_sum_spectrum(4)
    times = np.array([0.0, 0.1, 1.0, 5.0, 20.0])
    flowed = flag_frame(qb, times, d, p)
    assert all(np.array_equal(f, flag_frame(b, t, d, p)) for f, b, t in zip(flowed, qb, times))
    # one time for the whole stack is that time for each matrix
    assert np.array_equal(flag_frame(qb, 5.0, d, p), flag_frame(qb, np.full(5, 5.0), d, p))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_flowed_frames_match_the_stepwise_flow(n, stepwise_frame):
    """Both sides of the fold gate, one row scaling and one QR each, against
    the flow taken step by step: exp(t tau) on u and S exp(-t tau) S^T on
    sigma(u), to 1e-13 in frame gap up to t = 20.  Every third sample from the
    second on zeroes whole blocks (boundary samples), as in the gate."""
    fold = build_folding(n)
    rng = np.random.default_rng([n, 19])
    blocks = symmetric_word(n)[1]
    us, sus = [], []
    for k in range(40):
        zero_blocks = None
        if k % 3 == 1:
            size = int(rng.integers(1, len(blocks)))
            zero_blocks = rng.choice(len(blocks), size=size, replace=False).tolist()
        u = sample_positive(symmetric_params(n, rng, zero_blocks=zero_blocks), "lower")
        us.append(linalg.to_float(u.entries))
        sus.append(linalg.to_float(apply_group(fold, u).entries))
    uf, suf = np.array(us), np.array(sus)
    s = linalg.to_float(fold.s_matrix)
    for t in (0.1, 1.0, 5.0, 20.0):
        forward, backward = _flowed_frames(s, t, uf, suf)
        assert np.max(_frame_gap(forward, stepwise_frame(uf, t))) <= 1e-13, t
        assert np.max(_frame_gap(backward, stepwise_frame(suf, t, s))) <= 1e-13, t


@pytest.mark.parametrize("count", [0, -1])
def test_fixed_locus_flow_check_refuses_an_empty_sample(fold4, rng, count):
    with pytest.raises(ValueError, match="count"):
        fixed_locus_flow_check(fold4, rng, count=count)


def test_frame_gap_ignores_the_basis_within_each_subspace(rng):
    """g and g b span the same flag for upper-triangular b: the gap is round-off."""
    for n in (3, 4, 6):
        g = rng.standard_normal((n, n))
        b = np.triu(rng.standard_normal((n, n))) + 3.0 * np.eye(n)
        qa, _ = np.linalg.qr(g)
        qb, _ = np.linalg.qr(g @ b)
        assert _frame_gap(qa, qb) < 1e-13
        assert _frame_gap(qa, -qa[:, ::-1]) > 0.1  # reversing the frame moves the flag


@pytest.mark.parametrize("theta", [1e-9, 1e-4, 0.3, 1.2, np.pi / 2])
def test_frame_gap_is_the_sine_of_the_angle_between_lines(theta):
    """Turning the first two axes of R^3 by theta moves the line and keeps the plane: the gap is sin(theta)."""
    qa = np.eye(3)
    qb = np.eye(3)
    qb[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    assert _frame_gap(qa, qb) == pytest.approx(np.sin(theta), rel=1e-12)


def test_folding_sl2_middle_orbit():
    # n = 2: the single root is its own mirror image; sigma fixes x_1(t)
    fold = build_folding(2)
    pin = build_pinning(2)
    g = one_param(pin, "x", 1, Fraction(4, 7))
    assert np.equal(apply_group(fold, g).entries, g.entries).all()
