"""Cross-domain graph construction, reweighting and label propagation.

Every graph here comes from embeddings through ``propagate_labels``, the one
route through the graph.  Its oracles are independent of it: the textbook
expressions of :mod:`partialda.oracles`, one fresh array per step, and a
fixed-point iteration ``F <- W_ts Y_s + W_tt F`` run to convergence, never
the closed-form solve under test.  ``propagate_labels`` builds one triangle
of the unnormalized affinities and scales by the row sums once, so its soft
labels meet the textbook's to rounding, not bit for bit.
"""

import itertools
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from partialda import NumericalError, ValidationError, baseline_propagate
import partialda._lapack
import partialda.graph
from partialda.graph import propagate_labels
from partialda.oracles import (
    fixed_point_oracle,
    textbook_cosine,
    textbook_graph,
    textbook_propagate,
    textbook_reweight,
)
from tests.test_lapack import NUMPY_OPENBLAS

SINGULAR = ("(I - W_tt) is singular: some targets receive no source mass; "
            "try a larger sigma or check graph connectivity")
NON_FINITE = ("label propagation produced non-finite values; "
              "try a larger sigma or check graph connectivity")
ALL_ZERO = "class_weights are all 0: no source sample carries a label"
NO_SOURCE = "y_s @ class_weights are all 0: no source sample carries a label"
NOT_BINARY = "label matrix entries must be 0 or 1"
NOT_ONE_HOT = "each label matrix row must contain exactly one 1"

# How far soft labels may stray from the textbook chain's: the row sums
# are taken and applied in another order
TEXTBOOK_TOL = 1e-12
# A solve amplifies that rounding by the condition number of I - W_tt.
# One weighted case of graph_cases (seed 36) has cond 6.6e6, and there the
# textbook's soft labels are themselves 2.0e-10 from the exact ones; it
# alone is held to this bound
ILL_CONDITIONED_TOL = 5e-10
# The hypothesis graphs below reach cond ~3e5, so there the bound is
# eps * cond where that is larger, for cond below this cap (a bound below
# 2.3e-8); a larger cond fails the test rather than loosen the bound
MAX_COND = 1e8


def no_mass(lost, n_t, sums):
    """The NumericalError text for targets whose soft labels do not sum to one."""
    return (f"{len(lost)} of {n_t} targets receive too little source mass "
            f"(target {lost[0]}: labels sum to {sums[lost[0]]:.10g}, not 1); "
            "try a larger sigma or check graph connectivity")


def solved(*args):
    """Soft labels and fallback count of ``propagate_labels``, or its error text."""
    try:
        return propagate_labels(*args)
    except (NumericalError, ValidationError) as exc:
        return str(exc)


def outcome(*args):
    """Soft-label bits and fallback count of ``propagate_labels``, or its error text."""
    got = solved(*args)
    if isinstance(got, str):
        return got
    p, n_dead = got
    return p.shape, p.tobytes(), n_dead


def textbook_outcome(z_s, z_t, sigma, y, weights=None, classes=None):
    """What :func:`solved` gives for class ``weights``, from the textbook chain.

    Soft labels come with the condition number of I - W_tt.
    """
    if weights is not None and not weights[classes].any():
        return NO_SOURCE if weights.any() else ALL_ZERO
    w_ts, w_tt = textbook_graph(z_s, z_t, sigma)
    n_dead = 0
    if weights is not None:
        w_ts, w_tt, n_dead = textbook_reweight(w_ts, w_tt, weights, classes)
    try:
        p = textbook_propagate(w_ts, w_tt, y)
    except np.linalg.LinAlgError:
        return SINGULAR
    if not np.isfinite(p).all():
        return NON_FINITE
    sums = p.sum(axis=0)
    lost = np.flatnonzero(np.abs(sums - 1.0) > 1e-6)
    if lost.size:
        return no_mass(lost, p.shape[1], sums)
    return p, n_dead, np.linalg.cond(np.eye(w_tt.shape[0]) - w_tt)


def assert_near_textbook(got, want, tol=TEXTBOOK_TOL):
    """The textbook's error text exactly, or its fallback count and soft labels to ``tol``."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (p, n_dead), (q, want_dead, _) = got, want
    assert n_dead == want_dead
    assert p.shape == q.shape
    assert np.abs(p - q).max() <= tol


def random_labels(rng, n_s):
    c = int(rng.integers(2, min(5, n_s) + 1))
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n_s - c)])
    y = np.zeros((n_s, c))
    y[np.arange(n_s), labels] = 1.0
    return y


def graph_cases(rng, n_max=8):
    """Random embeddings plus the underflow paths: all rows dead, some rows dead."""
    for _ in range(40):
        d = int(rng.integers(2, 6))
        z_s = rng.standard_normal((d, int(rng.integers(1, n_max + 1))))
        z_t = rng.standard_normal((d, int(rng.integers(1, n_max + 1))))
        yield z_s, z_t, float(rng.uniform(0.05, 2.0))
    e = np.eye(4)
    yield e[:, :1], e[:, 1:3], 1e-3  # every affinity underflows
    yield e[:, :1], np.column_stack([e[:, 0], e[:, 1], e[:, 2]]), 1e-3  # one live row
    yield np.column_stack([e[:, 0], np.zeros(4)]), e[:, :2], 0.3  # a zero column


SPARSE_CASES = 25


def sparse_cases(rng, n_max=8):
    """Tight clusters on orthogonal axes at small sigma: cross-cluster affinities are 0.0.

    Every axis carries a source, so every target keeps source mass.
    """
    for _ in range(SPARSE_CASES):
        d = int(rng.integers(2, 5))
        n_s = int(rng.integers(d, n_max + 1))
        n_t = int(rng.integers(2, n_max + 1))
        on_s = np.concatenate([np.arange(d), rng.integers(0, d, n_s - d)])
        z_s = np.eye(d)[:, on_s] + 0.05 * rng.standard_normal((d, n_s))
        z_t = np.eye(d)[:, rng.integers(0, d, n_t)] + 0.05 * rng.standard_normal((d, n_t))
        yield z_s, z_t, float(rng.uniform(0.01, 0.03))


def owned_cases(rng):
    """graph_cases, sparse_cases, a single target and a W_tt with exact zeros off the diagonal."""
    yield from graph_cases(rng)
    yield from sparse_cases(rng)
    yield rng.standard_normal((3, 5)), rng.standard_normal((3, 1)), 0.5  # n_t = 1
    e = np.eye(4)
    yield e[:, :1], e[:, 1:2], 1e-3  # n_t = 1 and its only row dead
    # targets near orthogonal sources: cross-axis affinities underflow to 0.0
    yield e, e + 1e-3 * rng.standard_normal((4, 4)), 0.02


def test_textbook_cosine_closed_forms():
    # the distances every textbook graph is built from; propagate_labels
    # computes them inline, in its affinity kernel
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert textbook_cosine(e1, e1)[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert textbook_cosine(e1, e2)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert textbook_cosine(e1, -e1)[0, 0] == pytest.approx(2.0, abs=1e-15)
    zero = np.zeros((2, 1))
    assert textbook_cosine(zero, e1)[0, 0] == pytest.approx(1.0, abs=1e-15)


def weighted_cases(rng, z_s):
    """Labels, class ids and two class weightings: some classes masked, all masked."""
    n_s = z_s.shape[1]
    c = int(rng.integers(1, min(4, n_s) + 1))
    classes = np.concatenate([np.arange(c), rng.integers(0, c, n_s - c)])
    y = np.eye(c)[classes]
    mask = (rng.random(c) > 0.3).astype(float)
    # the all-masked weighting still draws its weights, so later cases keep their stream
    return y, classes, (rng.random(c) * mask, rng.random(c) * 0.0)


def test_build_graph_matches_textbook_to_its_bound():
    # built from one triangle in buffers propagate_labels owns, the
    # unweighted graph gives the textbook's soft labels to its bound,
    # including the underflow fallbacks of graph_cases
    rng = np.random.default_rng(35)
    for z_s, z_t, sigma in graph_cases(rng):
        y = random_labels(rng, z_s.shape[1]) if z_s.shape[1] > 1 else np.ones((1, 1))
        assert_near_textbook(solved(z_s, z_t, sigma, y), textbook_outcome(z_s, z_t, sigma, y))


def test_reweight_and_propagate_match_textbook_to_their_bounds():
    # the class reweighting, the dead-row fallbacks and the solve must
    # reproduce the textbook chain to TEXTBOOK_TOL, with the same fallback
    # count; the one ill-conditioned case to ILL_CONDITIONED_TOL
    rng = np.random.default_rng(36)
    ill = []
    for z_s, z_t, sigma in graph_cases(rng):
        y, classes, weightings = weighted_cases(rng, z_s)
        for w in weightings:
            want = textbook_outcome(z_s, z_t, sigma, y, w, classes)
            tol = TEXTBOOK_TOL
            if not isinstance(want, str) and want[2] > 5e6:
                ill.append(want[2])
                tol = ILL_CONDITIONED_TOL
            assert_near_textbook(solved(z_s, z_t, sigma, y, w), want, tol)
    assert len(ill) == 1 and 6e6 < ill[0] < 7e6


def test_propagate_matches_textbook_on_random_and_sparse_graphs_to_its_bound():
    # sparse_cases leave exact zeros in W_tt, as underflow does; the solve
    # must not treat them differently from the textbook one
    rng = np.random.default_rng(37)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        z_s = rng.standard_normal((d, int(rng.integers(2, 9))))
        z_t = rng.standard_normal((d, int(rng.integers(2, 9))))
        y = random_labels(rng, z_s.shape[1])
        assert_near_textbook(solved(z_s, z_t, 0.5, y), textbook_outcome(z_s, z_t, 0.5, y))
    for z_s, z_t, sigma in sparse_cases(rng):
        y = random_labels(rng, z_s.shape[1])
        assert_near_textbook(solved(z_s, z_t, sigma, y), textbook_outcome(z_s, z_t, sigma, y))


def test_propagate_labels_matches_public_chain_to_its_bound():
    # the whole call against the textbook chain over every owned case: soft
    # labels within its bound, the same fallback count, and NumericalError
    # with the same text exactly where the textbook solve fails
    rng = np.random.default_rng(39)
    for z_s, z_t, sigma in owned_cases(rng):
        y, classes, weightings = weighted_cases(rng, z_s)
        assert_near_textbook(solved(z_s, z_t, sigma, y), textbook_outcome(z_s, z_t, sigma, y))
        for w in weightings:
            assert_near_textbook(solved(z_s, z_t, sigma, y, w),
                                 textbook_outcome(z_s, z_t, sigma, y, w, classes))


AXES = 3


@st.composite
def axis_graphs(draw):
    """Samples near the axes of R^3, classes, optional class weights, sigma and a noise seed.

    At sigma 0.02 every cross-axis affinity underflows to 0.0: a target
    alone on an axis without sources is an underflow-dead row, and one alone
    on an axis whose sources are all masked is emptied by the weighting.
    At sigma 0.3 those affinities are about 1e-5 instead.
    """
    on = st.integers(0, AXES - 1)
    on_s = draw(st.lists(on, min_size=1, max_size=6))
    on_t = draw(st.lists(on, min_size=1, max_size=5))
    c = draw(st.integers(1, 3))
    classes = draw(st.lists(st.integers(0, c - 1), min_size=len(on_s), max_size=len(on_s)))
    weight = st.sampled_from([0.0, 0.0, 0.4, 1.0])
    weights = draw(st.none() | st.lists(weight, min_size=c, max_size=c))
    sigma = draw(st.sampled_from([0.02, 0.3]))
    return on_s, on_t, classes, c, weights, sigma, draw(st.integers(0, 2**16))


@given(axis_graphs())
# the target on axis 1 sees nothing: an underflow-dead row
@example(([0, 0], [0, 1], [0, 0], 1, None, 0.02, 0))
# class 1 masked empties the row of the only target on axis 1
@example(([0, 1], [0, 1, 0], [0, 1], 2, [1.0, 0.0], 0.02, 0))
# n_t = 1: its row emptied by the weighting, then dead when built
@example(([0, 1], [1], [0, 1], 2, [0.4, 0.0], 0.02, 0))
@example(([0, 1], [2], [0, 1], 2, [0.4, 0.0], 0.02, 0))
# the target's one nonzero affinity is 5e-324, to a source of weight 0.4
@example(([0, 2], [1], [0, 1], 2, [0.4, 1.0], 0.03594, 0))
# all its affinities are subnormal, of two classes weighted 0.4 and 1.0
@example(([0, 2], [1], [0, 1], 2, [0.4, 1.0], 0.0374, 3))
# and beside a second target, whose row keeps its own scale
@example(([0, 2], [1, 0], [0, 1], 2, [0.4, 1.0], 0.0374, 3))
def test_propagate_labels_matches_textbook_on_axis_graphs(case):
    # every fallback, alone or mixed with live rows: the textbook's fallback
    # count and soft labels to TEXTBOOK_TOL or eps * cond, a NumericalError
    # wherever the textbook solve fails, and a masked class exactly 0 on
    # every target
    on_s, on_t, classes, c, weights, sigma, seed = case
    rng = np.random.default_rng(seed)
    z_s = np.eye(AXES)[:, on_s] + 0.01 * rng.standard_normal((AXES, len(on_s)))
    z_t = np.eye(AXES)[:, on_t] + 0.01 * rng.standard_normal((AXES, len(on_t)))
    classes = np.array(classes)
    y = np.eye(c)[classes]
    w = None if weights is None else np.array(weights)
    got = solved(z_s, z_t, sigma, y, *(() if w is None else (w,)))
    want = textbook_outcome(z_s, z_t, sigma, y, w, classes)
    if isinstance(want, str) and want not in (ALL_ZERO, NO_SOURCE):
        # which of the three texts a decoupled group of targets meets
        # depends on the rounding of its exactly singular block
        assert isinstance(got, str) and got.endswith("or check graph connectivity")
        return
    tol = TEXTBOOK_TOL
    if isinstance(want, tuple):
        assert want[2] < MAX_COND
        tol = max(TEXTBOOK_TOL, np.finfo(float).eps * want[2])
    assert_near_textbook(got, want, tol)
    if w is not None and isinstance(got, tuple):
        assert np.all(got[0][w == 0] == 0.0)


def test_owned_cases_reach_the_edge_paths():
    cases = list(owned_cases(np.random.default_rng(39)))
    sparse = cases[-3 - SPARSE_CASES:-3]
    with_zeros = 0
    for z_s, z_t, sigma in sparse:
        w_ts, w_tt = textbook_graph(z_s, z_t, sigma)
        assert np.all(w_ts.sum(axis=1) > 0)
        with_zeros += np.count_nonzero(w_tt == 0.0) > w_tt.shape[0]
    assert with_zeros >= SPARSE_CASES // 2
    z_s, z_t, sigma = cases[-1]
    w_tt = textbook_graph(z_s, z_t, sigma)[1]
    assert np.count_nonzero(w_tt == 0.0) > w_tt.shape[0]
    # an all-zero weighting leaves no source to fall back on, so it is
    # refused before the graph is built
    z_s, z_t, sigma = cases[-3]
    assert solved(z_s, z_t, sigma, np.ones((5, 1)), np.zeros(1)) == ALL_ZERO


def test_build_graph_gaussian_weights():
    # one target identical to source 0, orthogonal to source 1: with no
    # other target to lean on, its labels are the normalized raw affinities
    # exp(0) and exp(-1/sigma^2)
    z_s = np.array([[1.0, 0.0], [0.0, 1.0]])
    z_t = np.array([[1.0], [0.0]])
    p, n_dead = propagate_labels(z_s, z_t, 1.0, np.eye(2))
    raw = np.array([1.0, np.exp(-1.0)])
    assert n_dead == 0
    assert np.allclose(p[:, 0], raw / raw.sum(), atol=1e-14)


def test_build_graph_row_stochastic_and_diagonal():
    # the textbook graph is row-stochastic and non-negative with a zero
    # diagonal; propagate_labels must give its soft labels to its bound,
    # and these make every solvable target a probability distribution
    rng = np.random.default_rng(30)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        z_s = rng.standard_normal((d, int(rng.integers(2, 8))))
        z_t = rng.standard_normal((d, int(rng.integers(1, 8))))
        sigma = float(rng.uniform(0.05, 2.0))
        y = random_labels(rng, z_s.shape[1])
        w_ts, w_tt = textbook_graph(z_s, z_t, sigma)
        assert np.allclose(w_ts.sum(axis=1) + w_tt.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diag(w_tt) == 0.0)
        got = solved(z_s, z_t, sigma, y)
        assert_near_textbook(got, textbook_outcome(z_s, z_t, sigma, y))
        if isinstance(got, tuple):
            p = got[0]
            assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
            assert np.all(p >= -1e-15)


def test_propagate_single_target_no_coupling():
    # source 1 sits at cosine distance sqrt(ln(7/3)) from the only target,
    # which sits on source 0: at sigma = 1 the raw affinities are 1 and 3/7,
    # so with no other target to lean on its labels are (0.7, 0.3)
    t = 1.0 - np.sqrt(np.log(7.0 / 3.0))
    z_s = np.array([[1.0, t], [0.0, np.sqrt(1.0 - t * t)]])
    z_t = np.array([[1.0], [0.0]])
    p, n_dead = propagate_labels(z_s, z_t, 1.0, np.eye(2))
    assert n_dead == 0
    assert np.allclose(p[:, 0], [0.7, 0.3], atol=1e-15)


def test_propagate_two_target_coupling():
    # s0, t0, t1, s1 at 35 degree steps on a circle, sigma small enough that
    # only neighbors connect: each target sees one source and the other
    # target equally, so solving the harmonic system pulls it a third of
    # the way toward the other's class
    angles = np.deg2rad([0.0, 35.0, 70.0, 105.0])
    points = np.vstack([np.cos(angles), np.sin(angles)])
    z_s, z_t = points[:, [0, 3]], points[:, [1, 2]]
    w_ts, w_tt = textbook_graph(z_s, z_t, 0.02)
    assert np.allclose(w_ts, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    assert np.allclose(w_tt, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
    p, _ = propagate_labels(z_s, z_t, 0.02, np.eye(2))
    assert np.allclose(p, fixed_point_oracle(w_ts, w_tt, np.eye(2)), atol=1e-10)
    assert np.allclose(p[:, 0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    assert np.allclose(p[:, 1], [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_propagate_matches_fixed_point_on_random_graphs():
    # a row-stochastic, non-negative graph makes every target a probability
    # distribution
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        z_s = rng.standard_normal((d, int(rng.integers(2, 9))))
        z_t = rng.standard_normal((d, int(rng.integers(1, 9))))
        sigma = float(rng.uniform(0.3, 2.0))
        y = random_labels(rng, z_s.shape[1])
        p, _ = propagate_labels(z_s, z_t, sigma, y)
        oracle = fixed_point_oracle(*textbook_graph(z_s, z_t, sigma), y)
        assert np.abs(p - oracle).max() <= 1e-8
        assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(p >= -1e-15)


def test_underflow_falls_back_to_uniform_affinities():
    # mutually orthogonal vectors at tiny sigma: every affinity underflows,
    # each row becomes 1/4 on the three sources and the other target, and
    # f = (2/4, 1/4) + f/4 gives (2/3, 1/3) for both targets
    e = np.eye(5)
    y = np.eye(2)[[0, 0, 1]]
    p, n_dead = propagate_labels(e[:, :3], e[:, 3:], 1e-3, y)
    assert n_dead == 0
    assert np.allclose(p, [[2.0 / 3.0] * 2, [1.0 / 3.0] * 2], atol=1e-12)


def test_subnormal_sigma_underflows_like_a_tiny_one():
    # (d / sigma)**2 overflows below sigma ~1e-154 and 1/sigma below the
    # smallest normal double; the affinities must still underflow to the
    # uniform fallback, as in the textbook chain, and propagate_labels must
    # not warn about it (every warning is an error here)
    e = np.eye(5)
    y = np.eye(2)[[0, 0, 1]]
    for sigma in (1e-160, 1e-300, 1e-310, 5e-324):
        got = solved(e[:, :3], e[:, 3:], sigma, y)
        with np.errstate(over="ignore"):
            want = textbook_outcome(e[:, :3], e[:, 3:], sigma, y)
        assert_near_textbook(got, want)
        assert np.allclose(got[0], [[2.0 / 3.0] * 2, [1.0 / 3.0] * 2], atol=1e-12)


def test_huge_and_tiny_features_give_the_soft_labels_of_unscaled_ones():
    # the kernel reads a column whose norm lies in [2**-250, 2**250) where
    # the caller holds it and first scales any other by a power of two,
    # exactly; either way every intermediate scales by a power of two, so a
    # column that changes route changes no bit, and the columns around it
    # keep theirs.  2**249 and 2**-250 split the columns between the routes.
    # At sigma 1e-300, a norm of 2**400 over sigma would overflow
    rng = np.random.default_rng(41)
    z_s, z_t = rng.standard_normal((4, 30)), rng.standard_normal((4, 20))
    y = random_labels(rng, 30)
    w = rng.random(y.shape[1])
    norms = np.linalg.norm(np.hstack([z_s, z_t]), axis=0)
    for scale, edge in ((2.0 ** 249, 2.0 ** 250), (2.0 ** -250, 2.0 ** -250)):
        assert (norms * scale < edge).any() and (norms * scale >= edge).any()
    for sigma, weights in ((0.5, ()), (0.5, (w,)), (1e-300, ()), (1e-300, (w,))):
        want = outcome(z_s, z_t, sigma, y, *weights)
        assert not isinstance(want, str)
        for scale in (2.0 ** 520, 2.0 ** 1000, 2.0 ** -560, 2.0 ** -900,
                      2.0 ** 400, 2.0 ** 249, 2.0 ** -250):
            assert outcome(z_s * scale, z_t * scale, sigma, y, *weights) == want
            some_s, some_t = z_s.copy(), z_t.copy()
            some_s[:, [0, 7]] *= scale
            some_t[:, 3] *= scale
            assert outcome(some_s, some_t, sigma, y, *weights) == want
    # columns of subnormal entries, exact multiples of the smallest double,
    # give the soft labels of the same integers
    ints_s, ints_t = z_s.copy(), z_t.copy()
    ints_s[:, 2], ints_t[:, 4] = [3.0, -5.0, 7.0, 1.0], [-2.0, 9.0, 4.0, -6.0]
    want = outcome(ints_s, ints_t, 0.5, y)
    ints_s[:, 2] *= 2.0 ** -1074
    ints_t[:, 4] *= 2.0 ** -1074
    assert 0.0 < np.abs(ints_t[:, 4]).max() < np.finfo(float).tiny
    assert outcome(ints_s, ints_t, 0.5, y) == want


@st.composite
def scaled_graphs(draw):
    """Small graphs with d below or above n, sigma over decades, and zero or far-scaled columns."""
    d, n_s, n_t = draw(st.integers(2, 12)), draw(st.integers(2, 10)), draw(st.integers(1, 10))
    sigma = draw(st.sampled_from([1e-3, 0.03, 0.3, 3.0, 300.0]))
    odd = st.tuples(st.integers(0, n_s + n_t - 1), st.sampled_from([0.0, 2.0 ** -600, 2.0 ** 600]))
    columns = draw(st.lists(odd, max_size=3, unique_by=lambda c: c[0]))
    return d, n_s, n_t, sigma, columns, draw(st.booleans()), draw(st.integers(0, 2**16))


@given(scaled_graphs(), st.sampled_from([-300, -131, 7, 260]))
def test_soft_labels_are_stochastic_repeatable_and_scale_free(case, shift):
    # wherever the solve succeeds: soft labels non-negative to rounding,
    # columns summing to one, the same bits on a second call and after every
    # column is scaled by a power of two, which moves columns between routes
    d, n_s, n_t, sigma, columns, weighted, seed = case
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, n_s + n_t))
    for j, scale in columns:
        z[:, j] *= scale
    y = random_labels(rng, n_s)
    args = (z[:, :n_s], z[:, n_s:], sigma, y) + ((rng.random(y.shape[1]),) if weighted else ())
    got = solved(*args)
    if isinstance(got, str):
        return
    p = got[0]
    assert p.min() >= -1e-12
    assert np.abs(p.sum(axis=0) - 1.0).max() <= partialda.graph._MASS_TOL
    want = outcome(*args)
    assert outcome(*args) == want
    z = z * 2.0 ** shift
    assert outcome(z[:, :n_s], z[:, n_s:], *args[2:]) == want


@given(scaled_graphs(), st.integers(0, 2**16))
def test_soft_labels_follow_the_targets_order(case, order):
    # permuting the targets permutes their soft labels: the same fallback
    # count, or the same error class.  Only rounding moves, as row sums and
    # the LU pivots run in another order.  Each solve is a backward-stable
    # LU of I - W_tt, whose entries are rounded a few eps, so its labels,
    # at most 1 in size, are within eps * cond of the exact ones, as the
    # textbook comparisons hold them, or TEXTBOOK_TOL where that is larger;
    # the two solves are within twice that of each other
    d, n_s, n_t, sigma, columns, weighted, seed = case
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, n_s + n_t))
    plain = z.copy()  # the same cosines, for the textbook's cond
    for j, scale in columns:
        z[:, j] *= scale
        plain[:, j] *= bool(scale)
    y = random_labels(rng, n_s)
    weights = (rng.random(y.shape[1]),) if weighted else ()
    perm = np.random.default_rng(order).permutation(n_t)
    try:
        p, n_dead = propagate_labels(z[:, :n_s], z[:, n_s:], sigma, y, *weights)
    except (NumericalError, ValidationError) as exc:
        with pytest.raises(type(exc)):
            propagate_labels(z[:, :n_s], z[:, n_s + perm], sigma, y, *weights)
        return
    q, q_dead = propagate_labels(z[:, :n_s], z[:, n_s + perm], sigma, y, *weights)
    assert q_dead == n_dead
    w_ts, w_tt = textbook_graph(plain[:, :n_s], plain[:, n_s:], sigma)
    if weighted:
        w_tt = textbook_reweight(w_ts, w_tt, weights[0], y.argmax(axis=1))[1]
    cond = np.linalg.cond(np.eye(n_t) - w_tt)
    assert cond < MAX_COND
    assert np.abs(p[:, perm] - q).max() <= 2 * max(TEXTBOOK_TOL, np.finfo(float).eps * cond)


def test_subnormal_affinities_keep_their_weighted_mass():
    # two sources and 300 targets, all mutually orthogonal, at a sigma where
    # every affinity is exp(-741) ~ 1.5e-322, a subnormal: every row, over two
    # blocks, is scaled up before it is weighted.  The rows being alike,
    # each target's labels are the sources' classes in proportion to their
    # weights, 0.4 : 1.0, as if each row had been divided by its sum first
    e = np.eye(2 + 300)
    assert 0.0 < np.exp(-741.0) < np.finfo(float).tiny
    p, n_dead = propagate_labels(e[:, :2], e[:, 2:], 741.0 ** -0.5, np.eye(2),
                                 np.array([0.4, 1.0]))
    assert n_dead == 0
    assert np.abs(p - np.array([[0.4], [1.0]]) / 1.4).max() <= 1e-12


def test_propagate_permutation_equivariance():
    # permuting source samples together with their labels must not change
    # the result (only summation order differs, hence the 1e-15 slack)
    rng = np.random.default_rng(32)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n_s = int(rng.integers(2, 9))
        z_s = rng.standard_normal((d, n_s))
        z_t = rng.standard_normal((d, int(rng.integers(2, 7))))
        y = random_labels(rng, n_s)
        perm = rng.permutation(n_s)
        p1, _ = propagate_labels(z_s, z_t, 0.5, y)
        p2, _ = propagate_labels(z_s[:, perm], z_t, 0.5, y[perm])
        assert np.abs(p1 - p2).max() <= 1e-15

    # permuting the targets permutes their soft labels, to rounding, though
    # the permuted triangle falls in other _BLOCK_ROWS blocks; the same rows
    # fall back.  Sources and targets lie in the e1-e2 plane, besides one
    # source of masked class 0 and one target on e3: at this sigma their
    # affinities to the plane underflow, so the weighting empties that
    # target's row
    def in_plane(n):
        angles = rng.uniform(0, 2 * np.pi, n)
        return np.vstack([np.cos(angles), np.sin(angles), np.zeros(n)])

    n_s, sigma = 12, 0.03
    z_s = in_plane(n_s)
    z_s[:, 0] = [0.0, 0.0, 1.0]
    y = np.eye(4)[np.concatenate([[0], rng.integers(1, 4, n_s - 1)])]
    for n_t in (5, 257, 600):
        z_t = in_plane(n_t)
        z_t[:, -1] = [0.0, 0.0, 1.0]
        perm = rng.permutation(n_t)
        for weights, fallbacks in ((None, 0), (np.array([0.0, 0.5, 1.0, 0.7]), 1)):
            p1, f1 = propagate_labels(z_s, z_t, sigma, y, weights)
            p2, f2 = propagate_labels(z_s, z_t[:, perm], sigma, y, weights)
            assert f1 == f2 == fallbacks
            assert np.abs(p1[:, perm] - p2).max() <= 1e-12


def test_propagate_singular_system():
    # two identical targets orthogonal to both sources: the source
    # affinities underflow, the targets lean only on each other and
    # (I - W_tt) loses rank
    z_s = np.array([[1.0, 1.0], [0.0, 0.0]])
    z_t = np.array([[0.0, 0.0], [1.0, 1.0]])
    w_ts, w_tt = textbook_graph(z_s, z_t, 0.02)
    assert np.all(w_ts == 0.0) and np.array_equal(w_tt, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError, match="singular"):
        propagate_labels(z_s, z_t, 0.02, np.eye(2))


def test_propagate_labels_singular_system_error_text():
    # two targets on the source of masked class 0; the class-1 source is
    # orthogonal, so its affinity underflows to 0.0 at this sigma.  The
    # targets lean only on each other, and I - W_tt has the all-ones vector
    # in its null space
    z_s = np.eye(2)
    z_t = np.eye(2)[:, [0, 0]]
    w = np.array([0.0, 1.0])
    with pytest.raises(NumericalError) as exc:
        propagate_labels(z_s, z_t, 0.02, np.eye(2), w)
    assert str(exc.value) == SINGULAR
    assert textbook_outcome(z_s, z_t, 0.02, np.eye(2), w, np.array([0, 1])) == SINGULAR


@pytest.mark.parametrize("y_s, message", [(-np.eye(2), NOT_BINARY), (0.5 * np.eye(2), NOT_BINARY),
                                          (np.ones((2, 2)), NOT_ONE_HOT),
                                          (np.array([[1.0, 0.0], [0.0, 0.0]]), NOT_ONE_HOT)])
def test_propagate_labels_refuses_labels_that_are_not_one_hot(y_s, message):
    # core.check_label_matrix's rule, by its words; these once reached the
    # solve and came back as targets without source mass
    with pytest.raises(ValidationError) as exc:
        propagate_labels(np.eye(2), np.ones((2, 1)), 0.1, y_s)
    assert str(exc.value) == message


def test_propagate_shape_mismatch():
    z = np.ones((2, 2))
    with pytest.raises(ValidationError, match=r"shape \(3, 3\), expected \(2, C\)"):
        propagate_labels(z, z[:, :1], 0.1, np.eye(3))
    with pytest.raises(ValidationError, match=r"shape \(3, 3\), expected \(2, C\)"):
        propagate_labels(z, z[:, :1], 0.1, np.eye(3), np.array([0.8, 0.2]))


def test_build_graph_validation():
    # the embedded samples are checked by core.as_domain_pair, as adapt's features are
    ok = np.ones((2, 3))
    y = np.eye(3)
    for args, message in (
        ((ok, ok, 0.0, y), "sigma must be positive and finite, got 0.0"),
        ((ok, ok, -1.0, y), "sigma must be positive and finite, got -1.0"),
        ((ok, ok, np.nan, y), "sigma must be positive and finite, got nan"),
        ((ok, ok, np.inf, y), "sigma must be positive and finite, got inf"),
        ((ok, ok, -np.inf, y), "sigma must be positive and finite, got -inf"),
        ((ok, np.ones((3, 2)), 0.5, y), "source and target feature dimensions differ: 2 vs 3"),
        ((ok, np.ones(3), 0.5, y), "target features must be 2-dimensional, got shape (3,)"),
        ((ok, np.ones((2, 0)), 0.5, y), "target features must be non-empty, got shape (2, 0)"),
        ((np.ones((2, 0)), ok, 0.5, y), "source features must be non-empty, got shape (2, 0)"),
        ((np.ones((0, 3)), np.ones((0, 3)), 0.5, y),
         "source features must be non-empty, got shape (0, 3)"),
    ):
        with pytest.raises(ValidationError) as exc:
            propagate_labels(*args)
        assert str(exc.value) == message


class BufferBuilt(AssertionError):
    pass


def no_buffers(*args):
    raise BufferBuilt("a graph buffer was built before the inputs were checked")


def assert_kernel_reached(args):
    """The valid call ``propagate_labels(*args)`` reaches the kernel ``no_buffers`` replaces."""
    with pytest.raises(BufferBuilt):
        propagate_labels(*args)


def test_propagate_labels_validation_matches_public_functions(monkeypatch):
    # graph, sample-weight and label checks all run before the kernel that
    # allocates the graph, and each names the offending input in a fixed text
    monkeypatch.setattr(partialda.graph, "_affinity_blocks", no_buffers)
    ok = np.ones((2, 3))
    y = np.eye(3)
    w = np.array([0.8, 0.2, 0.8])
    rows = ("label matrix has shape (4, 4), expected (3, C): "
            "one row per source sample, one column per class")
    source_nan, target_nan = (f"{side} features contains NaN or Inf entries"
                              for side in ("source", "target"))
    for args, message in (
        ((ok, ok, np.nan, y), "sigma must be positive and finite, got nan"),
        ((ok, ok, 0.0, y), "sigma must be positive and finite, got 0.0"),
        ((ok, np.ones((3, 2)), 0.5, y), "source and target feature dimensions differ: 2 vs 3"),
        ((ok, np.ones((2, 0)), 0.5, y), "target features must be non-empty, got shape (2, 0)"),
        ((np.ones((0, 3)), np.ones((0, 3)), 0.5, y),
         "source features must be non-empty, got shape (0, 3)"),
        ((ok, ok, 0.5, y, w[:1]), "class_weights has shape (1,), expected (3,)"),
        ((ok, ok, 0.5, y, w[None, :]), "class_weights has shape (1, 3), expected (3,)"),
        ((ok, ok, 0.5, y, [0.8, -0.2, 0.8]), "class_weights must be non-negative"),
        ((ok, ok, 0.5, y, [0.8, np.nan, 0.8]), "class_weights contains NaN or Inf entries"),
        ((ok, ok, 0.5, y, [0.8, np.inf, 0.8]), "class_weights contains NaN or Inf entries"),
        ((ok, ok, 0.5, y, [0.0, 0.0, 0.0]), ALL_ZERO),
        # weights only on a class without a source sample, or labels that
        # are not one-hot
        ((ok, ok, 0.5, y[[0, 1, 0]], [0.0, 0.0, 0.8]), NO_SOURCE),
        ((ok, ok, 0.5, -y, w), NOT_BINARY),
        ((ok, ok, 0.5, np.ones((3, 3)), w), NOT_ONE_HOT),
        ((ok, ok, 0.5, np.eye(4)), rows),
        ((ok, ok, 0.5, np.zeros(3)), "label matrix has shape (3,), expected (3, C): "
         "one row per source sample, one column per class"),
        ((ok, ok, 0.5, np.eye(4), w), rows),
        ((ok * np.nan, ok, 0.5, y), source_nan),
        ((ok, ok * np.inf, 0.5, y), target_nan),
        ((ok, ok * -np.inf, 0.5, y, w), target_nan),
        ((ok, ok, 0.5, y * np.nan), NOT_BINARY),
        ((ok, ok, 0.5, np.where(y > 0, np.inf, y), w), NOT_BINARY),
    ):
        with pytest.raises(ValidationError) as exc:
            propagate_labels(*args)
        assert str(exc.value) == message
    assert_kernel_reached((ok, ok, 0.5, y, w))


@pytest.mark.parametrize("sigma", [True, None, "0.1", np.nan, 0, -1])
def test_sigma_must_be_a_positive_number(sigma):
    # a bool, None or a string is no bandwidth: refused by the graph and by
    # the baseline, which passes sigma straight on, like a non-positive one
    x, y = np.eye(3), np.eye(3)
    for call in (lambda: propagate_labels(x, x, sigma, y),
                 lambda: baseline_propagate(x, y, x, sigma)):
        with pytest.raises(ValidationError, match="^sigma must be "):
            call()


def test_reweight_hand_example():
    # one target equidistant from two sources: weights [0.8, 0.2] over one
    # sample each turn (0.5*1.0, 0.5*0.25) / 0.625 into (0.8, 0.2)
    p, n_dead = propagate_labels(np.eye(2), np.ones((2, 1)), 0.1, np.eye(2),
                                 np.array([0.8, 0.2]))
    assert n_dead == 0
    assert np.allclose(p[:, 0], [0.8, 0.2], atol=1e-15)


def test_reweight_uniform_weights_is_identity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n_s = int(rng.integers(2, 9))
        z_s = rng.standard_normal((d, n_s))
        z_t = rng.standard_normal((d, int(rng.integers(2, 7))))
        y = random_labels(rng, n_s)
        c = y.shape[1]
        w = np.full(c, 1.0 / c)
        p1, _ = propagate_labels(z_s, z_t, 0.5, y)
        p2, n_dead = propagate_labels(z_s, z_t, 0.5, y, w)
        assert n_dead == 0
        assert np.abs(p1 - p2).max() <= 1e-12


def test_reweight_masked_class_columns_become_zero():
    # a masked class loses its source columns, so no target inherits it
    rng = np.random.default_rng(34)
    z_s = rng.standard_normal((3, 6))
    z_t = rng.standard_normal((3, 4))
    classes = np.array([0, 1, 2, 0, 1, 2])
    w = np.array([0.8, 0.0, 0.2])
    y = np.eye(3)[classes]
    p, n_dead = propagate_labels(z_s, z_t, 0.5, y, w)
    assert n_dead == 0
    assert np.all(p[1] == 0.0)
    assert np.all(p[[0, 2]] > 0.0)
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)


def test_reweight_dead_row_fallbacks():
    # every class masked leaves no source to fall back on, even for a single
    # target: refused as input
    rng = np.random.default_rng(40)
    with pytest.raises(ValidationError) as exc:
        propagate_labels(np.eye(3)[:, :2], rng.standard_normal((3, 1)), 0.5,
                         np.eye(2), np.zeros(2))
    assert str(exc.value) == ALL_ZERO

    # class 0 masked: the single target at 175 degrees sees only the class-0
    # source at 170 at this sigma, and its fallback row is the uniform row
    # reweighted, so masked class 0 still gets no mass
    angles = np.deg2rad([170.0, 0.0, 175.0])
    z = np.vstack([np.cos(angles), np.sin(angles)])
    p, n_dead = propagate_labels(z[:, :2], z[:, 2:], 0.02, np.eye(2), np.array([0.0, 1.0]))
    assert n_dead == 1
    assert np.array_equal(p, [[0.0], [1.0]])

    # target 0 sits on the class-1 source and sees nothing else at this
    # sigma; masking class 1 empties its row, which falls back to the
    # uniform row reweighted: the class-0 source and target 1, which sits
    # on it
    e = np.eye(2)
    p, n_dead = propagate_labels(e, e[:, [1, 0]], 0.02, np.eye(2),
                                 np.array([0.5, 0.0]))
    assert n_dead == 1
    assert np.array_equal(p, [[1.0, 1.0], [0.0, 0.0]])

    # the same rule beside another target: target 0 sits on the masked
    # class-1 source, target 1 on the class-2 one, and target 0's row is
    # 1/3 to each of the class-0 source, the class-2 source and target 1:
    # (e0 + e2 + e2) / 3
    p, n_dead = propagate_labels(np.eye(3), np.eye(3)[:, [1, 2]], 0.02, np.eye(3),
                                 [1.0, 0.0, 1.0])
    assert n_dead == 1
    assert np.allclose(p, [[1 / 3, 0.0], [0.0, 0.0], [2 / 3, 1.0]], rtol=0, atol=1e-15)

    # every target emptied: both see only class-1 sources, so each row is
    # 1/2 to the class-0 source and 1/2 to the other target, and both get
    # the weighted class prior (1, 0); every row is counted
    p, n_dead = propagate_labels(np.eye(4)[:, :3], np.eye(4)[:, [1, 2]], 0.02,
                                 np.eye(2)[[0, 1, 1]], [1.0, 0.0])
    assert n_dead == 2
    assert np.allclose(p, [[1.0, 1.0], [0.0, 0.0]], rtol=0, atol=1e-15)


def test_reweight_validation(monkeypatch):
    monkeypatch.setattr(partialda.graph, "_affinity_blocks", no_buffers)
    args = (np.eye(2), np.ones((2, 1)), 0.1, np.eye(2))
    assert_kernel_reached(args + (np.array([0.8, 0.2]),))
    for w, message in (
        (np.array([0.8]), r"class_weights has shape \(1,\), expected \(2,\)"),
        (np.array([0.8, 0.2, 0.0]), r"class_weights has shape \(3,\), expected \(2,\)"),
        (np.array([-0.1, 0.2]), "class_weights must be non-negative"),
        (np.array([np.nan, 0.2]), "class_weights contains NaN or Inf entries"),
        (np.array([0.8, -np.inf]), "class_weights contains NaN or Inf entries"),
    ):
        with pytest.raises(ValidationError, match=message):
            propagate_labels(*args, w)


def read_only(a, order):
    """``a`` read-only in ``order``; "F" gives the kind of view ``load_features_csv`` returns."""
    parsed = np.array(a.T if order == "F" else a, order="C")
    parsed.setflags(write=False)
    return parsed.T if order == "F" else parsed


def test_propagate_labels_leaves_its_inputs_unchanged():
    # every input read-only, so a write into any of them raises, the
    # features also column-major and with a column out of the kernel's range
    rng = np.random.default_rng(38)
    classes = np.array([0, 1, 2, 0, 1, 2])
    y = read_only(np.eye(3)[classes], "C")
    for n_t, order, huge in ((4, "C", 1.0), (1, "C", 1.0), (4, "F", 1.0), (4, "F", 2.0 ** 600)):
        z_s = read_only(rng.standard_normal((3, 6)) * ([1.0] * 5 + [huge]), order)
        z_t = read_only(rng.standard_normal((3, n_t)), order)
        assert not (z_s.flags.writeable or z_t.flags.writeable)
        assert z_s.flags.f_contiguous == (order == "F")
        for mask in (None, np.array([1.0, 0.0, 1.0]), np.zeros(3)):  # last: dead rows
            w = None if mask is None else np.array([0.8, 0.1, 0.2]) * mask
            inputs = [z_s, z_t, y] + ([] if w is None else [w])
            before = [a.tobytes() for a in inputs]
            args = (z_s, z_t, 0.5, y) if w is None else (z_s, z_t, 0.5, y, w)
            try:
                propagate_labels(*args)
            except ValidationError:  # every class masked
                assert mask is not None and not mask.any()
            assert [a.tobytes() for a in inputs] == before


BLOCK = partialda.graph._BLOCK_ROWS
LONELY = (300, 500, 511)  # alone on axes 5, 6, 7: every affinity underflows
ON_MASKED = (400, 2 * BLOCK)  # the only targets on axes 3 and 4, whose classes get masked


def multi_block_case(rng, pair=False):
    """513 targets over three blocks, with the fallback rows past the first block.

    Sources of classes 0-4 sit in tight clusters on axes 0-4 and most targets
    on axes 0-2, at a sigma where every cross-axis affinity underflows to
    0.0.  The ``LONELY`` rows fall back to uniform affinities when built; the
    ``ON_MASKED`` rows lose all their mass when classes 3 and 4 are masked and
    fall back the same way, reweighted; the last of them is alone in the
    last block.  With ``pair``, the first and last lonely targets share
    axis 5, so they see only each other and ``I - W_tt`` is singular.
    """
    n_t = 2 * BLOCK + 1
    classes = np.repeat(np.arange(5), 12)
    on_t = rng.integers(0, 3, n_t)
    on_t[list(LONELY)] = (5, 6, 7)
    on_t[list(ON_MASKED)] = (3, 4)
    if pair:
        on_t[LONELY[-1]] = 5
    z_s = np.eye(8)[:, classes] + 0.01 * rng.standard_normal((8, classes.size))
    z_t = np.eye(8)[:, on_t] + 0.01 * rng.standard_normal((8, n_t))
    return z_s, z_t, 0.02, np.eye(5)[classes], classes


def edge_cases(rng):
    """The multi-block case, then single targets on its sources: plain, dead, masked out."""
    z_s, z_t, sigma, y, classes = multi_block_case(rng)
    yield z_s, z_t, sigma, y, classes
    for z_t in (rng.standard_normal((8, 1)),  # n_t = 1
                np.eye(8)[:, 7:8],  # its only row dead when built
                np.eye(8)[:, 3:4]):  # sees only class 3, which gets masked
        yield z_s, z_t, sigma, y, classes


# no weights, classes 3 and 4 masked
WEIGHTINGS = (None, np.array([0.9, 0.5, 0.7, 0.0, 0.0]))


def test_multi_block_matches_textbook_and_fixed_point():
    # rows past the first block put their diagonal at column r0 + i; the
    # fallbacks there, and those of a single target, must match the
    # textbook chain over the whole graph
    rng = np.random.default_rng(41)
    fallbacks = []
    for z_s, z_t, sigma, y, classes in edge_cases(rng):
        n_t = z_t.shape[1]
        w_ts, w_tt = textbook_graph(z_s, z_t, sigma)
        if n_t > BLOCK:
            for i in LONELY:
                assert np.all(w_ts[i] == w_ts[i, 0]) and np.all(w_tt[i, :i] == w_ts[i, 0])
        for w in WEIGHTINGS:
            if w is None:
                p, n_dead = propagate_labels(z_s, z_t, sigma, y)
                g_ts, g_tt, want_dead = w_ts, w_tt, 0
            else:
                p, n_dead = propagate_labels(z_s, z_t, sigma, y, w)
                g_ts, g_tt, want_dead = textbook_reweight(w_ts, w_tt, w, classes)
            assert n_dead == want_dead
            assert np.abs(p - textbook_propagate(g_ts, g_tt, y)).max() <= 1e-12
            assert np.abs(p - fixed_point_oracle(g_ts, g_tt, y)).max() <= 1e-10
            if w is not None:
                fallbacks.append(n_dead)
            if w is not None and w.any():
                assert np.all(p[w == 0] == 0.0)
    # past the first block only the ON_MASKED rows die, as the others keep
    # their target mass; a single target dies when it sees only masked classes
    assert fallbacks == [len(ON_MASKED), 0, 0, 1]


@pytest.mark.parametrize("n_t", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_target_affinities_are_symmetric_across_block_edges(n_t):
    # each block mirrors the rows it has just written: one block, one short
    # of it, exactly one, one past it, and a partial last block give a K_tt
    # equal to its transpose bit for bit, with a zero diagonal.  Targets
    # spread over a narrow arc of the e1-e2 plane, with the sources; those
    # at the block edges sit alone on axes of their own.  At the smaller
    # sigma every affinity of a lone target is exp(-741), a subnormal, so
    # its row is faint and its column comes back divided by _FAINT, a power
    # of two: multiplied back, it is exact again
    lone = sorted({0, BLOCK - 1, BLOCK, n_t - 1} & set(range(n_t)))
    rng = np.random.default_rng(60)

    def on_arc(n):
        angles = rng.uniform(0, 0.3, n)
        return np.vstack([np.cos(angles), np.sin(angles), np.zeros((len(lone), n))])

    z_s, z_t = on_arc(40), on_arc(n_t)
    z_t[:, lone] = np.eye(2 + len(lone))[:, 2:]
    for sigma, faint in ((0.5, []), (741.0 ** -0.5, lone)):
        k_tt = partialda.graph._affinity_blocks(z_s, z_t, sigma, np.ones((40, 1)))[0]
        # no lone affinity underflows to 0, so each one is checked
        assert np.count_nonzero(k_tt[lone]) == len(lone) * (n_t - 1)
        k_tt[:, faint] *= partialda.graph._FAINT
        assert k_tt.tobytes() == k_tt.T.tobytes()
        assert not k_tt.diagonal().any()


def test_solve_fallback_is_bit_identical_to_in_place(monkeypatch):
    # without numpy's dgesv, np.linalg.solve factors a copy of the same
    # Fortran-ordered system: the same bits and the same fallback counts
    rng = np.random.default_rng(42)
    cases = [(z_s, z_t, sigma, y, *(() if w is None else (w,)))
             for z_s, z_t, sigma, y, _ in edge_cases(rng)
             for w in WEIGHTINGS]
    cases += [(z_s, z_t, sigma, random_labels(rng, z_s.shape[1]))
              for z_s, z_t, sigma in owned_cases(rng) if z_s.shape[1] > 1]
    in_place = [outcome(*args) for args in cases]
    monkeypatch.setattr(partialda._lapack, "_lookup", dict)
    assert [outcome(*args) for args in cases] == in_place


def test_harmonic_solve_is_within_its_forward_error_bound_of_a_40_digit_solve(monkeypatch):
    # every system gesv is handed, and its right-hand side, is copied and
    # solved again by mpmath at 40 digits, exact for these bounds.  I - W_tt
    # is diagonally dominant by rows, so LU with partial pivoting grows its
    # entries by at most 2 (Wilkinson; Higham, Thm 9.9), which scipy's LU of
    # the same copy confirms.  Its backward error is then about
    # 3 n_t eps * 2 (Higham, Thm 9.4, with ||L||U|| ~ growth * ||A||), and
    # each solution column's relative forward error, so also the whole
    # solution's, at most cond_inf times that: 6 n_t eps cond_inf.  The
    # graphs are drawn as graph_cases and sparse_cases draw them, with up to
    # 24 targets, plus those of graph_cases seed 36, one of cond 6e6
    real, systems = partialda.graph.gesv, []

    def judged(a, b):
        copies = a.copy(), b.copy()
        x = real(a, b)
        systems.append((*copies, x.copy()))
        return x

    def returned(*args):
        """Solve, and judge the system only if its soft labels are returned."""
        mark = len(systems)
        if isinstance(solved(*args), str):
            del systems[mark:]

    monkeypatch.setattr(partialda.graph, "gesv", judged)
    rng = np.random.default_rng(43)
    for z_s, z_t, sigma in itertools.chain(itertools.islice(graph_cases(rng, 24), 10),
                                           itertools.islice(sparse_cases(rng, 24), 8)):
        y, _, (w, _) = weighted_cases(rng, z_s)
        returned(z_s, z_t, sigma, y)
        returned(z_s, z_t, sigma, y, w)
    rng = np.random.default_rng(36)
    for z_s, z_t, sigma in graph_cases(rng):
        y, _, (w, _) = weighted_cases(rng, z_s)
        returned(z_s, z_t, sigma, y, w)
    eps, conds, ratios = np.finfo(float).eps, [], []
    with mpmath.workdps(40):
        for a, b, x in systems:
            n_t = a.shape[0]
            a_mp = mpmath.matrix(a.tolist())
            exact = np.array([[float(v) for v in mpmath.lu_solve(a_mp, mpmath.matrix(col.tolist()))]
                              for col in b.T]).T
            growth = np.abs(np.triu(scipy.linalg.lu_factor(a)[0])).max() / np.abs(a).max()
            assert growth <= 2.0
            cond = np.linalg.cond(a, np.inf)
            error = np.abs(x - exact).max() / np.abs(exact).max()
            assert error <= 6 * n_t * eps * cond
            conds.append(cond)
            ratios.append(error / (eps * cond))
    assert 1e6 < max(conds) < 1e7 and max(a.shape[0] for a, _, _ in systems) > 20
    print(f"{len(systems)} systems, largest error / (eps cond) {max(ratios):.3g}")


@pytest.mark.parametrize("path", ["in place", "np.linalg.solve"])
def test_singular_system_error_text_on_both_paths(monkeypatch, path):
    if path != "in place":
        monkeypatch.setattr(partialda._lapack, "_lookup", dict)
    z_s, z_t, sigma, y, _ = multi_block_case(np.random.default_rng(43), pair=True)
    w_tt = textbook_graph(z_s, z_t, sigma)[1]
    assert w_tt[LONELY[0], LONELY[-1]] == w_tt[LONELY[-1], LONELY[0]] == 1.0
    small = (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]]), 0.02,
             np.eye(2))
    for args in ((z_s, z_t, sigma, y), (z_s, z_t, sigma, y, np.ones(y.shape[1])), small):
        with pytest.raises(NumericalError) as exc:
            propagate_labels(*args)
        assert str(exc.value) == SINGULAR


def test_targets_without_source_mass_fail_loudly():
    # targets 100-279 sit on the sources of masked class 1, and every other
    # affinity underflows to 0.0 at this sigma.  The cluster leans only on
    # itself, yet LU meets no exact zero pivot at this size: the solve
    # succeeds and leaves those columns summing to 0 instead of 1
    rng = np.random.default_rng(46)
    on_t = np.zeros(300, dtype=int)
    on_t[100:280] = 1
    classes = np.repeat([0, 1], 10)
    z_s = np.eye(3)[:, classes] + 0.01 * rng.standard_normal((3, 20))
    z_t = np.eye(3)[:, on_t] + 0.01 * rng.standard_normal((3, 300))
    y, w = np.eye(2)[classes], np.array([1.0, 0.0])
    got = solved(z_s, z_t, 0.02, y, w)
    assert got.startswith("180 of 300 targets receive too little source mass (target 100: ")
    assert got == textbook_outcome(z_s, z_t, 0.02, y, w, classes)


def test_nearly_singular_solve_fails_loudly():
    # two coincident targets at 27 degrees from both sources: their source
    # affinities are ~1e-13 against a mutual affinity of 1, and the solve
    # loses the labels' unit sum (0.99995 unweighted)
    angles = np.deg2rad([0.0, 0.0, 27.0, 27.0])
    z = np.vstack([np.cos(angles), np.sin(angles)])
    for w in (None, np.array([1.0, 0.5])):
        args = (z[:, :2], z[:, 2:], 0.02, np.eye(2)) + (() if w is None else (w,))
        got = solved(*args)
        assert got.startswith("2 of 2 targets receive too little source mass (target 0: ")
        assert got == textbook_outcome(*args[:4], w, None if w is None else np.arange(2))


# A ufunc over a strided view, such as a block of the system's rows, takes
# numpy's iterator buffers of np.getbufsize() doubles, one per operand: at
# most three at a time in the graph
UFUNC_BUFFERS = 3 * 8 * np.getbufsize()


def working_set_cases(rng):
    """Random graphs at d = 8 and at two d-heavy shapes, then one whose every row is faint."""
    for d, n_s, n_t in ((8, 1200, 1200), (512, 300, 300), (1024, 200, 400)):
        z_s, z_t = rng.standard_normal((d, n_s)), rng.standard_normal((d, n_t))
        y = random_labels(rng, n_s)
        yield z_s, z_t, 0.5, y
        yield z_s, z_t, 0.5, y, rng.random(y.shape[1])
    # the graph of test_subnormal_affinities_keep_their_weighted_mass, at
    # d = 302: every target's unit column over sigma is built twice
    e = np.eye(2 + 300)
    yield e[:, :2].copy(), e[:, 2:].copy(), 741.0 ** -0.5, np.eye(2), np.array([0.4, 1.0])


def test_graph_working_set_stays_below_one_and_a_half_target_squares():
    # the n_t^2 system, one block of source affinities and one block of unit
    # target columns over sigma are all the graph allocates: 8 (n_t^2 + 256
    # (n_s + d)) bytes, where whole W_ts and W_tt blocks need 2 n_t^2
    # doubles at n_s = n_t.  The features are read where the caller holds
    # them: at the d-heavy shapes a d x n copy of both domains would double
    # the peak.  The rest is O(n): the norms, the source masses and the
    # solution, under 20 doubles per sample at C <= 5, and UFUNC_BUFFERS
    for args in working_set_cases(np.random.default_rng(44)):
        (d, n_s), n_t = args[0].shape, args[1].shape[1]
        tracemalloc.start()
        try:
            propagate_labels(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (n_t**2 + BLOCK * (n_s + d) + 20 * (n_s + n_t)) + UFUNC_BUFFERS
        assert peak < bound, (d, n_s, n_t, peak / bound)


@pytest.mark.skipif(not NUMPY_OPENBLAS, reason="numpy ships no libscipy_openblas64_")
def test_system_is_solved_in_place(monkeypatch):
    # tracemalloc does not see LAPACK's copy of the system, so show that
    # np.linalg.solve, which makes one, is not called
    def copying_solve(*args):
        raise AssertionError("np.linalg.solve copied the system")

    monkeypatch.setattr(np.linalg, "solve", copying_solve)
    rng = np.random.default_rng(45)
    z_s, z_t = rng.standard_normal((4, 30)), rng.standard_normal((4, 600))
    y = random_labels(rng, 30)
    p, _ = propagate_labels(z_s, z_t, 0.5, y)
    assert "dgesv" in partialda._lapack._lookup()
    assert np.allclose(p.sum(axis=0), 1.0, atol=1e-12)


def test_non_finite_solution_is_refused(monkeypatch):
    # a solve that returns NaN without raising is named, not passed on
    monkeypatch.setattr(partialda.graph, "gesv", lambda a, b: np.full(b.shape, np.nan))
    rng = np.random.default_rng(46)
    z_s, z_t = rng.standard_normal((4, 12)), rng.standard_normal((4, 9))
    with pytest.raises(NumericalError, match=f"^{re.escape(NON_FINITE)}$"):
        propagate_labels(z_s, z_t, 0.5, random_labels(rng, 12))
