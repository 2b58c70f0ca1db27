import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fractal_remez import covering
from fractal_remez.covering import (BETA, BLOCK_ENTRIES, DEFAULT_GAMMA,
                                    CartanDiskReport, CoverOutput,
                                    DiscreteMeasureSpace, MajorantFn,
                                    _atom_distances,
                                    _circle_max_abs, _distances,
                                    _step_scan, cartan_exclusion_disks,
                                    greedy_ball_cover, polynomial_zeros,
                                    potential_bound_verify, potential_many,
                                    tau_many, verify_cover)
from fractal_remez.polynomials import Polynomial


def unit_atoms(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return DiscreteMeasureSpace(pts, np.ones(len(pts)))


# -- tau ---------------------------------------------------------------------


def test_tau_zero_mass():
    sp = DiscreteMeasureSpace(np.array([[0.0], [1.0]]), np.zeros(2))
    phi = MajorantFn.power(1.0, 1.0)
    assert tau_many(sp, phi, [[0.3]])[0] == 0.0


def test_tau_single_unit_atom():
    sp = unit_atoms([[0.0]])
    phi = MajorantFn.power(1.0, 1.0)  # phi(t) = t
    assert tau_many(sp, phi, [[0.0]])[0] == pytest.approx(1.0, abs=1e-12)


@given(st.floats(0.01, 100.0))
@settings(max_examples=40)
def test_tau_single_atom_mass_scaling(m):
    sp = DiscreteMeasureSpace(np.array([[0.0]]), np.array([m]))
    phi = MajorantFn.power(1.0, 1.0)
    # xi(closed B_t) = m for all t, so tau = phi^{-1}(m) = m
    assert tau_many(sp, phi, [[0.0]])[0] == pytest.approx(m, rel=1e-12)


def test_tau_far_point_regular():
    sp = unit_atoms([[0.0], [0.2]])
    phi = MajorantFn.power(1.0, 1.0)
    # phi^{-1}(A) = 2; any point farther than 2 from all mass is regular
    assert tau_many(sp, phi, [[5.0]])[0] == 0.0


def brute_force_tau(space, phi, x, t_hi=100.0):
    """Independent oracle: scan jump radii, inverse step levels, and a grid."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.linalg.norm(space.points - x, axis=1)
    keep = space.masses > 0

    def xi(t):
        return float(np.sum(space.masses[keep & (d <= t)]))

    cands = set(d[keep].tolist())
    order = np.argsort(d[keep])
    levels = np.cumsum(space.masses[keep][order])
    cands.update(float(phi.inverse(v)) for v in levels)
    cands.update(np.linspace(0.0, t_hi, 2000).tolist())
    best = 0.0
    for t in cands:
        # grace for the phi(phi^{-1}(level)) float roundtrip
        if t > 0 and xi(t) >= float(phi(t)) * (1 - 1e-12):
            best = max(best, t)
    return best


def test_tau_rejects_underflowing_inverse():
    # phi^{-1}(m) = m^3.2 underflows to 0 here: the lone atom would read
    # as regular, and the greedy cover would leave it uncovered
    space = DiscreteMeasureSpace(np.zeros((1, 2)), np.array([6.3e-118]))
    phi = MajorantFn.power(1.0, 0.3125)
    with pytest.raises(ValueError, match="underflows"):
        tau_many(space, phi, space.points)
    with pytest.raises(ValueError, match="underflows"):
        greedy_ball_cover(space, phi, probes=[])
    # a subnormal phi^{-1} has too few bits: phi(gamma * radius) rounded
    # up to the mass 5e-324 and failed the cover's budget audit
    space = DiscreteMeasureSpace(np.zeros((1, 1)), np.array([5e-324]))
    with pytest.raises(ValueError, match="underflows"):
        greedy_ball_cover(space, MajorantFn.power(0.2, 1.0), probes=[])


def test_tau_against_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = rng.integers(1, 12)
        sp = DiscreteMeasureSpace(rng.uniform(-1, 1, (m, 2)),
                                  rng.uniform(0.1, 2.0, m))
        phi = MajorantFn.power(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
        x = rng.uniform(-1.5, 1.5, 2)
        fast = tau_many(sp, phi, x[None])[0]
        slow = brute_force_tau(sp, phi, x)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)
        # the defining condition holds at tau and fails just beyond it
        d = np.linalg.norm(sp.points - x, axis=1)
        if fast > 0:
            assert np.sum(sp.masses[d <= fast * (1 + 1e-12)]) >= \
                float(phi(fast)) * (1 - 1e-9)
        for t in np.linspace(fast * 1.01 + 1e-9, fast * 3 + 1.0, 17):
            assert np.sum(sp.masses[d <= t]) < float(phi(t))


def test_non_finite_measure_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    for bad_pts, bad_masses in [
            (np.array([[0.0, np.nan], [1.0, 0.0]]), np.ones(2)),
            (np.array([[0.0, 0.0], [np.inf, 0.0]]), np.ones(2)),
            (pts, np.array([1.0, np.nan])),
            (pts, np.array([np.inf, 1.0]))]:
        with pytest.raises(ValueError):
            DiscreteMeasureSpace(bad_pts, bad_masses)


def test_non_finite_query_rejected():
    sp = unit_atoms([[0.0, 0.0], [0.2, 0.0]])
    phi = MajorantFn.power(1.0, 1.0)
    for bad in ([[np.nan, 0.0]], [[0.1, 0.0], [0.0, -np.inf]]):
        with pytest.raises(ValueError):
            tau_many(sp, phi, np.array(bad))
        with pytest.raises(ValueError):
            verify_cover(sp, phi, greedy_ball_cover(sp, phi, probes=[]),
                         probes=np.array(bad))
        # the potential read -inf ("mass sits at x") at a NaN query
        with pytest.raises(ValueError, match="query points must be finite"):
            potential_many(sp, np.array(bad))
        with pytest.raises(ValueError, match="query points must be finite"):
            potential_many(sp, [bad[-1]])


def test_power_majorant_rejects_non_finite_parameters():
    for p, s in ((np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf),
                 (0.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="finite p > 0, s > 0"):
            MajorantFn.power(p, s)


def test_query_dimension_mismatch_rejected():
    sp = unit_atoms([[0.0, 0.0], [1.0, 0.0]])
    phi = MajorantFn.power(1.0, 1.0)
    cover = greedy_ball_cover(sp, phi, probes=[])
    for bad, n in ((np.array([[0.0, 0.0, 5.0]]), 3),
                   (np.array([[0.0]]), 1)):
        msg = f"{n}-dimensional, the space's 2-dimensional"
        with pytest.raises(ValueError, match=msg):
            tau_many(sp, phi, bad)
        with pytest.raises(ValueError, match=msg):
            potential_many(sp, bad)
        with pytest.raises(ValueError, match=msg):
            greedy_ball_cover(sp, phi, probes=bad)
        with pytest.raises(ValueError, match=msg):
            verify_cover(sp, phi, cover, probes=bad)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_distances_match_linalg_norm_bitwise(n):
    rng = np.random.default_rng(20 + n)
    for scale in (1e-3, 1.0, 1e6):
        pts = scale * rng.normal(size=(7, n))
        qs = scale * rng.normal(size=(300, n))
        qs[:7] = pts  # zero distances
        want = np.linalg.norm(qs[:, None, :] - pts[None, :, :], axis=2).T
        assert np.array_equal(_distances(pts, qs), want)


def dense_tau_many(space, phi, queries):
    """Reference: the unpruned (queries x atoms) step scan."""
    keep = space.masses > 0
    atoms, masses = space.points[keep], space.masses[keep]
    if len(atoms) == 0:
        return np.zeros(len(queries))
    if space.metric is None:
        D = np.linalg.norm(queries[:, None, :] - atoms[None, :, :], axis=2)
    else:
        D = np.array([[space.metric(q, a) for a in atoms] for q in queries])
    order = np.argsort(D, axis=1)
    Ds = np.take_along_axis(D, order, axis=1)
    levels = np.cumsum(masses[order], axis=1)
    d_next = np.concatenate([Ds[:, 1:], np.full((len(queries), 1), np.inf)],
                            axis=1)
    inv = phi.inverse(levels)
    cand = np.where(inv >= Ds, np.minimum(inv, d_next), 0.0)
    return np.max(cand, axis=1, initial=0.0)


def l1_metric(x, y):
    return float(np.sum(np.abs(x - y)))


def sup_metric(x, y):
    return float(np.max(np.abs(x - y)))


def half_euclidean_metric(x, y):
    return 0.5 * float(np.linalg.norm(x - y))


METRICS = [None, l1_metric, sup_metric, half_euclidean_metric]


@st.composite
def pruning_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    atoms = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                   min_size=m, max_size=m)))
    dups = draw(st.lists(st.integers(0, m - 1), max_size=m))
    atoms[dups] = atoms[0]  # duplicate atoms tie in every distance profile
    # equal masses take the sorted scan; 0.1 has inexact running sums, so
    # a (j + 1) * mass shortcut for the levels would show
    equal = draw(st.none() | st.sampled_from([1.0, 0.5, 0.1]))
    if equal is None:
        masses = np.array(draw(st.lists(
            st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0),
            min_size=m, max_size=m)))
    else:
        masses = np.full(m, equal)
    offset = st.floats(-0.3, 0.3, allow_nan=False)
    near = atoms[draw(st.lists(st.integers(0, m - 1), max_size=12))] + \
        np.array(draw(st.lists(st.lists(offset, min_size=n, max_size=n),
                               min_size=1, max_size=1)))
    far = np.array(draw(st.lists(
        st.lists(st.floats(-40.0, 40.0, allow_nan=False),
                 min_size=n, max_size=n), max_size=12))).reshape(-1, n)
    probes = np.concatenate([near, far, atoms])
    if draw(st.booleans()):
        phi = MajorantFn.power(draw(st.floats(0.2, 5.0)),
                               draw(st.floats(0.3, 3.0)))
    else:  # phi(t) = c t^s
        c, s = draw(st.floats(0.2, 3.0)), draw(st.floats(0.5, 2.0))
        phi = MajorantFn.power(c ** (1.0 / s), s)
    metric = draw(st.sampled_from(METRICS))
    return DiscreteMeasureSpace(atoms, masses, metric=metric), phi, probes


@given(pruning_cases())
@settings(max_examples=200, deadline=None)
def test_pruned_tau_matches_unpruned_scan_bitwise(case):
    space, phi, probes = case
    keep = space.masses > 0
    if np.any(keep) and (phi.inverse(space.masses[keep].min())
                         < np.finfo(float).tiny):
        with pytest.raises(ValueError, match="underflows"):
            tau_many(space, phi, probes)
        return
    unpruned = _step_scan(_atom_distances(space, space.points[keep], probes),
                          space.masses[keep], phi)
    pruned = tau_many(space, phi, probes)
    assert np.array_equal(pruned, unpruned)
    assert np.array_equal(unpruned, dense_tau_many(space, phi, probes))


@pytest.mark.parametrize("masses", [np.full(10, 0.1),
                                    np.linspace(0.2, 2.0, 10)])
def test_blocked_tau_matches_references_bitwise(masses):
    rng = np.random.default_rng(31)
    atoms = rng.uniform(-1.0, 1.0, (10, 2))
    # seven coincident atoms: with masses 0.1, tau on them is phi^{-1} of
    # the ninth running sum 0.8999999999999999, not of 9 * 0.1 = 0.9
    atoms[1:7] = atoms[0]
    space = DiscreteMeasureSpace(atoms, masses)
    phi = MajorantFn.power(space.A / 1.5, 1.0)  # reach phi^{-1}(A) = 1.5
    step = BLOCK_ENTRIES // len(atoms)
    probes = rng.uniform(-4.0, 4.0, (3 * step + 17, 2))  # 3 blocks + rest
    probes[:len(atoms)] = atoms
    probes[step:step + 50] = atoms[0]  # in reach across a block edge
    pruned = tau_many(space, phi, probes)
    unpruned = _step_scan(_atom_distances(space, atoms, probes), masses, phi)
    assert np.array_equal(pruned, unpruned)
    assert np.array_equal(pruned, dense_tau_many(space, phi, probes))
    for lo in range(0, len(probes), step):  # every block has both kinds
        assert np.any(pruned[lo:lo + step] > 0.0)
        assert np.any(pruned[lo:lo + step] == 0.0)


# A heavy atom (tau 1) whose emitted ball of radius 2.5 holds a light
# irregular atom at metric distance 2, which lies at Euclidean distance 4
# (0.5 Euclidean) or 2 sqrt 2 (sup), outside the Euclidean ball.
@example((DiscreteMeasureSpace(np.array([[0.0], [4.0]]), np.array([1.0, 0.1]),
                               metric=half_euclidean_metric),
          MajorantFn.power(1.0, 1.0), np.array([[40.0]])))
@example((DiscreteMeasureSpace(np.array([[0.0, 0.0], [2.0, 2.0]]),
                               np.array([1.0, 0.1]), metric=sup_metric),
          MajorantFn.power(1.0, 1.0), np.array([[-20.0, 30.0]])))
@given(pruning_cases())
@settings(max_examples=200, deadline=None)
def test_metric_cover_audit_and_potential(case):
    # the cover, its audit and the potential all measure with the metric
    space, phi, probes = case
    try:
        phi.validate(space.A, space.extent())
    except ValueError:
        assume(False)  # a majorant that never exceeds the mass
    keep = space.masses > 0
    # tau_many rejects a mass whose phi^{-1} underflows below the normal
    # range (test_tau_rejects_underflowing_inverse)
    assume(np.all(phi.inverse(space.masses[keep]) >= np.finfo(float).tiny))
    cover = greedy_ball_cover(space, phi, probes=probes)
    assert all(verify_cover(space, phi, cover, probes=probes).values())
    metric = space.metric or (lambda x, y: float(np.linalg.norm(x - y)))
    for q, u in zip(probes, potential_many(space, probes)):
        d = [metric(q, a) for a in space.points[keep]]
        if min(d, default=1.0) == 0.0:
            assert u == -math.inf
            continue
        terms = [m * math.log(di) for m, di in zip(space.masses[keep], d)]
        assert abs(u - sum(terms)) <= 1e-13 * (1.0 + sum(map(abs, terms)))


# -- the greedy cover ---------------------------------------------------------


def test_two_atom_example():
    sp = unit_atoms([[0.0], [10.0]])
    phi = MajorantFn.power(1.0, 1.0)
    cover = greedy_ball_cover(sp, phi, gamma=1 / 3, probes=[])
    assert cover.taus[0] == pytest.approx(1.0, abs=1e-12)
    assert cover.radii[0] == pytest.approx(2.5, abs=1e-12)
    assert cover.count == 2
    # well-separated atoms: the tau-balls themselves cover the support
    for pt in sp.points:
        assert any(np.linalg.norm(pt - c) <= t + 1e-12
                   for c, t in zip(cover.centers, cover.taus))
    checks = verify_cover(sp, phi, cover, probes=[])
    assert all(checks.values())


def test_all_regular_gives_empty_cover():
    sp = DiscreteMeasureSpace(np.array([[0.0], [1.0]]), np.zeros(2))
    phi = MajorantFn.power(1.0, 1.0)
    cover = greedy_ball_cover(sp, phi, probes=[])
    assert cover.count == 0


def test_random_atomic_measures_postconditions():
    rng = np.random.default_rng(8)
    gx, gy = np.meshgrid(np.linspace(-0.3, 1.3, 9), np.linspace(-0.3, 1.3, 9))
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    for _ in range(50):
        m = int(rng.integers(2, 33))
        sp = DiscreteMeasureSpace(rng.random((m, 2)),
                                  rng.uniform(0.1, 1.0, m))
        s = float(rng.uniform(0.5, 2.0))
        p = (2.0 * sp.A) ** (1.0 / s) / max(sp.extent(), 0.3)
        phi = MajorantFn.power(p, s)
        cover = greedy_ball_cover(sp, phi, probes=probes)
        checks = verify_cover(sp, phi, cover, probes=probes)
        assert checks["budget_below_total_mass"]
        assert checks["radii_nonincreasing"]
        assert checks["uncovered_points_regular"]
        assert checks["ball_count_le_atoms"]
        assert checks["tau_balls_meet_support"]
        assert checks["emitted_balls_cover_support"]


def test_greedy_cover_ignores_regular_probes():
    # the loop runs only on irregular candidates: leaving the regular
    # probes out of `probes` changes nothing
    rng = np.random.default_rng(14)
    gx, gy = np.meshgrid(np.linspace(-1.0, 2.0, 31), np.linspace(-1.0, 2.0, 31))
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    most_balls = most_irregular = 0
    for _ in range(20):
        m = int(rng.integers(2, 16))
        clusters = rng.random((3, 2))
        pts = clusters[rng.integers(0, 3, m)] + 0.05 * rng.normal(size=(m, 2))
        sp = DiscreteMeasureSpace(pts, rng.uniform(0.0, 1.0, m))
        phi = MajorantFn.power(float(rng.uniform(1.0, 8.0)) * sp.A, 1.0)
        irregular = tau_many(sp, phi, probes) > 0.0
        full = greedy_ball_cover(sp, phi, probes=probes)
        live = greedy_ball_cover(sp, phi, probes=probes[irregular])
        assert np.array_equal(full.centers, live.centers)
        assert np.array_equal(full.radii, live.radii)
        assert np.array_equal(full.taus, live.taus)
        most_balls = max(most_balls, full.count)
        most_irregular = max(most_irregular, int(np.sum(irregular)))
    assert most_balls >= 3 and 0 < most_irregular < len(probes)


def argmax_reference_cover(space, phi, probes):
    """The greedy cover at the default gamma as one argmax loop over every
    candidate's tau."""
    phi.validate(space.A, space.extent())
    cands = space.points if len(probes) == 0 else \
        np.concatenate([space.points, probes])
    taus_all = tau_many(space, phi, cands)
    irregular = taus_all > 0.0
    cands, taus_all = cands[irregular], taus_all[irregular]
    uncovered = np.ones(len(cands), dtype=bool)
    centers, radii, taus = [], [], []
    while np.any(uncovered):
        k = int(np.argmax(np.where(uncovered, taus_all, -np.inf)))
        centers.append(cands[k])
        radii.append(BETA * taus_all[k])
        taus.append(taus_all[k])
        uncovered &= _atom_distances(space, cands[k][None], cands)[0] \
            > radii[-1]
    radii = np.array(radii)
    budget = float(np.sum(phi(DEFAULT_GAMMA * radii))) if len(radii) else 0.0
    return CoverOutput(np.array(centers).reshape(-1, cands.shape[1]), radii,
                       np.array(taus), DEFAULT_GAMMA, budget)


def cover_or_error(make):
    try:
        cover = make()
    except ValueError as err:
        return str(err)
    return cover.centers, cover.radii, cover.taus, cover.budget_used


def assert_same_cover(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert got[3] == want[3]


@given(pruning_cases(), st.sampled_from([BLOCK_ENTRIES, 1, 7, 24]))
@settings(max_examples=200, deadline=None)
def test_streamed_cover_matches_argmax_reference_bitwise(case, entries):
    # small blocks put witnesses, top-valued or not, in later blocks
    space, phi, probes = case
    try:
        phi.validate(space.A, space.extent())
    except ValueError:
        assume(False)  # a majorant that never exceeds the mass
    with mock.patch.object(covering, "BLOCK_ENTRIES", entries):
        want = cover_or_error(
            lambda: argmax_reference_cover(space, phi, probes))
        got = cover_or_error(
            lambda: greedy_ball_cover(space, phi, probes=probes))
    assert_same_cover(got, want)


def test_streamed_cover_skips_covered_blocks():
    # unit atoms at 0 and 3, phi(t) = t: top = phi^{-1}(2) = 2.  The atoms
    # have tau 1; the first top-valued candidates, 1.5 and 1.6, share the
    # second block of four; the disk of radius 5 around 1.5 covers 1.6 and
    # every probe of the third and fourth blocks but 7, the only one whose
    # tau is computed there.
    space = unit_atoms([[0.0], [3.0]])
    phi = MajorantFn.power(1.0, 1.0)
    probes = np.array([[10.0], [11.0], [1.5], [1.6], [0.5], [-1.0],
                       [2.0], [4.0], [2.5], [6.0], [-3.0], [7.0]])
    cands = np.concatenate([space.points, probes])
    taus_all = tau_many(space, phi, cands)
    top_valued = np.flatnonzero(taus_all == 2.0)
    assert np.array_equal(top_valued[:2], [4, 5]) and np.all(taus_all <= 2.0)
    seen = []

    def counted(space, phi, queries):
        seen.append(len(queries))
        return tau_many(space, phi, queries)

    with mock.patch.object(covering, "BLOCK_ENTRIES", 8), \
            mock.patch.object(covering, "tau_many", counted):
        got = cover_or_error(
            lambda: greedy_ball_cover(space, phi, probes=probes))
        want = cover_or_error(
            lambda: argmax_reference_cover(space, phi, probes))
    assert seen == [4, 4, 1]
    assert_same_cover(got, want)
    assert got[0][0, 0] == 1.5 and got[2][0] == 2.0


def test_streamed_cover_emits_every_uncovered_top_witness():
    # phi(t) = t^(1e17) grows by a factor e^22 across one ulp past t = 1,
    # so phi^{-1} rounds every step level to 1: top = 1, and every
    # candidate within 1 of an atom is top-valued.  With blocks of three,
    # atoms 0, 10 and 20 share the first block and all three are emitted:
    # the disk of radius 2.5 around 0 leaves 10 uncovered, the one around
    # 10 leaves 20.  phi overflows at the validation horizon, as it may.
    space = unit_atoms([[0.0], [10.0], [20.0], [10.5]])
    phi = MajorantFn.power(1.0, 1e17)
    probes = np.array([[0.7], [30.0], [40.0], [20.5], [19.0], [50.0]])
    assert np.all(phi.inverse(np.cumsum(space.masses)) == 1.0)
    with mock.patch.object(covering, "BLOCK_ENTRIES", 12), \
            np.errstate(over="ignore"):
        got = cover_or_error(
            lambda: greedy_ball_cover(space, phi, probes=probes))
        want = cover_or_error(
            lambda: argmax_reference_cover(space, phi, probes))
    assert_same_cover(got, want)
    assert np.array_equal(got[0][:, 0], [0.0, 10.0, 20.0])
    assert np.all(got[2] == 1.0)


def test_parameter_validation():
    sp = unit_atoms([[0.0]])
    phi = MajorantFn.power(1.0, 1.0)
    with pytest.raises(ValueError):
        greedy_ball_cover(sp, phi, gamma=0.6, probes=[])
    with pytest.raises(ValueError):
        greedy_ball_cover(sp, phi, gamma=0.4, probes=[])


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    pts = rng.random((12, 2))
    masses = rng.uniform(0.2, 1.0, 12)
    c = 3.7
    none = np.zeros((0, 2))  # no grid: the atoms are the only candidates
    rep1 = potential_bound_verify(DiscreteMeasureSpace(pts, masses),
                                  H=0.25, s=1.0, grid=none)
    rep2 = potential_bound_verify(DiscreteMeasureSpace(c * pts, masses),
                                  H=c * 0.25, s=1.0, grid=none)
    assert np.allclose(rep2.cover.radii, c * rep1.cover.radii, rtol=1e-12)


def test_pseudometric_hook_spot_check():
    pts = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(ValueError):
        DiscreteMeasureSpace(pts, np.ones(3),
                             metric=lambda x, y: float(x[0] - y[0]))
    ok = DiscreteMeasureSpace(pts, np.ones(3),
                              metric=lambda x, y: abs(float(x[0] - y[0])))
    phi = MajorantFn.power(1.0, 1.0)
    assert tau_many(ok, phi, [[0.0]])[0] > 0.0


# -- potentials ---------------------------------------------------------------


def test_potential_single_atom():
    sp = unit_atoms([[2.0]])
    assert potential_many(sp, [[0.0]])[0] == pytest.approx(math.log(2.0),
                                                         abs=1e-12)


def test_potential_at_atom_is_minus_inf():
    sp = unit_atoms([[1.0]])
    assert potential_many(sp, [[1.0]])[0] == -math.inf


def test_potential_two_atoms():
    sp = unit_atoms([[1.0], [math.e]])
    assert potential_many(sp, [[0.0]])[0] == pytest.approx(1.0, abs=1e-12)


def test_potential_many_matches_scalar():
    rng = np.random.default_rng(10)
    sp = DiscreteMeasureSpace(rng.random((6, 2)), rng.uniform(0.5, 1.5, 6))
    qs = rng.uniform(-1, 2, (20, 2))
    many = potential_many(sp, qs)
    for q, v in zip(qs, many):
        assert v == pytest.approx(potential_many(sp, q[None])[0], rel=1e-12)


# -- the radius-budget + potential-bound corollary ----------------------------


def test_potential_bound_empty_measure_vacuous():
    sp = DiscreteMeasureSpace(np.zeros((1, 2)), np.zeros(1))
    rep = potential_bound_verify(sp, H=0.25, s=1.0,
                                 grid=np.random.default_rng(0).random((50, 2)))
    assert rep.ok
    assert rep.cover.count == 0


def test_potential_bound_empty_measure_reads_grid():
    # the zero-mass report counts the grid as checked, so it must read it
    sp = DiscreteMeasureSpace(np.zeros((2, 2)), np.zeros(2))
    grid = np.array([[0.5, 0.5], [1.0, -1.0]])
    assert potential_bound_verify(sp, H=0.25, s=1.0, grid=grid).num_checked \
        == 2
    for bad in (np.array([[0.5, 0.5], [np.nan, 0.0]]),
                np.array([[0.0, np.inf]])):
        with pytest.raises(ValueError, match="grid points must be finite"):
            potential_bound_verify(sp, H=0.25, s=1.0, grid=bad)
    with pytest.raises(ValueError, match="3-dimensional"):
        potential_bound_verify(sp, H=0.25, s=1.0, grid=np.zeros((4, 3)))


def test_potential_bound_clustered_atoms():
    # k atoms in a tiny cluster: points at distance >= H satisfy
    # u >= k ln H > k ln(H/e) outright
    rng = np.random.default_rng(11)
    k = 6
    sp = DiscreteMeasureSpace(0.01 * rng.random((k, 2)), np.ones(k))
    H = 0.25
    far = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, -3.0]])
    assert np.all(potential_many(sp, far) >= k * math.log(H))
    rep = potential_bound_verify(sp, H=H, s=1.0, grid=far)
    assert not rep.violations


def test_potential_bound_random_configs():
    # 50 random atom configurations in the unit disk, H = 1/4, s = 1,
    # dense-grid check; the exhaustive grid check is itself the oracle
    rng = np.random.default_rng(12)
    axis = np.linspace(-1.2, 1.2, 200)
    gx, gy = np.meshgrid(axis, axis)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    for _ in range(50):
        k = int(rng.integers(2, 20))
        th = rng.uniform(0, 2 * math.pi, k)
        rr = np.sqrt(rng.random(k))
        sp = DiscreteMeasureSpace(
            np.column_stack([rr * np.cos(th), rr * np.sin(th)]), np.ones(k))
        rep = potential_bound_verify(sp, H=0.25, s=1.0, grid=grid)
        assert rep.radius_sum_s < rep.radius_cap
        assert not rep.violations, rep.violations[:3]


# -- exclusion disks ----------------------------------------------------------


def cartan_grid(R=2.0, n=101):
    axis = np.linspace(-R, R, n)
    gx, gy = np.meshgrid(axis, axis)
    return (gx + 1j * gy).ravel()


def _circle_max_reference(f, radius, samples=4096):
    """max |f| on |z| = radius, one trial point per evaluation."""
    th = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    vals = np.abs(f.eval_many(radius * np.exp(1j * th)))
    j = int(np.argmax(vals))
    a = th[j] - 2.0 * math.pi / samples
    b = th[j] + 2.0 * math.pi / samples
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def val(theta):
        return float(abs(f.eval_many(np.array([radius * np.exp(1j * theta)]))[0]))

    for _ in range(40):
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        if val(c) > val(d):
            b = d
        else:
            a = c
    return max(float(vals.max()), val(0.5 * (a + b)))


@given(st.integers(0, 10), st.floats(0.05, 20.0), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_circle_max_matches_scalar_search(deg, radius, complex_coeffs, seed):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, deg + 1)
    if complex_coeffs:
        c = c + 1j * rng.uniform(-1.0, 1.0, deg + 1)
    f = Polynomial(1, deg, c)
    want = _circle_max_reference(f, radius)
    assert abs(_circle_max_abs(f, radius) - want) <= 1e-13 * want


def test_cartan_constant_one():
    f = Polynomial.constant(1.0)
    rep = cartan_exclusion_disks(f, R=2.0, eta=1.0, grid=cartan_grid())
    assert rep.disks == []
    assert not rep.violations
    assert rep.log_max == pytest.approx(0.0, abs=1e-9)


def test_cartan_h_at_max_eta():
    f = Polynomial.constant(1.0)
    rep = cartan_exclusion_disks(f, R=1.0, eta=1.5 * math.e,
                                 grid=cartan_grid(R=1.0))
    assert rep.H_eta == pytest.approx(2.0, abs=1e-12)


def test_cartan_single_distant_root():
    w = 40.0  # |w| > 2eR for R = 2
    f = Polynomial.from_dict(1, {(0,): 1.0, (1,): -1.0 / w})
    rep = cartan_exclusion_disks(f, R=2.0, eta=0.5, grid=cartan_grid())
    assert len(rep.disks) == 0
    assert not rep.violations
    assert rep.worst_margin is not None and rep.worst_margin > 0.0


def test_cartan_requires_normalization():
    f = Polynomial.from_dict(1, {(0,): 2.0, (1,): 1.0})
    grid = cartan_grid(R=1.0, n=5)
    with pytest.raises(ValueError, match="f\\(0\\) must equal 1"):
        cartan_exclusion_disks(f, R=1.0, eta=1.0, grid=grid)
    with pytest.raises(ValueError, match="eta"):
        cartan_exclusion_disks(Polynomial.constant(1.0), R=1.0, eta=5.0,
                               grid=grid)


def test_cartan_grid_must_be_complex_points():
    f = Polynomial.constant(1.0)
    grid = cartan_grid(n=5)
    for bad in (np.column_stack([grid.real, grid.imag]), grid.real,
                grid.reshape(5, 5)):
        with pytest.raises(ValueError):
            cartan_exclusion_disks(f, R=2.0, eta=1.0, grid=bad)


def test_cartan_rejects_non_finite_grid():
    # 1 + 0.01 z has no zero in |z| <= 2R, so no cover runs; the grid is
    # still read, and it is rejected for every f
    grid = np.array([0.5 + 0.5j, np.nan, complex(1.0, np.inf), 0.1j])
    for coeffs in ([1.0, 0.01], [1.0, -1.0, 0.5]):
        f = Polynomial(1, len(coeffs) - 1, np.array(coeffs))
        with pytest.raises(ValueError, match="grid points must be finite"):
            cartan_exclusion_disks(f, R=2.0, eta=0.5, grid=grid)


def test_cartan_floor_matches_real_pair_grid_bitwise():
    # the floor reads the caller's complex points; every imaginary part
    # here is -0.0, which the pair (re, im) turned back into a complex
    # number would make +0.0, and the margins must not move
    grid = np.empty(401, dtype=complex)
    grid.real = np.linspace(-2.0, 2.0, 401)
    grid.imag = -0.0
    f = Polynomial(1, 3, np.array([1.0, -0.8 + 0.3j, 0.9j, -0.6]))
    rep = cartan_exclusion_disks(f, R=1.5, eta=0.25, grid=grid)
    assert rep.disks and np.all(np.signbit(grid.imag))
    pts = np.column_stack([grid.real, grid.imag])
    pts = pts[np.abs(pts[:, 0] + 1j * pts[:, 1]) <= 1.5]
    centers = np.array([[c.real, c.imag] for c, _ in rep.disks])
    radii = np.array([r for _, r in rep.disks])
    off = ~np.any(_distances(centers, pts) <= radii[:, None], axis=0)
    zs = pts[off, 0] + 1j * pts[off, 1]
    margins = np.log(np.abs(f.eval_many(zs))) - rep.lower_bound
    assert rep.num_checked == int(np.sum(off)) > 0
    assert rep.worst_margin == float(margins.min())


def test_empty_grids_check_nothing():
    # with no grid point the atoms are the only candidates
    f = Polynomial(1, 3, np.array([1.0, -0.8, 0.9, -0.6]))
    rep = cartan_exclusion_disks(f, R=1.5, eta=0.25,
                                 grid=np.zeros(0, dtype=complex))
    assert rep.disks and rep.num_checked == 0 and rep.worst_margin is None
    sp = DiscreteMeasureSpace(np.random.default_rng(0).random((5, 2)),
                              np.ones(5))
    pot = potential_bound_verify(sp, H=0.25, s=1.0, grid=np.zeros((0, 2)))
    assert pot.num_checked == 0 and pot.worst_margin is None
    cover = greedy_ball_cover(sp, MajorantFn.power(20.0, 1.0), probes=[])
    assert np.array_equal(pot.cover.radii, cover.radii)


def test_cartan_certificate_random_poly():
    rng = np.random.default_rng(13)
    coeffs = rng.uniform(-1, 1, 7)
    coeffs[0] = 1.0
    f = Polynomial(1, 6, coeffs)
    rep = cartan_exclusion_disks(f, R=2.0, eta=0.5, grid=cartan_grid(n=201))
    assert rep.radius_sum <= 4 * 0.5 * 2.0 + 1e-12
    assert not rep.violations
    assert rep.half_radius_covers_zeros


def test_polynomial_zeros_polish():
    roots = np.array([0.5, 2.0, -1.0j])
    coeffs = np.poly(roots)  # descending
    f = Polynomial(1, 3, coeffs[::-1].copy())
    got = polynomial_zeros(f)
    got_sorted = sorted(got, key=lambda z: (z.real, z.imag))
    want_sorted = sorted(roots, key=lambda z: (z.real, z.imag))
    for g, w in zip(got_sorted, want_sorted):
        assert abs(g - w) < 1e-10
