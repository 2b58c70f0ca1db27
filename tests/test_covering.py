import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractal_remez import covering
from fractal_remez.covering import (BETA, BLOCK_ENTRIES, BOX, DEFAULT_GAMMA,
                                    CartanDiskReport, CoverOutput,
                                    DiscreteMeasureSpace, MajorantFn,
                                    _circle_max_abs, _distances, _horner,
                                    _in_balls, _near_blocks, _step_scan,
                                    cartan_exclusion_disks,
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
    # a subnormal mass with a normal phi^{-1}(m) = 2.2e-162: phi(gamma r)
    # still rounded up to the mass, and the budget audit failed
    space = DiscreteMeasureSpace([[0.0, 0.0]], [5e-324])
    phi = MajorantFn.power(1.0, 2.0)
    assert float(phi.inverse(5e-324)) >= np.finfo(float).tiny
    for run in (lambda: tau_many(space, phi, [[0.0, 0.0]]),
                lambda: greedy_ball_cover(space, phi, probes=[[0.0, 0.0]])):
        with pytest.raises(ValueError, match="underflows"):
            run()


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
    D = np.linalg.norm(queries[:, None, :] - atoms[None, :, :], axis=2)
    order = np.argsort(D, axis=1)
    Ds = np.take_along_axis(D, order, axis=1)
    levels = np.cumsum(masses[order], axis=1)
    d_next = np.concatenate([Ds[:, 1:], np.full((len(queries), 1), np.inf)],
                            axis=1)
    inv = phi.inverse(levels)
    cand = np.where(inv >= Ds, np.minimum(inv, d_next), 0.0)
    return np.max(cand, axis=1, initial=0.0)


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
    return DiscreteMeasureSpace(atoms, masses), phi, probes


@given(pruning_cases(), st.sampled_from([BOX, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_pruned_tau_matches_unpruned_scan_bitwise(case, box):
    space, phi, probes = case
    keep = space.masses > 0
    low = space.masses[keep].min(initial=np.inf)
    if min(low, phi.inverse(low)) < np.finfo(float).tiny:
        with pytest.raises(ValueError, match="underflows"):
            tau_many(space, phi, probes)
        return
    unpruned = _step_scan(_distances(space.points[keep], probes),
                          space.masses[keep], phi)
    with mock.patch.object(covering, "BOX", box):
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
    unpruned = _step_scan(_distances(atoms, probes), masses, phi)
    assert np.array_equal(pruned, unpruned)
    assert np.array_equal(pruned, dense_tau_many(space, phi, probes))
    for lo in range(0, len(probes), step):  # every block has both kinds
        assert np.any(pruned[lo:lo + step] > 0.0)
        assert np.any(pruned[lo:lo + step] == 0.0)


@st.composite
def equal_mass_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    coord = st.floats(-6.0, 6.0, allow_nan=False)
    atoms = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                                   min_size=m, max_size=m)))
    masses = np.full(m, draw(st.sampled_from([1.0, 0.5, 0.1, 3.0])))
    phi = MajorantFn.power(draw(st.floats(0.2, 5.0)),
                           draw(st.floats(0.3, 3.0)))
    # queries on an axis through an atom at a jump radius phi^{-1}(level),
    # one ulp either side of it, and anywhere in the atoms' box
    levels = phi.inverse(np.cumsum(masses))
    on = []
    for i, j, k, sign in draw(st.lists(st.tuples(
            st.integers(0, m - 1), st.integers(0, m - 1),
            st.integers(0, n - 1), st.sampled_from([-1.0, 1.0])),
            max_size=12)):
        q = atoms[i].copy()
        q[k] += sign * levels[j]
        on += [q, q.copy(), q.copy()]
        on[-2][k] = np.nextafter(q[k], -np.inf)
        on[-1][k] = np.nextafter(q[k], np.inf)
    free = draw(st.lists(st.lists(st.floats(-8.0, 8.0, allow_nan=False),
                                  min_size=n, max_size=n), max_size=24))
    queries = np.concatenate([np.reshape(on, (-1, n)),
                              np.reshape(free, (-1, n)), atoms])
    return DiscreteMeasureSpace(atoms, masses), phi, queries


@given(equal_mass_cases(), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 5, 16]))
@settings(max_examples=200, deadline=None)
def test_equal_mass_runs_scan_near_atoms_bitwise(case, box, entries):
    # small boxes and pieces give runs in reach of only some atoms, which
    # equal masses scan in place against those atoms alone
    space, phi, queries = case
    low = space.masses.min()
    assume(min(low, phi.inverse(low)) >= np.finfo(float).tiny)
    want = _step_scan(_distances(space.points, queries), space.masses, phi)
    with mock.patch.object(covering, "BOX", box), \
            mock.patch.object(covering, "BLOCK_ENTRIES", entries):
        got = tau_many(space, phi, queries)
    assert got.tobytes() == want.tobytes()


# -- the bounding-box prefilter of the ball queries ---------------------------


def row_in_balls(centers, radii, points):
    """Reference: one full distance row per ball."""
    mask = np.zeros(len(points), dtype=bool)
    for c, r in zip(centers, radii):
        mask |= _distances(c[None, :], points)[0] <= r
    return mask


def grid_points(n, shuffled):
    axis = np.linspace(-1.0, 1.0, {1: 400, 2: 23, 3: 9}[n])
    pts = np.stack(np.meshgrid(*[axis] * n), axis=-1).reshape(-1, n)
    if shuffled:
        pts = np.random.default_rng(n).permutation(pts)
    return pts


@pytest.mark.parametrize("box", [1, 3, 16])
@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_boxed_ball_queries_match_rows_bitwise(n, shuffled, box):
    rng = np.random.default_rng(40 + n)
    centers = rng.uniform(-1.2, 1.2, (4, n))
    # each radius puts the grid point of rank len/20 exactly on its sphere
    grid = grid_points(n, shuffled)
    radii = np.sort(_distances(centers, grid), axis=1)[:, len(grid) // 20]
    # and points on each sphere's axes, moved one ulp in and out
    on = (centers[:, None, :] + radii[:, None, None]
          * np.concatenate([np.eye(n), -np.eye(n)])).reshape(-1, n)
    c = np.repeat(centers, 2 * n, axis=0)
    points = np.concatenate([grid, centers, on, np.nextafter(on, c),
                             np.nextafter(on, 2.0 * on - c)])
    space = unit_atoms(centers)
    phi = MajorantFn.power(4.0 / 0.3, 1.0)  # reach phi^{-1}(4) = 0.3
    with mock.patch.object(covering, "BOX", box):
        near = _near_blocks(centers, radii, points)
        assert np.any(near) and not np.all(near)
        for r in (radii, np.nextafter(radii, 0.0),
                  np.nextafter(radii, np.inf)):
            assert np.array_equal(_in_balls(centers, r, points),
                                  row_in_balls(centers, r, points))
        got = tau_many(space, phi, points)
    want = _step_scan(_distances(centers, points), space.masses, phi)
    assert np.array_equal(got, want)
    assert np.any(got > 0.0) and np.any(got == 0.0)


def cartan_case(eta, deg=6, seed=101):
    """The zeros of a seeded f with f(0) = 1 in |z| <= 2R, R = 2, with the
    majorant of cartan_exclusion_disks, and the 400 x 400 grid on
    [-R, R]^2 in meshgrid order as real pairs."""
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, deg + 1)
    coeffs[0] = 1.0
    f = Polynomial(1, deg, coeffs)
    zeros = polynomial_zeros(f)
    zeros = zeros[np.abs(zeros) <= 4.0]
    space = unit_atoms(zeros.view(float).reshape(-1, 2))
    phi = MajorantFn.power(len(zeros) / (4.0 * DEFAULT_GAMMA * eta * 2.0), 1.0)
    axis = np.linspace(-2.0, 2.0, 400)
    gx, gy = np.meshgrid(axis, axis)
    return f, space, phi, np.column_stack([gx.ravel(), gy.ravel()])


def run_kinds(fn, *args):
    """fn's result and, per piece that _runs hands out, whether its near
    mask holds every center."""
    kinds, runs = [], covering._runs

    def spy(*a):
        pieces = runs(*a)
        kinds.extend(bool(np.all(near)) for _, _, near in pieces)
        return pieces

    with mock.patch.object(covering, "_runs", spy):
        return fn(*args), kinds


@pytest.mark.parametrize("eta", [0.1, 1.0])
def test_cartan_grid_runs_match_unpruned_bitwise(eta):
    f, space, phi, pts = cartan_case(eta)
    got, kinds = run_kinds(tau_many, space, phi, pts)
    want = _step_scan(_distances(space.points, pts), space.masses, phi)
    assert np.array_equal(got, want)
    assert np.any(got > 0.0) and np.any(got == 0.0)
    # at eta = 1 one call scans some runs in place and defers others; at
    # eta = 0.1 no box is in reach of every zero
    assert (True in kinds) == (eta == 1.0) and False in kinds
    grid = pts.view(complex).reshape(-1)
    rep = cartan_exclusion_disks(f, 2.0, eta, grid=grid)
    centers = np.array([[c.real, c.imag] for c, _ in rep.disks])
    radii = np.array([r for _, r in rep.disks])
    for r in (radii, radii / 2.0, np.nextafter(radii, np.inf)):
        assert np.array_equal(_in_balls(centers, r, pts),
                              row_in_balls(centers, r, pts))


def test_survey_cover_runs_match_unpruned_bitwise():
    # the covering run of the survey benchmark: 256 atoms, a 12 x 12 grid
    rng = np.random.default_rng(5)
    space = unit_atoms(rng.random((256, 2)))
    axis = np.linspace(-0.5, 1.5, 12)
    gx, gy = np.meshgrid(axis, axis)
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    phi = MajorantFn.power(space.A / 0.25, 1.0)  # potential_bound_verify's
    cands = np.concatenate([space.points, grid])
    got = tau_many(space, phi, cands)
    assert np.array_equal(got, _step_scan(_distances(space.points, cands),
                                          space.masses, phi))
    assert np.any(got > 0.0)
    cover = greedy_ball_cover(space, phi, probes=grid)
    assert cover.count > 1
    for r in (cover.radii, cover.taus):
        assert np.array_equal(_in_balls(cover.centers, r, cands),
                              row_in_balls(cover.centers, r, cands))


def test_runs_on_empty_points_and_zero_balls():
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, (3 * BOX + 5, 2))
    none = np.zeros((0, 2))
    assert _in_balls(pts[:2], np.ones(2), none).shape == (0,)
    assert not np.any(_in_balls(none, np.zeros(0), pts))
    assert _in_balls(none, np.zeros(0), none).shape == (0,)
    space = unit_atoms(pts[:3])
    phi = MajorantFn.power(3.0, 1.0)
    assert tau_many(space, phi, none).shape == (0,)


def test_cartan_grid_tau_skips_most_distances():
    _, space, phi, pts = cartan_case(0.1)
    entries, distances = [0], covering._distances

    def counted(points, queries):
        entries[0] += len(points) * len(queries)
        return distances(points, queries)

    with mock.patch.object(covering, "_distances", counted):
        tau_many(space, phi, pts)
    assert 0 < entries[0] <= len(space.points) * len(pts) // 2


@given(pruning_cases())
@settings(max_examples=200, deadline=None)
def test_metric_cover_audit_and_potential(case):
    # the cover, its audit and the potential all measure Euclidean distance
    space, phi, probes = case
    try:
        phi.validate(space.A, space.extent())
    except ValueError:
        assume(False)  # a majorant that never exceeds the mass
    keep = space.masses > 0
    # tau_many rejects a mass that underflows below the normal range, or
    # whose phi^{-1} does (test_tau_rejects_underflowing_inverse)
    assume(np.all(space.masses[keep] >= np.finfo(float).tiny))
    assume(np.all(phi.inverse(space.masses[keep]) >= np.finfo(float).tiny))
    cover = greedy_ball_cover(space, phi, probes=probes)
    assert all(verify_cover(space, phi, cover, probes=probes).values())
    for q, u in zip(probes, potential_many(space, probes)):
        d = [float(np.linalg.norm(q - a)) for a in space.points[keep]]
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
        uncovered &= _distances(cands[k][None], cands)[0] > radii[-1]
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


def count_tau_blocks(space, phi, probes, entries):
    """The streamed cover with the query count of each tau_many call."""
    seen = []

    def counted(space, phi, queries):
        seen.append(len(queries))
        return tau_many(space, phi, queries)

    with mock.patch.object(covering, "BLOCK_ENTRIES", entries), \
            mock.patch.object(covering, "tau_many", counted):
        got = cover_or_error(
            lambda: greedy_ball_cover(space, phi, probes=probes))
        want = cover_or_error(
            lambda: argmax_reference_cover(space, phi, probes))
    return got, want, seen


def test_streamed_cover_skips_covered_blocks():
    # unit atoms at 0 and 3, phi(t) = t: top = phi^{-1}(2) = 2.  The atoms
    # have tau 1 and take the first tau call; the first top-valued probe,
    # 1.5, is found by the farthest-atom test in the first block of four
    # (10, 11, 1.5, 1.6); the disk of radius 5 around it covers 1.6 and
    # every later probe but 7, so the one tau call on the probes left
    # uncovered takes 10, 11 and 7.
    space = unit_atoms([[0.0], [3.0]])
    phi = MajorantFn.power(1.0, 1.0)
    probes = np.array([[10.0], [11.0], [1.5], [1.6], [0.5], [-1.0],
                       [2.0], [4.0], [2.5], [6.0], [-3.0], [7.0]])
    cands = np.concatenate([space.points, probes])
    taus_all = tau_many(space, phi, cands)
    top_valued = np.flatnonzero(taus_all == 2.0)
    assert np.array_equal(top_valued[:2], [4, 5]) and np.all(taus_all <= 2.0)
    got, want, seen = count_tau_blocks(space, phi, probes, 8)
    assert seen == [2, 3]
    assert_same_cover(got, want)
    assert got[0][0, 0] == 1.5 and got[2][0] == 2.0


def test_streamed_cover_top_atom_covers_every_probe():
    # unit atoms at 0 and 0.5, phi(t) = t: top = phi^{-1}(2) = 2 and the
    # atom at 0 has tau 2, so it is emitted from the atom block, and its
    # disk of radius 5 covers the other atom and every probe: only the
    # atom block's tau is computed.
    space = unit_atoms([[0.0], [0.5]])
    phi = MajorantFn.power(1.0, 1.0)
    probes = np.array([[1.0], [-2.0], [4.0], [3.0], [-4.5], [0.25],
                       [2.0], [-1.0], [4.9]])
    got, want, seen = count_tau_blocks(space, phi, probes, 8)
    assert seen == [2]
    assert_same_cover(got, want)
    assert np.array_equal(got[0], [[0.0]]) and np.array_equal(got[2], [2.0])


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


def test_streamed_cover_needs_a_strict_top_level():
    # phi(t) = t^(5e15) rounds the step levels phi^{-1}(1, 2, 3) to
    # [1, 1 + eps, 1 + eps], so top = 1 + eps is also the second level.
    # In a triangle of side 1.2, the midpoint of two atoms has tau = top
    # with the third atom 1.04 > top away, and the centroid has all three
    # within 0.69.  The farthest-atom test would emit the centroid first;
    # the reference emits the midpoint, which comes first in index order.
    h = 0.6 * math.sqrt(3.0)
    space = unit_atoms([[0.0, 0.0], [1.2, 0.0], [0.6, h]])
    phi = MajorantFn.power(1.0, 5e15)
    levels = phi.inverse(np.cumsum(space.masses))
    assert levels[0] < levels[1] == levels[2]
    probes = np.array([[3.0, 3.0], [0.6, 0.0], [0.6, h / 3.0], [-2.0, 1.0]])
    with np.errstate(over="ignore"):
        assert np.array_equal(tau_many(space, phi, probes[1:3]),
                              [levels[2]] * 2)
        got = cover_or_error(
            lambda: greedy_ball_cover(space, phi, probes=probes))
        want = cover_or_error(
            lambda: argmax_reference_cover(space, phi, probes))
    assert_same_cover(got, want)
    assert np.array_equal(got[0][0], [0.6, 0.0])


@pytest.mark.parametrize("deg", [3, 6, 10])
def test_cartan_farthest_atom_witnesses_are_top_valued(deg):
    # at eta = 1 the greedy cover finds its top witnesses among the grid
    # probes by the farthest zero; this is tau == top on the whole grid
    _, space, phi, pts = cartan_case(1.0, deg=deg)
    levels = phi.inverse(np.cumsum(space.masses))
    top = levels.max()
    assert levels[:-1].max(initial=0.0) < top
    assert _distances(space.points, space.points).max() <= 2.0 * top
    far = _distances(space.points, pts).max(axis=0) <= top
    assert np.any(far) and not np.all(far)
    assert np.array_equal(far, tau_many(space, phi, pts) == top)


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
    assert rep.radius_sum_s < rep.radius_cap and not rep.violations
    assert rep.cover.count == 0


def test_potential_bound_empty_measure_reads_grid():
    # the zero-mass report counts the grid as checked, so it must read it
    sp = DiscreteMeasureSpace(np.zeros((2, 2)), np.zeros(2))
    grid = np.array([[0.5, 0.5], [1.0, -1.0]])
    rep = potential_bound_verify(sp, H=0.25, s=1.0, grid=grid)
    # u = 0 equals the bound 0 ln(H / e), which is +0.0 although H < e
    assert rep.num_checked == 2 and rep.worst_margin == 0.0
    assert rep.lower_bound == 0.0 and math.copysign(1.0, rep.lower_bound) > 0
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


@given(st.sampled_from([*range(11), 50]), st.floats(0.05, 20.0),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_circle_max_bracket_holds_the_max(deg, radius, complex_coeffs, seed):
    # M_N is the FFT's sample max and M_up its certified upper end: the
    # refined search starts from the same samples and lies in the bracket,
    # and a dense grid's max D <= M <= M_up; D need not reach M_N (it can
    # miss the maximizing sample), but its own Bernstein end D_up >= M
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, deg + 1)
    if complex_coeffs:
        c = c + 1j * rng.uniform(-1.0, 1.0, deg + 1)
    f = Polynomial(1, deg, c)
    M_N, M_up = _circle_max_abs(f, radius)
    n = covering.CIRCLE_SAMPLES
    allow = covering.FFT_ROUNDING * float(
        np.sum(np.abs(c) * radius ** np.arange(deg + 1)))
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    assert abs(np.abs(f.eval_many(radius * np.exp(1j * th))).max() - M_N
               ) <= allow
    assert M_N - allow <= _circle_max_reference(f, radius) <= M_up
    dense = 200_001
    th = np.linspace(0.0, 2.0 * math.pi, dense, endpoint=False)
    D = float(np.abs(f.eval_many(radius * np.exp(1j * th))).max())
    assert D <= M_up
    assert M_N - allow <= (D + allow) / math.sqrt(
        1.0 - 0.5 * (math.pi * deg / dense) ** 2)


def test_cartan_degree_cap_before_circle_max():
    f = Polynomial(1, 51, np.r_[1.0, np.zeros(50), 1e-3])
    with mock.patch.object(covering, "_circle_max_abs",
                           side_effect=AssertionError("M computed")):
        with pytest.raises(ValueError, match="degree <= 50"):
            cartan_exclusion_disks(f, R=1.0, eta=1.0, grid=cartan_grid(n=5))


def test_cartan_constant_one():
    f = Polynomial.from_dict(1, {(0,): 1.0})
    rep = cartan_exclusion_disks(f, R=2.0, eta=1.0, grid=cartan_grid())
    assert rep.disks == []
    assert not rep.violations
    assert rep.lower_bound == pytest.approx(0.0, abs=1e-9)


def test_cartan_zero_floor_is_positive_zero():
    # M_N <= 1 gives the floor -H ln 1, reported as +0.0, not -0.0
    f = Polynomial.from_dict(1, {(0,): 1.0})
    for eta in (0.1, 1.0, 1.5 * math.e):
        rep = cartan_exclusion_disks(f, R=2.0, eta=eta,
                                     grid=cartan_grid(n=5))
        assert rep.M_bracket[0] <= 1.0
        assert math.copysign(1.0, rep.lower_bound) == 1.0
        assert rep.lower_bound == 0.0


def test_cartan_h_at_max_eta():
    # H(3e/2) = 2, so the floor is -2 ln M(2eR)
    f = Polynomial.from_dict(1, {(0,): 1.0, (1,): 0.1})
    rep = cartan_exclusion_disks(f, R=1.0, eta=1.5 * math.e,
                                 grid=cartan_grid(R=1.0))
    log_max = math.log(_circle_max_abs(f, 2.0 * math.e)[0])
    assert log_max > 0.4
    assert rep.lower_bound == pytest.approx(-2.0 * log_max, rel=1e-12)
    assert rep.M_bracket == _circle_max_abs(f, 2.0 * math.e)


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
        cartan_exclusion_disks(Polynomial.from_dict(1, {(0,): 1.0}), R=1.0,
                               eta=5.0, grid=grid)


def test_cartan_grid_must_be_complex_points():
    f = Polynomial.from_dict(1, {(0,): 1.0})
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


@given(st.integers(0, covering.MAX_CARTAN_DEGREE), st.floats(0.05, 20.0),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_horner_agrees_with_eval_many(deg, R, complex_coeffs, seed):
    # each evaluation is within about 2 (d+1) eps sum |a_k| |z|^k of the
    # exact value (Higham, Accuracy and Stability, sec. 5.1, with complex
    # products), so the two agree within twice that
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, deg + 1)
    if complex_coeffs:
        a = a + 1j * rng.uniform(-1.0, 1.0, deg + 1)
    z = R * np.sqrt(rng.random(500)) * np.exp(2j * math.pi * rng.random(500))
    z[:2] = [0.0, R]
    scale = np.abs(a) @ np.abs(z)[None, :] ** np.arange(deg + 1)[:, None]
    err = np.abs(_horner(a, z) - Polynomial(1, deg, a).eval_many(z))
    assert np.all(err <= 4.0 * (deg + 1) * np.finfo(float).eps * scale)


def test_cartan_memory_does_not_grow_with_degree():
    # the floor walks the grid in pieces and evaluates f by Horner's rule,
    # so a degree-50 call holds no (points x (d + 1)) table; the parent's
    # monomial table made this peak 42 times the grid's bytes
    coeffs = np.random.default_rng(50).uniform(-1.0, 1.0, 51)
    coeffs[0] = 1.0
    f, grid = Polynomial(1, 50, coeffs), cartan_grid(n=400)
    tracemalloc.start()
    try:
        rep = cartan_exclusion_disks(f, 2.0, 0.1, grid=grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.num_checked > len(grid) // 2
    assert peak < 2 * grid.nbytes


def report_fields(rep):
    return {name: (v.tobytes() if isinstance(v, np.ndarray) else v)
            for name, v in vars(rep).items() if name != "cover"}


@pytest.mark.parametrize("entries", [16, 16 * 7, 16 * (BOX + 3)])
def test_floor_pieces_do_not_move_the_reports(entries):
    # BLOCK_ENTRIES // 16 points per piece of the floor check; the zeros of
    # f lie near |z| = 2.9, so the disks leave grid points even at eta = 1
    f = Polynomial(1, 3, np.array([1.0, 0.05j, 0.0, -0.033 + 0.024j]))
    grid = cartan_grid(R=1.5, n=61)
    pts = np.column_stack([grid.real, grid.imag])
    space = DiscreteMeasureSpace(np.random.default_rng(3).random((9, 2)),
                                 np.ones(9))
    want = [cartan_exclusion_disks(f, 1.5, eta, grid=grid)
            for eta in (0.1, 1.0)]
    want.append(potential_bound_verify(space, H=0.25, s=1.0, grid=pts))
    with mock.patch.object(covering, "BLOCK_ENTRIES", entries):
        got = [cartan_exclusion_disks(f, 1.5, eta, grid=grid)
               for eta in (0.1, 1.0)]
        got.append(potential_bound_verify(space, H=0.25, s=1.0, grid=pts))
    for a, b in zip(got, want):
        assert b.num_checked > 0
        assert report_fields(a) == report_fields(b)


def cartan_walk(f, R, grid, centers, radii, bound, floor=None):
    """The Cartan floor's grid walk, called directly on the given disks."""
    a = f.coeffs[: f.degree() + 1]
    pts = np.ascontiguousarray(grid).view(float).reshape(-1, 2)
    with np.errstate(divide="ignore"):
        return (floor or covering._off_ball_floor)(
            centers, radii, pts,
            lambda p: np.log(np.abs(_horner(a, p.view(complex)[:, 0]))),
            bound, within=lambda p: np.abs(p.view(complex)[:, 0]) <= R)


def disk_arrays(rep):
    return (np.array([[c.real, c.imag] for c, _ in rep.disks]).reshape(-1, 2),
            np.array([r for _, r in rep.disks]))


def test_cartan_fast_path_at_its_margin():
    # one disk around the zero 0.5 of 1 - 2z with |c| + R = 2.5 against
    # r (1 - 1e-12): r0 = 2.5 / (1 - 1e-12) rounds to equality, so the walk
    # runs there and one ulp below, and the skip fires one ulp above; at
    # r = 2.5 and one ulp below the grid point -2 sits on and just off the
    # circle, and the walk checks nothing and that one point
    f, R, grid = Polynomial(1, 1, np.array([1.0, -2.0])), 2.0, cartan_grid()
    r0 = 2.5 / (1.0 - 1e-12)
    radii = [np.nextafter(r0, 0.0), r0, np.nextafter(r0, np.inf), 2.5,
             np.nextafter(2.5, 0.0)]
    walked = []
    for r, checked, skips in zip(radii, [0, 0, 0, 0, 1],
                                 [False, False, True, False, False]):
        cover = CoverOutput(np.array([[0.5, 0.0]]), np.array([r]),
                            np.array([r / BETA]), DEFAULT_GAMMA, 0.0)
        with mock.patch.object(covering, "greedy_ball_cover",
                               return_value=cover), \
                mock.patch.object(covering, "_off_ball_floor",
                                  wraps=covering._off_ball_floor) as floor:
            rep = cartan_exclusion_disks(f, R, 1.0, grid=grid)
        assert rep.disks == [(0.5 + 0.0j, r)] and floor.called != skips
        walk = cartan_walk(f, R, grid, cover.centers, cover.radii,
                           rep.lower_bound)
        assert (rep.num_checked, rep.violations, rep.worst_margin) == walk
        assert walk[0] == checked
        walked.append(floor.called)
    assert walked == [True, True, False, True, True]


def test_criterion_4_eta_one_floors_skip_the_walk():
    # criterion 4's 50 polynomials at eta = 1: one disk holds all of
    # |z| <= R in every call, so the floor is never walked, and the report
    # equals, field for field, the one the walk would give
    rng, R = np.random.default_rng(7), 2.0
    grid = cartan_grid(R=R, n=400)
    for _ in range(50):
        deg = int(rng.integers(3, 11))
        coeffs = rng.uniform(-1.0, 1.0, deg + 1)
        coeffs[0] = 1.0
        f = Polynomial(1, deg, coeffs)
        with mock.patch.object(covering, "_off_ball_floor",
                               wraps=covering._off_ball_floor) as floor:
            rep = cartan_exclusion_disks(f, R, 1.0, grid=grid)
        assert floor.call_count == 0
        checked, violations, worst = cartan_walk(f, R, grid, *disk_arrays(rep),
                                                 rep.lower_bound)
        walked = CartanDiskReport(**{**vars(rep), "num_checked": checked,
                                     "violations": violations,
                                     "worst_margin": worst})
        assert report_fields(rep) == report_fields(walked)
        assert rep.num_checked == 0 and rep.worst_margin is None


def per_piece_floor(centers, radii, points, values, bound,
                    within=lambda p: np.ones(len(p), dtype=bool)):
    """The floor with one ball mask per piece instead of one per call."""
    checked, violations, lows = 0, [], []
    step = max(1, BLOCK_ENTRIES // 16)
    for piece in np.split(points, range(step, len(points), step)):
        piece = np.compress(within(piece), piece, axis=0)
        piece = np.compress(~_in_balls(centers, radii, piece), piece, axis=0)
        margins = values(piece) - bound
        lows.append(margins.min(initial=np.inf))
        bad = np.flatnonzero(
            margins < -covering.FLOOR_RTOL * (1.0 + abs(bound)))
        violations += [{"point": list(map(float, piece[i])),
                        "margin": float(margins[i])} for i in bad]
        checked += len(piece)
    return checked, violations, float(np.min(lows)) if checked else None


def test_one_mask_floor_matches_per_piece_reference():
    # on the 400 x 400 Cartan grid at eta = 0.1, and on the covering CLI's
    # default grid, at the certified floor and at a raised one that fails
    # at many points, so the violation lists are long and in point order
    rng, R = np.random.default_rng(7), 2.0
    grid = cartan_grid(R=R, n=400)
    for deg in (3, 7, 10):
        coeffs = rng.uniform(-1.0, 1.0, deg + 1)
        coeffs[0] = 1.0
        f = Polynomial(1, deg, coeffs)
        rep = cartan_exclusion_disks(f, R, 0.1, grid=grid)
        for bound in (rep.lower_bound, 1.0):
            got = cartan_walk(f, R, grid, *disk_arrays(rep), bound)
            want = cartan_walk(f, R, grid, *disk_arrays(rep), bound,
                               floor=per_piece_floor)
            assert got == want and got[0] > len(grid) // 2
        assert got[1]
    rng = np.random.default_rng(1)
    space = DiscreteMeasureSpace(rng.random((32, 2)), np.ones(32))
    gx, gy = np.meshgrid(np.linspace(-0.5, 1.5, 100),
                         np.linspace(-0.5, 1.5, 100))
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    cover = potential_bound_verify(space, H=0.25, s=1.0, grid=pts).cover
    for bound in (32 * math.log(0.25 / math.e), -10.0):
        got, want = (floor(cover.centers, cover.radii, pts,
                           lambda p: potential_many(space, p), bound)
                     for floor in (covering._off_ball_floor, per_piece_floor))
        assert got == want and got[0] > 0
    assert got[1]


def test_cartan_grid_layout_does_not_move_the_report():
    # a strided or single-precision grid gives the report of its contiguous
    # complex128 copy, field for field
    f = Polynomial(1, 3, np.array([1.0, -0.8 + 0.3j, 0.9j, -0.6]))
    grid = cartan_grid(R=1.5, n=61)
    for layout in (grid[::-1], grid.astype(np.complex64)):
        rep = cartan_exclusion_disks(f, R=1.5, eta=0.25, grid=layout)
        want = cartan_exclusion_disks(f, R=1.5, eta=0.25,
                                      grid=layout.astype(complex, order="C"))
        assert rep.disks and rep.num_checked > 0
        for name in want.__dataclass_fields__:
            a, b = getattr(rep, name), getattr(want, name)
            assert (a.tobytes() == b.tobytes() if isinstance(a, np.ndarray)
                    else a == b), name
    with pytest.raises(ValueError, match="complex"):
        cartan_exclusion_disks(f, R=1.5, eta=0.25, grid=grid.real.copy())


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
