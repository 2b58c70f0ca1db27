import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from fractal_remez.fractals import (CellCountError, FractalSet, ball_measure,
                                    build_preset, build_set,
                                    estimate_regularity, product_set,
                                    regularity_samples, transform)


def test_cantor_depth_one():
    X = build_preset("cantor:1/3", 1)
    assert X.size == 2
    assert np.allclose(sorted(X.masses), [0.5, 0.5])
    # oracle: 2 (1/3)^s = 1  =>  s = ln 2 / ln 3
    assert X.s == pytest.approx(math.log(2) / math.log(3), abs=1e-9)


def test_unit_interval_preset():
    X = build_preset("cube:1", 5)
    assert X.s == pytest.approx(1.0, abs=1e-9)
    assert X.size == 32
    assert np.allclose(X.masses, 1.0 / 32)
    assert X.total_mass == 1.0


def test_dust_preset():
    X = build_preset("dust2d:1/4", 3)
    # oracle: 4 (1/4)^s = 1  =>  s = 1
    assert X.s == pytest.approx(1.0, abs=1e-9)
    assert X.size == 4 ** 3
    assert X.ambient_dim == 2


@pytest.mark.parametrize("set_id, s", [
    ("cube:1", 1.0), ("cube:2", 2.0), ("cube:3", 3.0),
    ("dust2d:1/4", 1.0), ("dust2d:1/2", 2.0),
    ("cantor:1/3", math.log(2) / -math.log(1 / 3)),
])
def test_similarity_dim_is_closed_form(set_id, s):
    # m maps of ratio r: s = ln m / ln(1/r), with no solver residual
    assert build_preset(set_id, 2).s == s


def test_transformed_unit_interval_mass_is_exact():
    # with s = 1 exactly, scale^s is the scale itself
    Y = transform(build_preset("cube:1", 9), 2.0, [-1.0])
    assert np.all(Y.masses == 2 / 512)
    assert Y.total_mass == 2.0


def _cloud_digest(X):
    h = hashlib.sha256()
    for a in (X.points, X.masses, np.array([X.diam, X.cell_diam])):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("set_id, digest", [
    ("cantor:1/3",
     "7d7dae7a2d676d4aeefabca23f0f6ef5266a0e0069204727d938c1d9f48122dd"),
    ("dust2d:1/4",
     "500971293c1cbad543e6fe2c42b68bc112c9c5ba9c6e4a3f586f4d1eca8ac045"),
    ("cube:1",
     "79633d97318577f69b31d8b92323b5e3e0e9e6f5a8990d4b7c06cde5eb5f636f"),
    ("cube:2",
     "a7f7036eca733e9bbf7dc32b1b1909477d100bbeff51eb4b44cf9b5c9d736265"),
    ("cube:3",
     "4c52b0c25d3fd9a52eef9b73422ec28dbbfdbc638e5adbbb40f45aa22697e40a"),
    ("cantor:1/3*cube:1",
     "9d0f2f03ba982eb7c70b4734981dbf24c7c9882649eddd92729f96547bcb4095"),
])
def test_preset_clouds_are_pinned(set_id, digest):
    # points, masses, diam and cell_diam at depth 5, bit for bit, as the
    # general iterated-function-system construction built them
    X = build_preset(set_id, 5)
    assert _cloud_digest(X) == digest
    assert X.total_mass == 1.0


def test_refinement_mass_conservation_exact():
    for sid, depth, m in (("cantor:1/3", 5, 2), ("dust2d:1/4", 3, 4)):
        X = build_preset(sid, depth)
        Y = build_preset(sid, depth + 1)
        assert abs(Y.masses.sum() - X.masses.sum()) <= 1e-12
        # children of parent j live at positions i * m^depth + j
        child = Y.masses.reshape(m, X.size)
        assert np.all(child.sum(axis=0) == X.masses)


def test_cloud_nesting_across_depths():
    X5 = build_preset("cantor:1/3", 5)
    X7 = build_preset("cantor:1/3", 7)
    set7 = {round(float(x), 12) for x in X7.points[:, 0]}
    assert all(round(float(x), 12) in set7 for x in X5.points[:, 0])


def test_ball_swallows_set():
    X = build_preset("cantor:1/3", 5)
    assert ball_measure(X, X.points[0], X.diam + 1.0) == pytest.approx(
        X.total_mass, abs=1e-12)


def test_ball_misses_set():
    X = build_preset("cantor:1/3", 5)
    assert ball_measure(X, [10.0], 0.5) == 0.0


@pytest.mark.parametrize("num_balls", [10 ** 5, 1])
def test_ball_measure_rejects_non_finite_balls(num_balls):
    # a NaN or infinite center misses every point, so it used to read 0.0;
    # the bad ball sits anywhere in the batch, up to its last entry
    X = build_preset("cantor:1/3", 5)
    idx = np.arange(num_balls) % X.size
    centers, radii = X.points[idx], np.full(num_balls, 0.5)
    last = num_balls - 1
    for i, x, r in ((last, np.nan, 0.5), (last, -np.inf, 0.5),
                    (last // 2, 0.0, np.nan), (0, 0.0, np.inf),
                    (last, 0.0, 0.0), (last // 3, 0.0, -0.5)):
        c, rad = centers.copy(), radii.copy()
        c[i], rad[i] = x, r
        with pytest.raises(ValueError, match="finite"):
            ball_measure(X, c, rad)
    longer = np.full(num_balls + 1, 0.5)
    for c, rad in ((centers, radii[:-1]), (centers, longer),
                   (X.points[0], np.full(2, 0.5))):
        with pytest.raises(ValueError, match="centers for"):
            ball_measure(X, c, rad)


def test_ball_left_third():
    X = build_preset("cantor:1/3", 6)
    assert ball_measure(X, [0.0], 1 / 3 + 1e-9) == pytest.approx(0.5,
                                                                abs=1e-12)


def _scan_measure(X, x, r):
    """The open-ball mass by a scan of the whole cloud."""
    return float(np.sum(X.masses[np.linalg.norm(X.points - x, axis=1) < r]))


def _assert_batch_is_scan(X, centers, radii):
    got = ball_measure(X, centers, radii)
    want = [_scan_measure(X, x, r) for x, r in zip(centers, radii)]
    assert got.shape == (len(radii),)
    assert got.tolist() == want


def _unequal_cloud():
    rng = np.random.default_rng(8)
    return FractalSet(points=rng.uniform(0.0, 1.0, (300, 2)),
                      masses=rng.uniform(0.5, 2.0, 300) / 375.0, s=2.0,
                      diam=math.sqrt(2.0), cell_diam=0.05, total_mass=1.0)


def test_bucket_index_agrees_exactly():
    X = build_preset("cantor:1/3", 10)
    rng = np.random.default_rng(3)
    _assert_batch_is_scan(X, rng.uniform(-0.2, 1.2, (200, 1)),
                          rng.uniform(1e-3, 1.5, 200))
    assert X._tree is not None
    Y = _unequal_cloud()
    _assert_batch_is_scan(Y, rng.uniform(-0.2, 1.2, (200, 2)),
                          rng.uniform(1e-3, 1.5, 200))


def test_index_agrees_exactly_at_boundary_radii():
    # a radius equal to a cloud point's distance, and one ulp either side,
    # puts that point in the shell where the two tree counts disagree
    for X in (build_preset("cantor:1/3", 10), build_preset("dust2d:1/4", 5),
              build_preset("cantor:1/3*cantor:1/3", 5), _unequal_cloud()):
        rng = np.random.default_rng(5)
        x = X.points[rng.integers(X.size, size=200)] + rng.normal(
            scale=1e-3, size=(200, X.ambient_dim))
        d = np.linalg.norm(X.points[rng.integers(X.size, size=200)] - x,
                           axis=1)
        for r in (d, np.nextafter(d, np.inf), np.nextafter(d, 0.0)):
            _assert_batch_is_scan(X, x, r)
        # a batch of one: a single center with one radius
        r = np.linalg.norm(X.points[1] - X.points[0])
        assert ball_measure(X, X.points[0], r).tolist() == [
            _scan_measure(X, X.points[0], r)]


def test_regularity_unit_interval():
    X = build_preset("cube:1", 10)
    est = estimate_regularity(X, regularity_samples(
        X, 500, (4 * 2.0 ** -10, 0.5), np.random.default_rng(4)))
    assert est.num_samples == 500
    # a ball of radius r in [0,1] has length between r and 2r
    assert est.b_hat >= 1.0 - 0.25
    assert est.a_hat <= 2.0 + 0.25


def test_regularity_depth_stability():
    X8 = build_preset("cantor:1/3", 8)
    X10 = build_preset("cantor:1/3", 10)
    samples = regularity_samples(X8, 400, (4 * 3.0 ** -8, 1.0),
                                 np.random.default_rng(5))
    e8 = estimate_regularity(X8, samples=samples)
    e10 = estimate_regularity(X10, samples=samples)
    assert abs(e10.a_hat / e8.a_hat - 1.0) < 0.10
    assert abs(e10.b_hat / e8.b_hat - 1.0) < 0.10


def test_regularity_rejects_degenerate():
    X = build_preset("cantor:1/3", 6)
    single = FractalSet(points=X.points[:1], masses=X.masses[:1], s=X.s,
                        diam=X.diam, cell_diam=X.cell_diam, total_mass=1.0)
    with pytest.raises(ValueError, match="degenerate set"):
        estimate_regularity(single, (single.points, [X.diam]))
    with pytest.raises(ValueError, match="degenerate radius range"):
        regularity_samples(X, 10, (0.5, 0.1), np.random.default_rng(0))
    # given samples obey the radius rules of a drawn range
    centers = X.points[:8]
    for r in (0.1 * X.cell_diam, 10.0 * X.diam, 0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="radii"):
            estimate_regularity(X, samples=(centers, np.full(8, r)))


def test_regularity_rejects_mismatched_samples():
    # zip would pair the shorter list and num_samples count the radii
    X = build_preset("cantor:1/3", 6)
    centers, radii = regularity_samples(X, 8, (4 * X.cell_diam, X.diam),
                                        np.random.default_rng(0))
    for c, r in ((centers, radii[:7]), (centers[:7], radii)):
        with pytest.raises(ValueError, match="centers for"):
            estimate_regularity(X, samples=(c, r))


def test_product_dimensions_add():
    C = build_preset("cantor:1/3", 4)
    P = product_set(C, C)
    assert P.s == pytest.approx(2 * math.log(2) / math.log(3), abs=1e-9)
    assert P.ambient_dim == 2
    assert P.size == C.size ** 2
    I = build_preset("cube:1", 4)
    PI = product_set(C, I)
    assert PI.s == pytest.approx(C.s + 1.0, abs=1e-9)


def test_product_mass_is_tensor():
    C = build_preset("cantor:1/3", 3)
    I = build_preset("cube:1", 3)
    P = product_set(C, I)
    assert P.masses.sum() == pytest.approx(C.total_mass * I.total_mass,
                                           abs=1e-12)


def test_product_ball_bounded_by_factor_balls():
    C = build_preset("cantor:1/3", 5)
    P = product_set(C, C)
    rng = np.random.default_rng(6)
    for _ in range(50):
        i = rng.integers(0, P.size)
        x = P.points[i]
        r = rng.uniform(0.05, 1.0)
        prod = ball_measure(P, x, r)
        fac = ball_measure(C, x[:1], r) * ball_measure(C, x[1:], r)
        assert prod <= fac + 1e-12


def test_transform_scales_mass_by_power():
    C = build_preset("cantor:1/3", 5)
    Y = transform(C, 0.5, [1.0])
    assert Y.total_mass == pytest.approx(0.5 ** C.s, rel=1e-12)
    assert Y.diam == pytest.approx(0.5 * C.diam)
    assert np.min(Y.points) >= 1.0


def test_transform_rejects_non_finite_scale():
    C = build_preset("cantor:1/3", 3)
    for scale in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            transform(C, scale, [0.0])


def test_transform_rejects_non_finite_offset():
    C = build_preset("cantor:1/3", 3)
    for offset in ([np.nan], [np.inf], -np.inf):
        with pytest.raises(ValueError, match="offset must be finite"):
            transform(C, 2.0, offset)


def test_product_id_parsing():
    P = build_preset("cantor:1/3*cantor:1/3", 3)
    assert P.ambient_dim == 2
    assert P.size == 64


def test_higher_cube_presets():
    X2 = build_preset("cube:2", 4)
    assert X2.s == pytest.approx(2.0, abs=1e-9)
    assert X2.size == 4 ** 4
    assert X2.diam == pytest.approx(math.sqrt(2.0))
    X3 = build_preset("cube:3", 2)
    assert X3.s == pytest.approx(3.0, abs=1e-9)


def test_unknown_and_invalid_ids():
    with pytest.raises(KeyError):
        build_preset("sierpinski:1/2", 3)
    with pytest.raises(ValueError):
        build_preset("cantor:2/3", 3)


def test_cell_count_overflow():
    with pytest.raises(CellCountError):
        build_preset("dust2d:1/4", 13)


def test_product_cell_cap_is_checked_before_any_factor_is_built():
    # each factor of cube:3*cube:3 at depth 7 has 8^7 = 2,097,152 points
    # (50 MB of coordinates); the product's 8^14 cells exceed the cap, and
    # the check uses the factor sizes alone
    tracemalloc.start()
    try:
        with pytest.raises(CellCountError, match="cap"):
            build_preset("cube:3*cube:3", 7)
        with pytest.raises(CellCountError, match="cap"):
            build_preset("cube:3 * cantor:1/3", 10 ** 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_build_set_depth_validation():
    with pytest.raises(ValueError):
        build_set(1 / 3, [(0.0,), (2 / 3,)], 0, diam=1.0)
