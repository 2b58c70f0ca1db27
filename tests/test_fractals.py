import math

import numpy as np
import pytest

from fractal_remez import fractals
from fractal_remez.fractals import (CellCountError, FractalSet, IFS,
                                    Similarity, ball_measure, build_preset,
                                    build_set, estimate_regularity,
                                    product_set, regularity_samples,
                                    solve_similarity_dim, transform)


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


def test_similarity_dim_residual():
    for ratios in ([1 / 3, 1 / 3], [0.25] * 4, [0.5, 0.3]):
        s = solve_similarity_dim(ratios)
        assert abs(sum(r ** s for r in ratios) - 1.0) <= 1e-12


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


@pytest.mark.parametrize("threshold", [fractals.BUCKET_THRESHOLD, 1])
def test_ball_measure_rejects_non_finite_balls(monkeypatch, threshold):
    # a NaN or infinite center misses every point, so it used to read 0.0
    monkeypatch.setattr(fractals, "BUCKET_THRESHOLD", threshold)
    X = build_preset("cantor:1/3", 5)
    for x, r in (([np.nan], 0.5), ([-np.inf], 0.5), ([0.0], np.nan),
                 ([0.0], np.inf), ([0.0], 0.0)):
        with pytest.raises(ValueError, match="finite"):
            ball_measure(X, x, r)


def test_ball_left_third():
    X = build_preset("cantor:1/3", 6)
    assert ball_measure(X, [0.0], 1 / 3 + 1e-9) == pytest.approx(0.5,
                                                                abs=1e-12)


def _scan_measure(X, x, r):
    """The open-ball mass by a scan of the whole cloud."""
    return float(np.sum(X.masses[np.linalg.norm(X.points - x, axis=1) < r]))


def test_bucket_index_agrees_exactly(monkeypatch):
    monkeypatch.setattr(fractals, "BUCKET_THRESHOLD", 0)  # always the tree
    X = build_preset("cantor:1/3", 10)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-0.2, 1.2, 1)
        r = rng.uniform(1e-3, 1.5)
        assert ball_measure(X, x, r) == _scan_measure(X, x, r)
    assert X._tree is not None


def test_index_agrees_exactly_at_boundary_radii(monkeypatch):
    # radii one ulp above a cloud point's distance put it on the edge
    monkeypatch.setattr(fractals, "BUCKET_THRESHOLD", 0)
    for preset, depth in (("cantor:1/3", 10), ("dust2d:1/4", 5)):
        X = build_preset(preset, depth)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = X.points[rng.integers(X.size)] + rng.normal(
                scale=1e-3, size=X.ambient_dim)
            d = np.linalg.norm(X.points[rng.integers(X.size)] - x)
            for r in (d, np.nextafter(d, np.inf)):
                assert ball_measure(X, x, r) == _scan_measure(X, x, r)


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


def test_csv_export(tmp_path):
    X = build_preset("cantor:1/3", 4)
    path = tmp_path / "cloud.csv"
    X.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,mass"
    assert len(lines) == X.size + 1


def test_ifs_from_maps_checks_dims():
    with pytest.raises(ValueError):
        IFS.from_maps([Similarity(0.4, (0.0,)), Similarity(0.4, (0.0, 0.0))])


def test_build_set_depth_validation():
    ifs = IFS.from_maps([Similarity(1 / 3, (0.0,)),
                         Similarity(1 / 3, (2 / 3,))])
    with pytest.raises(ValueError):
        build_set(ifs, 0, diam=1.0)
