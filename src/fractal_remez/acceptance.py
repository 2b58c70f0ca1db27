"""The acceptance suite: eleven oracle- and property-based criteria.

Each criterion is a self-contained, internally seeded experiment that
returns its measured figures, the threshold it is held to, and pass/fail.
Together they exercise the sharp one-dimensional Remez equality case, the
bound ordering, the covering construction's postconditions, the exclusion
disk certificate, Ahlfors regularity of the shipped sets, the weak-Remez
monotonicity in 1/lambda, gradient-ratio boundedness on a product set,
best-approximation oracle agreement, majorant arithmetic, the end-to-end
extension operator, and the BMO / reverse Holder witnesses.

Serially the eleven criteria take 2.2–2.7 s on a shared 2-CPU host (seven
runs, Python 3.11); everything is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import campanato, covering, extension, fractals, remez
from .geometry import Ball, Cube
from .polynomials import Polynomial, chebyshev, exponent_array


@dataclass
class CriterionResult:
    number: int
    name: str
    measured: dict
    threshold: str
    passed: bool
    seconds: float = field(default=0.0, init=False)


# -- 1 ----------------------------------------------------------------------


def criterion_1_remez_sharpness() -> CriterionResult:
    """Extremal Chebyshev transplants achieve the sharp constant within 1%."""
    base = fractals.build_preset("cube:1", 12)
    V = Ball((0.0,), 1.0)
    worst = 0.0
    for k in range(1, 7):
        for eps in (0.1, 0.5):
            omega_set = fractals.transform(base, 2.0 - eps, [-1.0])
            p = chebyshev(k).compose_affine(2.0 / (2.0 - eps),
                                            eps / (2.0 - eps))
            rep = remez.empirical_remez(p, V, omega_set, np.inf, np.inf)
            bound = remez.bg_bound(1, k, (2.0 - eps) / 2.0)
            worst = max(worst, abs(rep.empirical_ratio / bound - 1.0))
    return CriterionResult(1, "remez_sharpness_1d",
                           {"max_rel_err": worst},
                           "max relative error <= 0.01", worst <= 0.01)


# -- 2 ----------------------------------------------------------------------


def criterion_2_bound_ordering() -> CriterionResult:
    """Sharp bound never exceeds the power bound on the parameter grid."""
    lams = np.linspace(0.01, 1.0, 100)
    worst, violations = -math.inf, 0
    for n in (1, 2, 3):
        for k in range(1, 9):
            for lam in lams:
                bg = remez.bg_bound(n, k, lam)
                sb = remez.simple_bound(n, k, lam)
                worst = max(worst, bg / sb)
                violations += bool(bg > sb * (1.0 + 1e-12))
    return CriterionResult(2, "bound_ordering",
                           {"violations": violations, "max_bg_over_simple": worst},
                           "zero violations of bg <= simple", violations == 0)


# -- 3 ----------------------------------------------------------------------


def criterion_3_covering_postconditions() -> CriterionResult:
    """Greedy ball cover postconditions on 200 random atomic measures."""
    rng = np.random.default_rng(2025)
    gx, gy = np.meshgrid(np.linspace(-0.2, 1.2, 15), np.linspace(-0.2, 1.2, 15))
    probes = np.column_stack([gx.ravel(), gy.ravel()])
    bad_runs, max_balls_over_atoms = 0, 0.0
    for _ in range(200):
        m = int(rng.integers(2, 65))
        space = covering.DiscreteMeasureSpace(rng.random((m, 2)),
                                              rng.uniform(0.1, 1.0, m))
        s = float(rng.uniform(0.5, 2.0))
        scale = max(space.extent(), 0.25)
        p = (2.0 * space.A) ** (1.0 / s) / scale
        phi = covering.MajorantFn.power(p, s)
        cover = covering.greedy_ball_cover(space, phi, probes=probes)
        checks = covering.verify_cover(space, phi, cover, probes=probes)
        bad_runs += not all(checks[c] for c in (
            "budget_below_total_mass", "radii_nonincreasing",
            "uncovered_points_regular", "ball_count_le_atoms"))
        max_balls_over_atoms = max(max_balls_over_atoms, cover.count / m)
    return CriterionResult(3, "covering_postconditions",
                           {"bad_runs": bad_runs,
                            "max_balls_over_atoms": max_balls_over_atoms},
                           "zero violations across 200 random measures",
                           bad_runs == 0)


# -- 4 ----------------------------------------------------------------------


def criterion_4_cartan_certificate() -> CriterionResult:
    """Exclusion-disk certificate for 50 random polynomials, two eta values."""
    rng = np.random.default_rng(7)
    R = 2.0
    axis = np.linspace(-R, R, 400)
    gx, gy = np.meshgrid(axis, axis)
    grid = (gx + 1j * gy).ravel()
    runs = bad = vacuous = 0  # vacuous: no grid point off the disks
    worst_margin = math.inf
    max_radius_frac = max_M_bracket = 0.0
    for _ in range(50):
        deg = int(rng.integers(3, 11))
        coeffs = rng.uniform(-1.0, 1.0, deg + 1)
        coeffs[0] = 1.0
        f = Polynomial(1, deg, coeffs)
        for eta in (0.1, 1.0):
            rep = covering.cartan_exclusion_disks(f, R, eta, grid=grid)
            runs += 1
            bad += not rep.ok
            vacuous += rep.num_checked == 0
            if rep.worst_margin is not None:
                worst_margin = min(worst_margin, rep.worst_margin)
            max_radius_frac = max(max_radius_frac,
                                  rep.radius_sum / (4.0 * eta * R))
            M_N, M_up = rep.M_bracket
            max_M_bracket = max(max_M_bracket, (M_up - M_N) / M_N)
    return CriterionResult(4, "cartan_disk_certificate",
                           {"runs": runs, "bad_runs": bad,
                            "worst_margin": worst_margin,
                            "vacuous_floor_runs": vacuous,
                            "max_radius_sum_fraction": max_radius_frac,
                            "max_M_bracket_rel_width": max_M_bracket},
                           "zero violations: grid bound, radius sum, half-disks;"
                           " M(2eR) sampled below, certified above", bad == 0)


# -- 5 ----------------------------------------------------------------------


def criterion_5_ahlfors_regularity() -> CriterionResult:
    """Sandwich spread and depth stability of the Cantor(1/3) constants."""
    X10 = fractals.build_preset("cantor:1/3", 10)
    X8 = fractals.build_preset("cantor:1/3", 8)
    est10 = fractals.estimate_regularity(X10, fractals.regularity_samples(
        X10, fractals.REGULARITY_SAMPLES, (4.0 * 3.0 ** -10, 1.0),
        np.random.default_rng(11)))
    spread = est10.a_hat / est10.b_hat
    samples = fractals.regularity_samples(
        X8, fractals.REGULARITY_SAMPLES, (4.0 * 3.0 ** -8, 1.0),
        np.random.default_rng(12))
    e8 = fractals.estimate_regularity(X8, samples=samples)
    e10 = fractals.estimate_regularity(X10, samples=samples)
    da = abs(e10.a_hat / e8.a_hat - 1.0)
    db = abs(e10.b_hat / e8.b_hat - 1.0)
    ok = spread < 25.0 and da < 0.10 and db < 0.10
    return CriterionResult(5, "ahlfors_regularity",
                           {"spread": spread, "a_change": da, "b_change": db},
                           "spread < 25; a,b change < 10% from depth 8 to 10",
                           ok)


# -- 6 ----------------------------------------------------------------------


def criterion_6_weak_remez_monotonicity() -> CriterionResult:
    """Measured weak-Remez constant is nondecreasing in 1/lambda.

    The test family over the nested subsets grows with the step: 50 fixed
    random cubics plus, at step j, the Chebyshev transplants adapted to
    the first j windows.  Nestedness keeps every per-polynomial ratio
    monotone, and the adapted extremals make the growth genuine.
    """
    rng = np.random.default_rng(21)
    X = fractals.build_preset("cantor:1/3", 10)
    V = Ball((0.5,), 0.5)
    polys = [Polynomial.random(rng, 1, 3) for _ in range(50)]
    sup_V, cs, lams, ratios = [], [], [], []
    for j in range(5):
        w = 3.0 ** -j
        polys.append(chebyshev(3).compose_affine(2.0 / w, -1.0))
        omega_j = fractals.transform(X, w, [0.0])
        while len(ratios) < len(polys):
            sup_V.append(remez.sup_norm(polys[len(ratios)], V))
            ratios.append(0.0)
        for i, p in enumerate(polys):
            sup_w = float(np.max(np.abs(p.eval_many(omega_j.points))))
            ratios[i] = max(ratios[i], sup_V[i] / sup_w)
        cs.append(max(ratios))
        lams.append(remez.measure_ratio(omega_j, V))
    monotone = all(cs[j + 1] >= cs[j] * (1.0 - 0.05) for j in range(4))
    # recorded, never asserted: growth exponent of ln C against ln(1/lambda)
    slope = float(np.polyfit(np.log(1.0 / np.array(lams)),
                             np.log(np.array(cs)), 1)[0])
    return CriterionResult(6, "weak_remez_monotonicity",
                           {"constants": cs, "lambdas": lams,
                            "log_slope_recorded": slope},
                           "nondecreasing in 1/lambda up to 5%", monotone)


# -- 7 ----------------------------------------------------------------------


def criterion_7_markov_boundedness() -> CriterionResult:
    """Gradient-ratio constants on Cantor(1/3)^2 stay bounded."""
    rng = np.random.default_rng(31)
    F = fractals.build_preset("cantor:1/3*cantor:1/3", 6)
    constants, failures = [], 0
    for _ in range(100):
        p = Polynomial.random(rng, 2, 3)
        centers = F.points[rng.integers(0, F.size, 2)]
        for x in centers:
            for j in range(1, 8):
                r = F.diam * 2.0 ** -j
                try:
                    constants.append(remez.markov_check(p, F, x, r))
                except ZeroDivisionError:
                    failures += 1
    constants = np.array(constants)
    ratio = float(constants.max() / np.median(constants))
    return CriterionResult(7, "markov_boundedness",
                           {"max_over_median": ratio,
                            "num_constants": len(constants),
                            "zero_divisions": failures},
                           "max/median < 50 over two dyadic decades of radii",
                           ratio < 50.0 and failures == 0)


# -- 8 ----------------------------------------------------------------------


def _brute_force_best(points, masses, fvals, k, q):
    """Zooming coefficient-grid minimization of the normalized L_q error."""
    n = points.shape[1]
    exps = exponent_array(n, max(k - 1, 0))
    A = np.prod(np.power(points[:, None, :], exps[None, :, :]), axis=2)
    if k == 0:
        A = np.zeros((len(points), 0))
    d = A.shape[1]
    w = masses / masses.sum()

    def objective(C):
        res = fvals[:, None] - A @ C
        if q in (np.inf, math.inf):
            return np.max(np.abs(res), axis=0)
        return np.sum(w[:, None] * np.abs(res) ** q, axis=0) ** (1.0 / q)

    if d == 0:
        return float(objective(np.zeros((0, 1)))[0])
    center = np.zeros(d)
    span = 4.0 * (1.0 + float(np.max(np.abs(fvals))))
    axes = np.linspace(-1.0, 1.0, 9)
    offsets = np.array(np.meshgrid(*([axes] * d), indexing="ij")).reshape(d, -1)
    best = math.inf
    for _ in range(40):
        C = center[:, None] + span * offsets
        vals = objective(C)
        j = int(np.argmin(vals))
        if vals[j] < best:
            best = float(vals[j])
        center = C[:, j]
        span *= 0.6
    return best


def criterion_8_best_approx_oracle() -> CriterionResult:
    """Solver values match zooming-grid brute force on tiny instances."""
    rng = np.random.default_rng(41)
    instances = []
    pts = np.array([[-1.0], [0.0], [1.0]])
    instances += [(pts, np.ones(3), pts[:, 0] ** 2, k) for k in (1, 2, 3)]
    pts5 = np.array([[0.0], [0.3], [0.55], [0.8], [1.0]])
    for k in (1, 2, 3):
        instances.append((pts5, rng.uniform(0.2, 1.0, 5),
                          rng.uniform(-1.0, 1.0, 5), k))
    instances.append((np.array([[0.2], [0.9]]), np.ones(2),
                      np.array([0.4, -1.2]), 3))  # rank-deficient
    for k in (1, 2):
        instances.append((rng.random((5, 2)), rng.uniform(0.2, 1.0, 5),
                          rng.uniform(-1.0, 1.0, 5), k))
    worst = {2: 0.0, math.inf: 0.0}
    for pts_i, w_i, f_i, k_i in instances:
        X = fractals.FractalSet(points=pts_i, masses=w_i, s=1.0,
                                diam=2.0, cell_diam=0.01,
                                total_mass=float(w_i.sum()))
        Q = Cube(tuple(np.mean(pts_i, axis=0)), 4.0)
        for q in (2, math.inf):
            ours = campanato.local_best_approx(f_i, X, Q, k_i, q).value
            brute = _brute_force_best(pts_i, w_i, f_i, k_i, q)
            worst[q] = max(worst[q], abs(ours - brute))
    ok = worst[2] <= 1e-6 and worst[math.inf] <= 1e-3
    return CriterionResult(8, "best_approx_oracle",
                           {"max_err_q2": worst[2],
                            "max_err_qinf": worst[math.inf]},
                           "q=2 within 1e-6, q=inf within 1e-3 of brute force",
                           ok)


# -- 9 ----------------------------------------------------------------------


def criterion_9_majorant_arithmetic() -> CriterionResult:
    """Dini constants and dyadic ladder sums for power majorants."""
    worst_c = max_ratio_frac = 0.0
    ok = True
    for lam in (0.25, 0.5, 1.0):
        rep = campanato.quasipower_check(campanato.Majorant.power(lam, 4))
        worst_c = max(worst_c, abs(rep.C_omega - 1.0 / lam))
        for k in range(1, 5):
            if lam > k:
                continue
            om = campanato.Majorant.power(lam, k)
            cap = 2.0 ** k * (1.0 / lam) / math.log(2.0)
            for (i, ip) in ((-20, 0), (-8, 4), (0, 2)):
                try:
                    _, _, ratio = campanato.majorant_sum_check(om, i, ip)
                except campanato.MajorantSumError:
                    ok = False
                    continue
                max_ratio_frac = max(max_ratio_frac, ratio / cap)
    ok = ok and worst_c <= 1e-9 and max_ratio_frac <= 1.0 + 1e-6
    return CriterionResult(9, "majorant_arithmetic",
                           {"max_C_omega_err": worst_c,
                            "max_ratio_over_cap": max_ratio_frac},
                           "C_omega = 1/lam within 1e-9; sums under the cap",
                           ok)


# -- 10 ---------------------------------------------------------------------


def _reproduction_error(X, fam, k, P, grid):
    """Relative reproduction error of the field and its number of holes;
    a hole is NaN in the field, so it makes the error NaN too."""
    fv = np.real(P.eval_many(X.points))
    om = campanato.Majorant.power(1.0, k)
    chain = extension.build_chain(fv, X, fam, k, om)
    fld = extension.whitney_extend(chain, X, grid)
    nodes = grid.nodes()
    truth = np.real(P.eval_many(nodes))
    scale = max(1.0, float(np.max(np.abs(truth))))
    return float(np.max(np.abs(fld.values - truth))) / scale, len(fld.holes)


def criterion_10_extension_operator() -> CriterionResult:
    """Polynomial reproduction, linearity, and nonsmooth ratio stability."""
    rng = np.random.default_rng(51)
    X1 = fractals.build_preset("cube:1", 9)
    fam1s = campanato.build_cube_family(X1, center_budget=128)
    grid1 = extension.GridSpec((-0.25,), (1.25,), (65,))
    X2 = fractals.build_preset("dust2d:1/4", 4)
    fam2 = campanato.build_cube_family(X2)
    grid2 = extension.GridSpec((-0.25, -0.25), (1.25, 1.25), (21, 21))

    # plain max throughout, so that a NaN (a grid hole) fails the check
    reps = []
    for i in range(12):
        k = 1 + i % 3
        P = Polynomial.random(rng, 1, max(k - 1, 0))
        reps.append(_reproduction_error(X1, fam1s, k, P, grid1))
    for i in range(8):
        k = 1 + i % 3
        P = Polynomial.random(rng, 2, max(k - 1, 0))
        reps.append(_reproduction_error(X2, fam2, k, P, grid2))
    max_rep = float(np.max([err for err, _ in reps]))
    holes = sum(h for _, h in reps)

    # linearity of the full pipeline
    om2 = campanato.Majorant.power(1.0, 2)
    f = np.abs(X1.points[:, 0] - 0.5)
    g = X1.points[:, 0] ** 2
    a, b = 0.7, -1.3
    ch_f = extension.build_chain(f, X1, fam1s, 2, om2)
    ch_g = extension.build_chain(g, X1, fam1s, 2, om2)
    ch_fg = extension.build_chain(a * f + b * g, X1, fam1s, 2, om2)
    fields = [extension.whitney_extend(ch, X1, grid1)
              for ch in (ch_f, ch_g, ch_fg)]
    holes += sum(len(fld.holes) for fld in fields)
    v_f, v_g, v_fg = (fld.values for fld in fields)
    scale = max(1.0, float(np.max(np.abs(v_fg))))
    lin_err = float(np.max(np.abs(v_fg - (a * v_f + b * v_g)))) / scale

    # nonsmooth suite: operator-norm proxy finite, stable under grid halving
    stabs, ratios = [], []
    X1sym = fractals.transform(fractals.build_preset("cube:1", 9), 2.0, [-1.0])
    suites = [
        (X1, campanato.build_cube_family(X1),
         np.abs(X1.points[:, 0] - 0.5), (-0.25,), (1.25,)),
        (X1sym, campanato.build_cube_family(X1sym),
         X1sym.points[:, 0] * np.abs(X1sym.points[:, 0]), (-1.5,), (1.5,)),
    ]
    for Xn, famn, fv, lo, hi in suites:
        chain = extension.build_chain(fv, Xn, famn, 2, om2)
        h_min = 4.0 * extension.GridSpec(lo, hi, (129,)).spacing
        flds = [extension.whitney_extend(chain, Xn, extension.GridSpec(
            lo, hi, (m,))) for m in (129, 257)]
        holes += sum(len(fl.holes) for fl in flds)
        ra, rb = (extension.verify_extension(fv, fl, Xn, 2, om2, family=famn,
                                             h_min=h_min).ratio for fl in flds)
        ratios.append((ra, rb))
        stabs.append(rb / ra)
    stable = all(0.5 <= st <= 2.0 for st in stabs)
    finite = all(np.isfinite(r) for pair in ratios for r in pair)
    ok = (max_rep <= 1e-8 and lin_err <= 1e-9 and stable and finite
          and holes == 0)
    return CriterionResult(10, "extension_operator",
                           {"max_reproduction_err": max_rep,
                            "linearity_err": lin_err,
                            "ratios": ratios,
                            "stability_factors": stabs,
                            "holes": holes},
                           "reproduction <= 1e-8, linearity <= 1e-9, "
                           "ratio stable within factor 2, no grid holes", ok)


# -- 11 ---------------------------------------------------------------------


def criterion_11_bmo_reverse_holder() -> CriterionResult:
    """ln|z| oscillation and reverse Holder ratios are depth-stable."""
    zpoly = Polynomial(1, 1, np.array([0.0 + 0.0j, 1.0 + 0.0j]))
    X8 = fractals.build_preset("cantor:1/3", 8)
    X10 = fractals.build_preset("cantor:1/3", 10)
    rng = np.random.default_rng(61)
    centers = X8.points[rng.integers(0, X8.size, 48)]
    scales = [3.0 ** -m for m in range(0, 6)]
    rep8 = remez.bmo_oscillation(zpoly, X8, scales, centers=centers)
    rep10 = remez.bmo_oscillation(zpoly, X10, scales, centers=centers)
    osc_ratio = max(rep8.max_oscillation / rep10.max_oscillation,
                    rep10.max_oscillation / rep8.max_oscillation)
    rh_ratios = []
    for x, r in [([0.0], 2.0), ([0.0], 0.5), ([2.0 / 3.0], 0.4)]:
        rh8 = remez.reverse_holder(zpoly, X8, x, r, 2)
        rh10 = remez.reverse_holder(zpoly, X10, x, r, 2)
        rh_ratios.append(max(rh8 / rh10, rh10 / rh8))
    ok = osc_ratio < 2.0 and all(r < 2.0 for r in rh_ratios)
    return CriterionResult(11, "bmo_reverse_holder",
                           {"oscillation_ratio": osc_ratio,
                            "osc_depth8": rep8.max_oscillation,
                            "osc_depth10": rep10.max_oscillation,
                            "reverse_holder_ratios": rh_ratios},
                           "depth 8 vs 10 ratios < 2", ok)


CRITERIA = [
    criterion_1_remez_sharpness,
    criterion_2_bound_ordering,
    criterion_3_covering_postconditions,
    criterion_4_cartan_certificate,
    criterion_5_ahlfors_regularity,
    criterion_6_weak_remez_monotonicity,
    criterion_7_markov_boundedness,
    criterion_8_best_approx_oracle,
    criterion_9_majorant_arithmetic,
    criterion_10_extension_operator,
    criterion_11_bmo_reverse_holder,
]


def run_criterion(fn) -> CriterionResult:
    t0 = time.perf_counter()
    result = fn()
    result.seconds = time.perf_counter() - t0
    return result


def run_all(max_workers: int) -> list[CriterionResult]:
    """Run every criterion, in parallel above one worker; results stay
    ordered."""
    if max_workers <= 1:
        return [run_criterion(fn) for fn in CRITERIA]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_criterion, CRITERIA))
