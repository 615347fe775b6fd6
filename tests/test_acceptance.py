"""Acceptance suite: one test per shipped criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

The heavy phase-field runs are shared through module-scoped fixtures;
every tolerance below is fixed here, not calibrated at runtime.
"""

import time

import numpy as np
import pytest

from phaselab import grid as G
from phaselab import measures as M
from phaselab import sharp
from phaselab import solver as S
from phaselab import varifold as V
from phaselab.errors import DivergenceError
from phaselab.lab import experiments
from phaselab.lab.catalog import DEFAULT_SWEEP_FIELDS, vector_field_from_spec
from phaselab.lab.config import parse_config_text
from phaselab.lab.extract import extract_interface


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


ARC512 = """
[grid]
x_min = -1.0
x_max = 3.0
y_min = 0.0
y_max = 2.0
nx = 512
ny = 256

[physics]
eps = 0.02
sigma = 1.0
bottom = dynamic

[initial]
kind = arc

[schedule]
t_end = 0.3
cadence = 500

[experiment]
mode = arc-benchmark

[output]
dir = /tmp/phaselab_acceptance/arc512
"""

ARC256 = ARC512.replace("nx = 512", "nx = 256").replace("ny = 256", "ny = 128")
ARC256 = ARC256.replace("eps = 0.02", "eps = 0.04").replace("cadence = 500", "cadence = 250")

SWEEP_SIGMA = ARC256.replace(
    "mode = arc-benchmark",
    "mode = sweep-sigma\nsigma_list = 0.5, 0.1, 0.02\nwindow_t1 = 0.05\nwindow_t2 = 0.25",
)


@pytest.fixture(scope="module")
def arc512(request):
    config = parse_config_text(ARC512)
    t0 = time.monotonic()
    record, bench = experiments.arc_benchmark(config)
    wall = time.monotonic() - t0
    return {"record": record, "bench": bench, "wall": wall}


@pytest.fixture(scope="module")
def sigma_sweep():
    config = parse_config_text(SWEEP_SIGMA)
    results, rep = experiments.sweep(config)
    return {"config": config, "results": results, "report": rep}


@pytest.fixture(scope="module")
def pf_sigma_family():
    out = {}
    for sigma in (0.5, 1.0, 2.0):
        config = parse_config_text(ARC256.replace("sigma = 1.0", f"sigma = {sigma}"))
        record, bench = experiments.arc_benchmark(config)
        out[sigma] = bench
    return out


@pytest.fixture(scope="module")
def detach_record():
    config = parse_config_text(
        ARC256.replace("t_end = 0.3", "t_end = 0.72").replace(
            "mode = arc-benchmark", "mode = run"
        )
    )
    return experiments.run_single(config)


@pytest.fixture(scope="module")
def standing_wave():
    g = G.Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 1001, 1)
    st = S.init_profile(g, S.Line1D(0.5), 0.05, laws=S.neumann_laws())
    t0 = time.monotonic()
    record = S.run(st, 0.1, observer_cadence=100)
    wall = time.monotonic() - t0
    return {"record": record, "wall": wall}


def test_c01_standing_wave_stationarity(standing_wave):
    record = standing_wave["record"]
    wall = standing_wave["wall"]
    final = record.snapshots[-1]
    ext = extract_interface(final.state.u)
    drift = abs(ext.polylines[0][0, 0] - 0.5)
    sc = final.scalars
    h = 1.0 / 1000.0
    ok = (
        drift <= h
        and sc["xi_abs"] <= 1e-3 * sc["E"]
        and 0.99 <= sc["E_over_sigma0"] <= 1.01
        and wall <= 10.0
    )
    report(
        "criterion 1",
        ok,
        f"drift={drift:.2e} (h={h}), xi/E={sc['xi_abs']/sc['E']:.2e}, "
        f"E/sigma0={sc['E_over_sigma0']:.5f}, runtime={wall:.1f}s <= 10s",
    )


def test_c02_maximum_principle(standing_wave, arc512, detach_record):
    worst = max(
        standing_wave["record"].series("max_abs_u").max(),
        arc512["record"].series("max_abs_u").max(),
        detach_record.series("max_abs_u").max(),
    )
    # the abort path: a state beyond the bound dies as divergence, which
    # the CLI maps to exit code 3
    g = G.Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 51, 1)
    bad = S.PhaseState(
        G.ScalarField2D.full(g, 1.2), 0.0, 0.1, S.neumann_laws()
    )
    with pytest.raises(DivergenceError):
        S.step(bad, S.stable_dt(bad))
    from phaselab.lab.cli import EXIT_DIVERGENCE

    ok = worst <= 1.0 + 1e-12 and EXIT_DIVERGENCE == 3
    report(
        "criterion 2",
        ok,
        f"max|u| over all shipped runs = {worst:.15f} <= 1+1e-12; "
        f"violation -> DivergenceError -> exit 3",
    )


def test_c03_dissipation_identity():
    def relaxing_state():
        g = G.Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, 1001, 1)
        xx, _ = g.meshgrid()
        u = np.tanh((xx - 0.5) / 0.05) - 0.04 * V.bump1d(0.8, 0.2).value(xx)
        return S.PhaseState(G.ScalarField2D(g, u), 0.0, 0.05, S.neumann_laws())

    def residual_stats(dt_frac, nsteps):
        st = relaxing_state()
        dt = S.stable_dt(st) * dt_frac
        tot = mx = 0.0
        for _ in range(nsteps):
            prev = st
            st = S.step(st, dt)
            r = abs(M.dissipation_residual(prev, st, dt))
            tot += r
            mx = max(mx, r)
        return tot / nsteps, mx

    avg_full, max_full = residual_stats(1.0, 300)
    avg_half, _ = residual_stats(0.5, 600)
    ratio = avg_full / avg_half
    ok = max_full <= 1e-2 and 1.7 <= ratio <= 2.3
    report(
        "criterion 3",
        ok,
        f"per-step residual max={max_full:.2e} <= 1e-2 at dt=0.5*bound; "
        f"dt-halving ratio={ratio:.2f} in [1.7, 2.3]",
    )


def test_c04_first_variation_identity():
    # 1D: width-compressed layer (nonzero terms), off-center bump field
    g1 = V.vec_separable(
        (1.0, 0.0), V.bump1d(0.62, 0.3),
        V.Window1D(float("-inf"), float("inf"), 0.0, 0.0),
        compact_faces=(G.Face.LEFT, G.Face.RIGHT),
    )

    def compressed(nx):
        gr = G.Grid2D.from_extents(0.0, 1.0, 0.0, 0.0, nx, 1)
        xx, _ = gr.meshgrid()
        u = np.tanh((xx - 0.5) / 0.1)
        return S.PhaseState(G.ScalarField2D(gr, u), 0.0, 0.05, S.neumann_laws())

    res1 = {nx: V.first_variation_expanded(compressed(nx), g1) for nx in (501, 1001, 2001)}
    r1a = res1[501].ibp_residual / res1[1001].ibp_residual
    r1b = res1[1001].ibp_residual / res1[2001].ibp_residual
    rel1 = res1[2001].ibp_residual / res1[2001].terms_abs_sum

    # 2D: radial layer with a windowed dilation field
    g2 = V.vec_dilation(
        (0.5, 0.5), V.bump1d(0.5, 0.45), V.bump1d(0.5, 0.45),
        compact_faces=tuple(G.Face),
    )

    def radial(n):
        gr = G.Grid2D.from_extents(0.0, 1.0, 0.0, 1.0, n, n)
        return S.init_profile(gr, S.CircleArc((0.5, 0.5), 0.25), 0.1)

    res2 = {n: V.first_variation_expanded(radial(n), g2) for n in (65, 129, 257)}
    r2a = res2[65].ibp_residual / res2[129].ibp_residual
    r2b = res2[129].ibp_residual / res2[257].ibp_residual
    rel2 = res2[257].ibp_residual / res2[257].terms_abs_sum

    ok = all(3.5 <= r <= 4.5 for r in (r1a, r1b, r2a, r2b)) and rel1 <= 1e-3 and rel2 <= 1e-3
    report(
        "criterion 4",
        ok,
        f"halving ratios 1D=({r1a:.2f},{r1b:.2f}) 2D=({r2a:.2f},{r2b:.2f}) in [3.5,4.5]; "
        f"finest rel residual 1D={rel1:.1e}, 2D={rel2:.1e} <= 1e-3",
    )


def test_c05_arc_benchmark(arc512):
    bench = arc512["bench"]
    eps = bench["eps"]
    ok = (
        bench["radius_err_max"] <= 3.0 * eps
        and bench["contact_err_max"] <= 3.0 * eps
        and bench["velocity_rel_err_max"] <= 0.10
        and arc512["wall"] <= 600.0
    )
    report(
        "criterion 5",
        ok,
        f"radius err={bench['radius_err_max']:.4f} <= {3*eps}, "
        f"contact err={bench['contact_err_max']:.4f} <= {3*eps}, "
        f"velocity err={bench['velocity_rel_err_max']:.3f} <= 0.10 on [0.05,0.25], "
        f"runtime={arc512['wall']:.0f}s <= 600s",
    )


def test_c06_sigma_independence(pf_sigma_family):
    # sharp oracle: velocity curves for three sigmas agree pairwise
    curves = {}
    for sigma in (0.5, 1.0, 2.0):
        front = sharp.make_arc_front(sigma, 200, grade_count=2)
        hist = sharp.evolve_front(front, sigma, 0.3, redistribute_every=25,
                                  record_every=500)
        tab = sharp.compare_to_exact(hist, sigma)
        m = (tab.velocity_times >= 0.05) & (tab.velocity_times <= 0.25)
        curves[sigma] = (tab.velocity_times[m], tab.velocity_measured[m])
    t_ref, v_ref = curves[1.0]
    oracle_dev = 0.0
    for sigma in (0.5, 2.0):
        vi = np.interp(t_ref, *curves[sigma])
        oracle_dev = max(oracle_dev, float(np.max(np.abs(vi - v_ref) / v_ref)))

    # phase field: each sigma's curve within 7.5% of the sigma-free closed
    # form bounds any pairwise deviation by 15%
    pf_dev = max(b["velocity_rel_err_max"] for b in pf_sigma_family.values())
    ok = oracle_dev <= 0.02 and pf_dev <= 0.075
    report(
        "criterion 6",
        ok,
        f"oracle curves pairwise within {oracle_dev:.4f} <= 0.02; "
        f"phase-field curves within {2*pf_dev:.3f} <= 0.15 pairwise "
        f"(each <= {pf_dev:.3f} of the closed form)",
    )


def test_c07_boundary_dirichlet_energy_blowup(sigma_sweep):
    rows = sigma_sweep["report"]["rows"]
    values = [r["value"] for r in rows]
    nd = [r["normal_dirichlet_window"] for r in rows]
    slope = sigma_sweep["report"]["slopes"]["normal_dirichlet"]
    monotone = all(a < b for a, b in zip(nd, nd[1:]))
    ok = monotone and slope <= -0.8
    report(
        "criterion 7",
        ok,
        f"windowed normal Dirichlet energy {[f'{v:.2f}' for v in nd]} increases as "
        f"sigma drops {values}; log-log slope {slope:.3f} <= -0.8",
    )


def test_c08_dirichlet_limit_velocity_vanishing(sigma_sweep):
    rows = sigma_sweep["report"]["rows"]
    drops = {}
    ok = True
    for spec in DEFAULT_SWEEP_FIELDS:
        mags = [abs(r[f"bf[{spec}]"]) for r in rows]  # sigma = 0.5, 0.1, 0.02
        monotone = all(a > b for a, b in zip(mags, mags[1:]))
        drops[spec] = mags[0] / mags[-1]
        ok = ok and monotone and drops[spec] >= 5.0
    report(
        "criterion 8",
        ok,
        "boundary functional magnitudes monotone in sigma; drops "
        + ", ".join(f"{spec}: {d:.0f}x" for spec, d in drops.items())
        + " >= 5x from sigma=0.5 to 0.02",
    )


def test_c09_brakke_residual(arc512):
    record = arc512["record"]
    phi = V.gauss_window(
        1.0, 0.0, 0.9,
        V.Window1D(0.0, 2.0, 0.9, 0.9),
        V.Window1D(float("-inf"), 0.8, 0.0, 0.6),
        name="gaussian-bump",
    )
    rep = V.brakke_residual(record, phi, 0.05, 0.25, mode="dynamic")
    slack = 0.05 * max(abs(rep.lhs), abs(rep.rhs))
    ok_gauss = abs(rep.residual) <= slack and rep.lhs <= rep.rhs + slack

    one = V.scalar_constant(1.0)
    rep1 = V.brakke_residual(record, one, 0.05, 0.25, mode="dynamic")
    dw = M.dissipation_window(record, rep1.window[0], rep1.window[1])
    ok_const = abs(rep1.residual - dw) <= 1e-10

    ok = ok_gauss and ok_const
    report(
        "criterion 9",
        ok,
        f"gaussian phi: |lhs-rhs|={abs(rep.residual):.4f} <= {slack:.4f} "
        f"(5% of max), lhs <= rhs + slack; "
        f"phi==1 reduces to the dissipation window within "
        f"{abs(rep1.residual - dw):.1e} <= 1e-10",
    )


def test_c10_sharp_oracle_convergence():
    t0 = time.monotonic()
    front = sharp.make_circle_front((0.0, 0.0), 0.5, 200)
    hist = sharp.evolve_front(front, 1.0, 0.1, dt=1e-5, redistribute_every=0,
                              record_every=1000)
    _, errs = sharp.circle_radius_errors(hist, (0.0, 0.0), 0.5)
    circle_err = float(errs.max())

    arc_front = sharp.make_arc_front(1.0, 200, grade_count=2)
    arc_hist = sharp.evolve_front(arc_front, 1.0, 0.3, redistribute_every=25,
                                  record_every=500)
    tab = sharp.compare_to_exact(arc_hist, 1.0)
    contact_err = float(np.nanmax(tab.contact_error))
    wall = time.monotonic() - t0

    ok = circle_err <= 1e-3 and contact_err <= 1e-3 and wall <= 60.0
    report(
        "criterion 10",
        ok,
        f"circle radius err={circle_err:.1e} <= 1e-3 (200 nodes, dt=1e-5); "
        f"arc contact err={contact_err:.1e} <= 1e-3 on [0,0.3]; "
        f"runtime={wall:.0f}s <= 60s",
    )


def test_c11_phase_boundary_indicator(arc512, detach_record):
    # while contacts exist the indicator sits strictly below the threshold
    record = arc512["record"]
    gaps = []
    for tq in (0.05, 0.15, 0.25):
        snap = record.snapshot_near(tq)
        first, second = M.boundary_phase_indicator(snap.state, G.Face.BOTTOM)
        gaps.append(second - first)
    strictly_below = all(gap > 0.05 for gap in gaps)

    alpha_mass = M.window_integral(record, "alpha_total", 0.1, 0.2)

    # after detachment the indicator converges toward (2/3)|face|
    mid_first, threshold = M.boundary_phase_indicator(
        detach_record.snapshot_near(0.4).state, G.Face.BOTTOM
    )
    late_first, _ = M.boundary_phase_indicator(
        detach_record.snapshot_near(0.72).state, G.Face.BOTTOM
    )
    converged = (threshold - late_first) <= 5e-3 and late_first > mid_first

    ok = strictly_below and alpha_mass >= 1e-2 and converged
    report(
        "criterion 11",
        ok,
        f"indicator gaps {[f'{g:.2f}' for g in gaps]} > 0 while contacts exist; "
        f"alpha mass [0.1,0.2]={alpha_mass:.3f} >= 1e-2; "
        f"post-detachment gap={threshold - late_first:.1e} <= 5e-3",
    )
