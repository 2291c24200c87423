"""The array ledger kernel and the whole-grid sweep columns.

References: adaptive quadrature (`scipy.integrate.quad`) of the work and
heat integrands along the curved hot-contact stroke for its closed form, the scalar library functions for the
array forms that keep their arithmetic, and mpmath at 50 digits for every
numeric column of every grid mode.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from bosonic_engine import (
    BOUNDARY_TOL,
    CycleConsistencyError,
    CycleKind,
    EngineConfig,
    SqueezedThermalState,
    bose_einstein,
    classicality,
    classify_region,
    critical_squeezing,
    generalized_efficiency_closed_form,
    otto_efficiency,
    run_generalized,
)
from bosonic_engine.csvformat import Labels
from bosonic_engine.cycles import REGIONS, _book, classify_regions, generalized_ledger
from bosonic_engine.states import Baths
from bosonic_engine.sweep import COLUMNS, MODES, _columns, build_spec

mp.mp.dps = 50
HALF = mp.mpf(1) / 2
EPS = np.finfo(float).eps

# Default specs and the README examples of every grid mode.
GRID_SPECS = [
    {"mode": "otto-sweep"},
    {"mode": "otto-sweep", "r_min": 0.0, "r_max": 3.0, "points": 301},
    {"mode": "generalized-sweep"},
    {"mode": "generalized-sweep", "tau_cold": 0.3, "tau_hot": 1.4, "points": 301},
    {"mode": "classicality-curve"},
    {"mode": "phase-diagram"},
    {"mode": "phase-diagram", "r_max": 1.2},
]


def iso_classicality_quadrature(tc, th, r_t):
    """Work and heat of the hot-contact stroke by adaptive quadrature.

    The stroke holds (n + 1/2) e^{-2r} fixed from r_t, where n = n_cold, to
    where n = n_hot; s in [0, 1] runs along it at constant dr/ds.
    """
    a = bose_einstein(tc) + 0.5
    delta = 0.5 * math.log((bose_einstein(th) + 0.5) / a)

    def work(s):  # 2 (n + 1/2) sinh(2r) dr/ds
        return 2.0 * a * math.exp(2.0 * s * delta) * math.sinh(2.0 * (r_t + s * delta)) * delta

    def heat(s):  # cosh(2r) dn/ds
        return math.cosh(2.0 * (r_t + s * delta)) * 2.0 * a * delta * math.exp(2.0 * s * delta)

    return tuple(integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)[0] for f in (work, heat))


def texts(column) -> list:
    """The values of a sweep column: its floats, or the text of each label."""
    if isinstance(column, Labels):
        return [column.names[k] for k in column.codes.tolist()]
    return column.tolist()


def occupancy(tau):
    return 1 / mp.expm1(1 / mp.mpf(tau))


def mp_generalized_eta(tc, th, r_t):
    """Ledger efficiency from the analytic stroke antiderivatives."""
    a, b = occupancy(tc) + HALF, occupancy(th) + HALF
    r_t = mp.mpf(r_t)
    r_r = r_t + mp.log(b / a) / 2
    e4 = mp.exp(4 * r_r) - mp.exp(4 * r_t)
    q_hot = a * mp.exp(-2 * r_t) * (e4 / 4 + (r_r - r_t))
    w_on_bc = a * mp.exp(-2 * r_t) * (e4 / 4 - (r_r - r_t))
    w_on = 2 * a * mp.sinh(r_t) ** 2 + w_on_bc - 2 * b * mp.sinh(r_r) ** 2
    return -w_on / q_hot


def mp_printed_eta(tc, th, r_t):
    x1, x2, r_t = 1 / (2 * mp.mpf(tc)), 1 / (2 * mp.mpf(th)), mp.mpf(r_t)
    coth1, coth2 = 1 / mp.tanh(x1), 1 / mp.tanh(x2)
    f = 4 * mp.exp(2 * r_t) * (coth2 - coth1)
    g = (mp.exp(4 * r_t) * mp.tanh(x1) * coth2**2 - coth1) * (
        mp.exp(4 * r_t) - 2 * mp.log(mp.tanh(x1) * coth2))
    return 1 - f / g


def mp_otto_eta(r):
    r = mp.mpf(r)
    return 2 * mp.sinh(r) ** 2 / mp.cosh(2 * r)


def assert_close(got, want, tol, name):
    """|got - want| <= tol elementwise; got floats, want mpmath numbers."""
    err = [abs(mp.mpf(g) - w) for g, w in zip(got, want)]
    tol = np.broadcast_to(tol, (len(err),))
    bad = [i for i, (e, t) in enumerate(zip(err, tol)) if not e <= t]
    assert not bad, f"{name}: {len(bad)} values off, first at row {bad[0]}: " \
        f"{got[bad[0]]!r} vs {mp.nstr(want[bad[0]], 20)}"


class TestHotContactClosedForm:
    @pytest.mark.parametrize("tc,th", [(1.0, 2.0), (0.3, 1.4), (0.2, 1.0), (2.0, 10.0)])
    def test_matches_path_quadrature(self, tc, th):
        r_t = np.array([0.0, 0.05, 0.5, 1.3, 2.5])
        ledger = generalized_ledger(Baths(tc, th), r_t)
        for k, rt in enumerate(r_t):
            work, heat = iso_classicality_quadrature(tc, th, float(rt))
            assert ledger.work_on[1, k] == pytest.approx(work, rel=1e-10)
            assert ledger.heat_in[1, k] == pytest.approx(heat, rel=1e-10)

    def test_equal_temperatures_book_nothing(self):
        ledger = generalized_ledger(Baths(1.5, 1.5), np.linspace(0.0, 2.0, 5))
        assert np.all(ledger.work_on[1] == 0.0) and np.all(ledger.heat_in[1] == 0.0)
        assert np.all(ledger.efficiency == 0.0)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            generalized_ledger(Baths(2.0, 1.0), [0.5])
        with pytest.raises(ValueError):
            generalized_ledger(Baths(1.0, 2.0), [0.5, -0.1])


def test_kernel_and_run_generalized_bit_identical():
    grid = np.linspace(0.0, 3.0, 201)
    ledger = generalized_ledger(Baths(1.0, 2.0), grid)
    scalar = [run_generalized(EngineConfig(1.0, 2.0, float(r), CycleKind.GENERALIZED))
              for r in grid]
    assert ledger.efficiency.tolist() == [report.efficiency for report in scalar]
    assert ledger.q_hot_in.tolist() == [report.q_hot_in for report in scalar]


@pytest.mark.parametrize("tc, th, r_t", [(1.0, 2.0, 0.5), (1.0, 1.000001, 40.0)])
def test_first_law_gap_of_1e_8_of_the_energy_raises(tc, th, r_t):
    """The first law holds to 1e-9 of a stroke's larger end energy, not of its change."""
    ledger = generalized_ledger(Baths(tc, th), [r_t])
    energy = (ledger.n + 0.5) * np.cosh(2.0 * ledger.r)
    heat_in = ledger.heat_in.copy()
    heat_in[1] += 1e-8 * energy[2]
    with pytest.raises(CycleConsistencyError,
                       match="^stroke 'hot-contact' violates the first law by "):
        _book(ledger.n, ledger.r, ledger.work_on, heat_in)


def region_rule(tau_cold, tau_hot, r) -> str:
    """The region label of one squeezing, one comparison at a time."""
    rc_cold, rc_hot = critical_squeezing(tau_cold), critical_squeezing(tau_hot)
    if abs(r - rc_cold) <= BOUNDARY_TOL or abs(r - rc_hot) <= BOUNDARY_TOL:
        return "boundary"
    if r < rc_cold:
        return "i"
    if r < rc_hot:
        return "ii"
    return "iii"


def band_points(rcs) -> list:
    """Each critical squeezing, the edges of its +-1e-12 band and their neighbours."""
    edges = [rc + d for rc in rcs for d in (-BOUNDARY_TOL, 0.0, BOUNDARY_TOL)]
    return edges + np.nextafter(edges, -np.inf).tolist() + np.nextafter(edges, np.inf).tolist()


def test_regions_match_scalar_labels_around_the_boundary_band():
    for tc, th in [(0.7, 1.9), (1.9, 0.7)]:
        rcs = (critical_squeezing(tc), critical_squeezing(th))
        r = np.array([rc + k * 1e-13 for rc in rcs for k in range(-15, 16)])
        edges = r[[0, 4, 5, 25, 26]]  # just outside and on both band edges
        r = np.concatenate([r, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            band_points(rcs), [0.0, 3.0, math.nan, math.inf, -math.inf]])
        labels = texts(classify_regions(tc, th, r))
        assert labels == [region_rule(tc, th, x) for x in r.tolist()]
        assert {"boundary", "i", "iii"} | ({"ii"} if tc < th else set()) == set(labels)
        if tc <= th:  # the one-point call, where EngineConfig accepts the point
            valid = np.isfinite(r) & (r >= 0.0)
            assert [classify_region(EngineConfig(tc, th, x)) for x in r[valid].tolist()] == \
                np.array(labels)[valid].tolist()


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8))
def test_region_codes_match_the_select_form(tc, th, r):
    """The codes against np.select over the labels and against the one-point rule,
    for any temperature order, any r and the edges of both boundary bands."""
    rc_cold, rc_hot = critical_squeezing(tc), critical_squeezing(th)
    r = np.array(r + band_points((rc_cold, rc_hot)) + [math.nan, math.inf, -math.inf])
    on_boundary = (np.abs(r - rc_cold) <= 1e-12) | (np.abs(r - rc_hot) <= 1e-12)
    labels = classify_regions(tc, th, r)
    want = np.select([on_boundary, r < rc_cold, r < rc_hot], ["boundary", "i", "ii"], "iii")
    assert labels.names == REGIONS and labels.codes.dtype == np.uint8
    assert texts(labels) == want.tolist() == [region_rule(tc, th, x) for x in r.tolist()]


@pytest.mark.parametrize("mode", MODES)
def test_sweep_columns_are_floats_and_labels(mode):
    spec = build_spec({"mode": mode, "points": 11, "t_final": 0.5, "output_path": "unused.csv"})
    columns = _columns(spec)
    assert len(columns) == len(COLUMNS[mode])
    for column in columns:
        assert len(column) == len(columns[0])
        if isinstance(column, Labels):
            assert column.codes.dtype.kind == "u" and column.codes.max() < len(column.names)
            assert all(isinstance(name, str) for name in column.names)
        else:
            assert isinstance(column, np.ndarray) and column.dtype == np.float64


# r is clipped at 20 before the two tanh, which read 1.0 from r = 19.1 on
@pytest.mark.parametrize("r", [1e-9, 1e-5, 1e-3, 0.5, 3.0, 20.0, 21.0, 400.0, 1e308])
def test_otto_efficiency_against_mpmath(r):
    want = mp_otto_eta(r)
    assert abs(mp.mpf(otto_efficiency(r)) - want) <= 1e-15 * want


@pytest.mark.parametrize("values", GRID_SPECS, ids=lambda v: "-".join(map(str, v.values())))
def test_grid_columns_against_mpmath(values):
    spec = build_spec(dict(values, output_path="unused.csv"))
    cols = dict(zip(COLUMNS[spec.mode], map(texts, _columns(spec))))
    grid = np.linspace(spec.r_min, spec.r_max, spec.points).tolist()
    tc, th = spec.tau_cold, spec.tau_hot
    taus = {"C_tau1": tc, "C_tau2": th, "C_tau3": spec.tau_third,
            "C_at_tau1": tc, "C_at_tau2": th}
    assert cols[COLUMNS[spec.mode][0]] == grid

    for name, got in cols.items():
        if name in taus:
            n = occupancy(taus[name])
            want = [(n + HALF) * mp.exp(-2 * mp.mpf(r)) - HALF for r in grid]
            assert_close(got, want, 2 * EPS * float(n + HALF), name)
            # the scalar closed form, bit for bit
            n_th = bose_einstein(taus[name])
            assert got == [classicality(SqueezedThermalState(n_th, r)) for r in grid]
        elif name == "eta_otto":
            want = [mp_otto_eta(r) for r in grid]
            assert_close(got, want, [1e-15 * w for w in want], name)
        elif name == "eta_generalized_ledger":
            want = [mp_generalized_eta(tc, th, r) for r in grid]
            assert_close(got, want, [1e-13 * abs(w) for w in want], name)
        elif name == "r_R":
            shift = mp.log((occupancy(th) + HALF) / (occupancy(tc) + HALF)) / 2
            want = [mp.mpf(r) + shift for r in grid]
            assert_close(got, want, [EPS * max(1.0, r) for r in grid], name)
        elif name == "eta_printed_fg":
            # g changes sign near r_t = 0.2; its cancellation costs digits there
            want = [mp_printed_eta(tc, th, r) for r in grid]
            assert_close(got, want, [1e-12 * abs(w) for w in want], name)
            cfgs = [EngineConfig(tc, th, r, CycleKind.GENERALIZED) for r in grid]
            assert got == [generalized_efficiency_closed_form(cfg) for cfg in cfgs]
        elif name == "eta_carnot":
            want = 1 - mp.mpf(tc) / mp.mpf(th)
            assert_close(got, [want] * len(got), EPS * float(want), name)
        elif name == "region":
            assert got == [region_rule(tc, th, r) for r in grid]
            rc = [mp.log(2 * occupancy(tau) + 1) / 2 for tau in (tc, th)]
            for r, label in zip(grid, got):
                if min(abs(mp.mpf(r) - c) for c in rc) > 1e-11:
                    assert label == ("i" if r < rc[0] else "ii" if r < rc[1] else "iii")
