"""The array ledger kernel and the whole-grid sweep columns.

References: the adaptive path quadrature (`work_heat_along`) for the
closed-form hot-contact stroke, the scalar library functions for the
array forms that keep their arithmetic, and mpmath at 50 digits for every
numeric column of every grid mode.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonic_engine import (
    CycleKind,
    EngineConfig,
    SqueezedThermalState,
    ThermoPath,
    bose_einstein,
    classicality,
    classify_region,
    critical_squeezing,
    generalized_efficiency_closed_form,
    otto_efficiency,
    run_generalized,
    work_heat_along,
)
from bosonic_engine.csvformat import Labels
from bosonic_engine.cycles import REGIONS, classify_regions, generalized_ledger
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


def iso_classicality_path(tc, th, r_t):
    """The hot-contact stroke as a ThermoPath with exact derivatives."""
    a = bose_einstein(tc) + 0.5
    delta = 0.5 * math.log((bose_einstein(th) + 0.5) / a)
    return ThermoPath(
        r_of_s=lambda s: r_t + s * delta,
        n_of_s=lambda s: a * math.exp(2.0 * s * delta) - 0.5,
        dr_ds=lambda s: delta,
        dn_ds=lambda s: 2.0 * a * delta * math.exp(2.0 * s * delta),
    )


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
        ledger = generalized_ledger(tc, th, r_t)
        for k, rt in enumerate(r_t):
            quad = work_heat_along(iso_classicality_path(tc, th, float(rt)))
            assert ledger.work_on[1, k] == pytest.approx(quad.work_on, rel=1e-10)
            assert ledger.heat_in[1, k] == pytest.approx(quad.heat_in, rel=1e-10)

    def test_equal_temperatures_book_nothing(self):
        ledger = generalized_ledger(1.5, 1.5, np.linspace(0.0, 2.0, 5))
        assert np.all(ledger.work_on[1] == 0.0) and np.all(ledger.heat_in[1] == 0.0)
        assert np.all(ledger.efficiency == 0.0)

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            generalized_ledger(2.0, 1.0, [0.5])
        with pytest.raises(ValueError):
            generalized_ledger(1.0, 2.0, [0.5, -0.1])


def test_kernel_and_run_generalized_bit_identical():
    grid = np.linspace(0.0, 3.0, 201)
    ledger = generalized_ledger(1.0, 2.0, grid)
    scalar = [run_generalized(EngineConfig(1.0, 2.0, float(r), CycleKind.GENERALIZED))
              for r in grid]
    assert ledger.efficiency.tolist() == [report.efficiency for report in scalar]
    assert ledger.q_hot_in.tolist() == [report.q_hot_in for report in scalar]


def test_regions_match_scalar_labels_around_the_boundary_band():
    tc, th = 0.7, 1.9
    r = np.array([rc + k * 1e-13 for rc in (critical_squeezing(tc), critical_squeezing(th))
                  for k in range(-15, 16)])
    edges = r[[0, 4, 5, 25, 26]]  # just outside and on both band edges
    r = np.concatenate([r, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0), [0.0, 3.0]])
    labels = texts(classify_regions(tc, th, r))
    assert labels == [classify_region(EngineConfig(tc, th, float(x))) for x in r]
    assert {"boundary", "i", "ii", "iii"} <= set(labels)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=8))
def test_region_codes_match_the_select_form(tc, th, r):
    """The codes against np.select over the labels, for any temperature order and any r."""
    r = np.array(r + [critical_squeezing(tc), critical_squeezing(th)], dtype=float)
    rc_cold, rc_hot = critical_squeezing(tc), critical_squeezing(th)
    on_boundary = (np.abs(r - rc_cold) <= 1e-12) | (np.abs(r - rc_hot) <= 1e-12)
    labels = classify_regions(tc, th, r)
    want = np.select([on_boundary, r < rc_cold, r < rc_hot], ["boundary", "i", "ii"], "iii")
    assert labels.names == REGIONS and labels.codes.dtype == np.uint8
    assert texts(labels) == want.tolist()


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


@pytest.mark.parametrize("r", [1e-9, 1e-5, 1e-3, 0.5, 3.0, 400.0])
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
            assert got == [classify_region(EngineConfig(tc, th, r)) for r in grid]
            rc = [mp.log(2 * occupancy(tau) + 1) / 2 for tau in (tc, th)]
            for r, label in zip(grid, got):
                if min(abs(mp.mpf(r) - c) for c in rc) > 1e-11:
                    assert label == ("i" if r < rc[0] else "ii" if r < rc[1] else "iii")
