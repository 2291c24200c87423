import contextlib
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from bosonic_engine import (
    CycleKind,
    EngineConfig,
    SqueezedThermalState,
    bose_einstein,
    carnot_efficiency,
    classicality,
    classify_region,
    closed_form_terms,
    critical_squeezing,
    generalized_efficiency_closed_form,
    generalized_r_hot,
    otto_efficiency,
    report_to_dict,
    report_to_json,
    run_generalized,
    run_otto,
)
from bosonic_engine.cycles import (STROKES, TRACE_STROKE_LABELS, ClassicalityTrace, _raising,
                                   generalized_ledger, printed_efficiency)
from textdiff import assert_equal_text

N1 = bose_einstein(1.0)
N2 = bose_einstein(2.0)


def otto_cfg(r, tau_cold=1.0, tau_hot=2.0):
    return EngineConfig(tau_cold, tau_hot, r, CycleKind.OTTO)


def gen_cfg(r_t, tau_cold=1.0, tau_hot=2.0):
    return EngineConfig(tau_cold, tau_hot, r_t, CycleKind.GENERALIZED)


def generalized_oracle(tau_cold, tau_hot, r_t):
    """Closed antiderivatives of the iso-classicality stroke integrals.

    Work and heat along (n(r) + 1/2) = a e^{2(r - r_t)} integrate to
    a e^{-2 r_t} [e^{4r}/4 -/+ r]; the remaining strokes are elementary.
    Returns (q_hot, w_net, efficiency).
    """
    a = bose_einstein(tau_cold) + 0.5
    b = bose_einstein(tau_hot) + 0.5
    r_r = r_t + 0.5 * math.log(b / a)
    q_hot = a * math.exp(-2 * r_t) * (
        (math.exp(4 * r_r) - math.exp(4 * r_t)) / 4 + (r_r - r_t)
    )
    w_on_bc = a * math.exp(-2 * r_t) * (
        (math.exp(4 * r_r) - math.exp(4 * r_t)) / 4 - (r_r - r_t)
    )
    w_on = 2 * a * math.sinh(r_t) ** 2 + w_on_bc - 2 * b * math.sinh(r_r) ** 2
    return q_hot, -w_on, -w_on / q_hot


class TestRunOtto:
    def test_zero_squeezing(self):
        report = run_otto(otto_cfg(0.0))
        assert all(s.work_on == 0.0 for s in report.strokes)
        assert report.q_hot_in == pytest.approx(N2 - N1, abs=1e-12)
        assert report.efficiency == 0.0

    def test_reference_cycle(self):
        # frozen from the stroke formulas at tau = (1, 2), r = 0.5
        report = run_otto(otto_cfg(0.5))
        assert report.w_net_extracted == pytest.approx(0.5210953054937474, abs=1e-9)
        assert report.q_hot_in == pytest.approx(1.480612681161219, abs=1e-9)
        assert report.efficiency == pytest.approx(0.3519457263361145, abs=1e-9)
        assert report.efficiency == pytest.approx(1 - 1 / math.cosh(1.0), abs=1e-12)
        assert report.region == "ii"
        labels = [s.label for s in report.strokes]
        assert labels == ["squeeze", "hot-contact", "unsqueeze", "cold-contact"]

    def test_trace_minimum_at_point_b(self):
        report = run_otto(otto_cfg(0.5))
        trace = report.classicality_trace
        i = int(np.argmin(trace.c))
        # end of the first stroke: full squeezing at the cold occupancy
        assert STROKES[TRACE_STROKE_LABELS.codes[i]] == "squeeze"
        assert trace.r[i] == pytest.approx(0.5, abs=1e-12)
        assert trace.n[i] == pytest.approx(N1, abs=1e-12)
        assert trace.c[i] == pytest.approx(
            classicality(SqueezedThermalState(N1, 0.5)), abs=1e-12
        )

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            run_otto(gen_cfg(0.5))

    def test_cycle_closure_random_r(self):
        rng = np.random.default_rng(3)
        for r in rng.uniform(0.0, 2.0, size=50):
            report = run_otto(otto_cfg(float(r)))
            closure = sum(s.work_on + s.heat_in for s in report.strokes)
            assert abs(closure) <= 1e-9
            assert report.w_net_extracted == pytest.approx(
                report.q_hot_in - report.q_cold_out, abs=1e-9
            )
            assert report.strokes[0].state_in == report.strokes[-1].state_out


class TestOttoEfficiency:
    def test_zero(self):
        assert otto_efficiency(0.0) == 0.0

    def test_reference(self):
        assert otto_efficiency(0.5) == pytest.approx(0.3519457263361145, abs=1e-12)

    def test_matches_ledger_on_grid(self):
        for tau_cold, tau_hot in [(1.0, 2.0), (0.5, 3.0), (2.0, 5.0)]:
            for r in np.linspace(0.02, 2.0, 50):
                report = run_otto(otto_cfg(float(r), tau_cold, tau_hot))
                assert abs(report.efficiency - otto_efficiency(float(r))) <= 1e-12

    def test_temperature_independence(self):
        r = 0.73
        effs = {
            run_otto(otto_cfg(r, tc, th)).efficiency
            for tc, th in [(1.0, 2.0), (0.5, 3.0), (2.0, 5.0)]
        }
        assert max(effs) - min(effs) <= 1e-12

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            otto_efficiency(-0.1)


class TestGeneralizedRHot:
    def test_equal_temperatures(self):
        assert generalized_r_hot(gen_cfg(0.4, 2.0, 2.0)) == pytest.approx(0.4, abs=1e-14)

    def test_reference_value(self):
        # frozen from r_t + (1/2) ln((n2 + 1/2)/(n1 + 1/2))
        assert generalized_r_hot(gen_cfg(0.5)) == pytest.approx(
            0.8174461404209952, abs=1e-10
        )

    def test_classicality_matching(self):
        cfg = gen_cfg(0.5)
        r_r = generalized_r_hot(cfg)
        c_cold = classicality(SqueezedThermalState(N1, 0.5))
        c_hot = classicality(SqueezedThermalState(N2, r_r))
        assert abs(c_cold - c_hot) < 1e-12


class TestRunGeneralized:
    def test_reference_cycle(self):
        q_ref, w_ref, eta_ref = generalized_oracle(1.0, 2.0, 0.5)
        report = run_generalized(gen_cfg(0.5))
        assert report.q_hot_in == pytest.approx(q_ref, rel=1e-10)
        assert report.w_net_extracted == pytest.approx(w_ref, rel=1e-10)
        assert report.efficiency == pytest.approx(eta_ref, rel=1e-10)
        # frozen oracle values
        assert q_ref == pytest.approx(2.008733449599167, abs=1e-12)
        assert w_ref == pytest.approx(1.0492160739316962, abs=1e-12)
        assert eta_ref == pytest.approx(0.5223271779245087, abs=1e-12)

    def test_zero_first_stroke_still_extracts(self):
        q_ref, w_ref, eta_ref = generalized_oracle(1.0, 2.0, 0.0)
        report = run_generalized(gen_cfg(0.0))
        assert report.efficiency == pytest.approx(eta_ref, rel=1e-10)
        assert eta_ref == pytest.approx(0.0737869750386904, abs=1e-12)

    def test_degenerate_equal_temperatures(self):
        report = run_generalized(gen_cfg(0.5, 2.0, 2.0))
        assert report.q_hot_in == pytest.approx(0.0, abs=1e-12)
        assert report.w_net_extracted == pytest.approx(0.0, abs=1e-12)
        assert report.efficiency == 0.0

    def test_iso_classicality_stroke(self):
        cfg = gen_cfg(0.5)
        r_r = generalized_r_hot(cfg)
        a = N1 + 0.5
        c0 = classicality(SqueezedThermalState(N1, 0.5))
        s = np.linspace(0.0, 1.0, 1000)
        r = 0.5 + s * (r_r - 0.5)
        n = a * np.exp(2 * (r - 0.5)) - 0.5
        c = (n + 0.5) * np.exp(-2 * r) - 0.5
        assert np.max(np.abs(c - c0)) < 1e-10
        trace = run_generalized(cfg).classicality_trace
        hot = TRACE_STROKE_LABELS.codes == STROKES.index("hot-contact")
        assert np.max(np.abs(trace.c[hot] - c0)) < 1e-10

    def test_cycle_closure_random_r(self):
        rng = np.random.default_rng(5)
        for r_t in rng.uniform(0.0, 2.0, size=50):
            report = run_generalized(gen_cfg(float(r_t)))
            closure = sum(s.work_on + s.heat_in for s in report.strokes)
            assert abs(closure) <= 1e-9
            assert report.w_net_extracted == pytest.approx(
                report.q_hot_in - report.q_cold_out, abs=1e-9
            )

    def test_quadrature_matches_antiderivative(self):
        for r_t in (0.0, 0.25, 0.5, 1.0, 1.7):
            q_ref, w_ref, _ = generalized_oracle(1.0, 2.0, r_t)
            report = run_generalized(gen_cfg(r_t))
            assert report.q_hot_in == pytest.approx(q_ref, rel=1e-10)
            assert report.w_net_extracted == pytest.approx(w_ref, rel=1e-10)

    def test_dominates_otto(self):
        for r in np.linspace(0.02, 2.0, 100):
            eta_g = run_generalized(gen_cfg(float(r))).efficiency
            assert eta_g > otto_efficiency(float(r))

    def test_carnot_crossing_in_region_ii(self):
        cfg = gen_cfg(0.5)
        assert classify_region(cfg) == "ii"
        assert run_generalized(cfg).efficiency > carnot_efficiency(cfg) == 0.5

    def test_gap_decreasing_at_large_squeezing(self):
        rs = np.linspace(1.5, 3.0, 16)
        gaps = [
            run_generalized(gen_cfg(float(r))).efficiency - otto_efficiency(float(r))
            for r in rs
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            run_generalized(otto_cfg(0.5))


class TestClosedForm:
    def test_reference_values(self):
        # frozen from verbatim evaluation of the printed f and g
        f, g = closed_form_terms(gen_cfg(0.5))
        assert f == pytest.approx(20.865909170940807, rel=1e-10)
        assert g == pytest.approx(335.09310962639466, rel=1e-10)
        eta = generalized_efficiency_closed_form(gen_cfg(0.5))
        assert eta == pytest.approx(0.9377310109592978, abs=1e-10)

    def test_pathology_at_zero_squeezing(self):
        f, g = closed_form_terms(gen_cfg(0.0))
        assert g < 0
        assert generalized_efficiency_closed_form(gen_cfg(0.0)) > 1.0

    def test_equal_temperatures(self):
        cfg = gen_cfg(0.5, 2.0, 2.0)
        f, _ = closed_form_terms(cfg)
        assert f == pytest.approx(0.0, abs=1e-12)
        assert generalized_efficiency_closed_form(cfg) == 1.0

    def test_disagrees_with_ledger(self):
        cfg = gen_cfg(0.5)
        eta_printed = generalized_efficiency_closed_form(cfg)
        eta_ledger = run_generalized(cfg).efficiency
        assert abs(eta_printed - eta_ledger) > 0.1

    def test_one_where_f_or_g_overflows(self):
        # g ~ e^{8 r_t} overflows near r_t = 88.7, e^{4 r_t} near 177.4, e^{2 r_t} near 354.9
        for r in (89.0, 100.0, 177.0, 178.0, 300.0, 400.0):
            assert generalized_efficiency_closed_form(gen_cfg(r)) == 1.0
        with pytest.raises(FloatingPointError):
            closed_form_terms(gen_cfg(100.0))

    def test_overflow_names_the_quantity_and_r(self):
        with pytest.raises(FloatingPointError, match="^Otto cycle ledger at r up to 400: "):
            run_otto(otto_cfg(400.0))
        with pytest.raises(FloatingPointError,
                           match="^generalized cycle ledger at r_t up to 400: "):
            run_generalized(gen_cfg(400.0))
        with pytest.raises(FloatingPointError,
                           match="^printed terms f and g at r_t up to 100: overflow "):
            closed_form_terms(gen_cfg(100.0))


class TestCarnot:
    def test_values(self):
        assert carnot_efficiency(gen_cfg(0.1)) == pytest.approx(0.5)
        assert carnot_efficiency(gen_cfg(0.1, 2.0, 2.0)) == 0.0
        assert carnot_efficiency(gen_cfg(0.1, 1.0, 3.0)) == pytest.approx(2 / 3)


class TestClassifyRegion:
    def test_regions(self):
        assert classify_region(otto_cfg(0.2)) == "i"
        assert classify_region(otto_cfg(0.5)) == "ii"
        assert classify_region(otto_cfg(0.9)) == "iii"

    def test_boundary(self):
        rc_cold = critical_squeezing(1.0)
        assert classify_region(otto_cfg(rc_cold)) == "boundary"
        assert classify_region(otto_cfg(critical_squeezing(2.0))) == "boundary"


class TestEngineConfigValidation:
    def test_rejects_inverted_temperatures(self):
        with pytest.raises(ValueError):
            EngineConfig(2.0, 1.0, 0.5)

    def test_rejects_negative_squeezing(self):
        with pytest.raises(ValueError):
            EngineConfig(1.0, 2.0, -0.5)


GRID = np.linspace(0.0, 3.0, 5)

# The entry points that raise FloatingPointError on overflow, at a working
# point and past an overflow.
ERROR_STATE_CALLS = {
    "run_otto": lambda: run_otto(otto_cfg(0.5)),
    "run_generalized": lambda: run_generalized(gen_cfg(0.5)),
    "generalized_ledger": lambda: generalized_ledger(1.0, 2.0, GRID),
    "generalized_r_hot": lambda: generalized_r_hot(gen_cfg(0.5)),
    "printed_efficiency": lambda: printed_efficiency(1.0, 2.0, GRID),
    "closed_form_terms": lambda: closed_form_terms(gen_cfg(0.5)),
    "otto_efficiency": lambda: otto_efficiency(GRID),
    "run_otto-overflow": lambda: run_otto(otto_cfg(400.0)),
    "generalized_ledger-overflow": lambda: generalized_ledger(1.0, 2.0, [400.0]),
}


class Numpy1Errstate(contextlib.ContextDecorator):
    """numpy 1.x's errstate, which keeps the state it replaces on the instance."""

    def __init__(self, **kwargs):
        self.kwargs = kwargs

    def __enter__(self):
        self.oldstate = np.seterr(**self.kwargs)

    def __exit__(self, *exc_info):
        np.seterr(**self.oldstate)


@pytest.fixture(params=["numpy", "numpy-1.x"])
def errstate_kind(request, monkeypatch):
    """Run a test with the installed errstate and with numpy 1.x's."""
    if request.param == "numpy-1.x":
        monkeypatch.setattr(np, "errstate", Numpy1Errstate)


class TestErrorState:
    """A call leaves numpy's floating-point error state as it found it.

    numpy 1.x's errstate keeps the state it replaces on the instance, so
    one instance entered again before its exit would restore "raise", not
    the caller's state, for the rest of the process.
    """

    @pytest.mark.parametrize("name", ERROR_STATE_CALLS)
    def test_call_restores_the_error_state(self, name):
        before = np.geterr()
        with contextlib.suppress(FloatingPointError):
            ERROR_STATE_CALLS[name]()
        assert np.geterr() == before

    @pytest.mark.parametrize("name", ERROR_STATE_CALLS)
    def test_call_keeps_the_callers_state(self, errstate_kind, name):
        with np.errstate(over="warn", divide="ignore"):
            callers = np.geterr()
            with contextlib.suppress(FloatingPointError):
                ERROR_STATE_CALLS[name]()
            assert np.geterr() == callers

    @pytest.mark.parametrize("name", ERROR_STATE_CALLS)
    def test_call_inside_raising_restores_the_state(self, errstate_kind, name):
        before = np.geterr()
        with _raising("outer quantity", "r", 0.0):
            raising = np.geterr()
            with contextlib.suppress(FloatingPointError):
                ERROR_STATE_CALLS[name]()
            assert np.geterr() == raising
        assert np.geterr() == before


class TestReportSerialization:
    def test_json_document(self):
        report = run_otto(otto_cfg(0.5))
        doc = json.loads(report_to_json(report))
        assert set(doc) == {
            "schema_version", "strokes", "w_net_extracted", "q_hot_in", "q_cold_out",
            "efficiency", "region", "classicality_trace",
        }
        assert doc["schema_version"] == 2
        assert [s["label"] for s in doc["strokes"]] == [
            "squeeze", "hot-contact", "unsqueeze", "cold-contact",
        ]
        assert doc["strokes"][0]["state_in"] == {"n_th": N1, "r": 0.0}
        trace = doc["classicality_trace"]
        assert len(trace["r"]) == len(trace["classicality"]) == 4 * 256
        assert doc["efficiency"] == pytest.approx(0.3519457263361145, abs=1e-12)

    def test_dict_matches_report(self):
        report = run_generalized(gen_cfg(0.3))
        doc = report_to_dict(report)
        assert doc["schema_version"] == 2
        assert doc["w_net_extracted"] == report.w_net_extracted
        assert doc["region"] == report.region


def random_reports(count, seed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        tau_cold = float(10.0 ** rng.uniform(-2, 1.5))
        tau_hot = tau_cold * float(10.0 ** rng.uniform(0, 2))
        r = float(rng.choice([0.0, rng.uniform(0, 0.1), rng.uniform(0, 3), rng.uniform(3, 8)]))
        run = run_otto if k % 2 else run_generalized
        yield run(EngineConfig(tau_cold, tau_hot, r, CycleKind.OTTO if k % 2 else
                               CycleKind.GENERALIZED))


class TestReportJsonText:
    """report_to_json is the text of json.dumps(report_to_dict(report)), byte for byte.

    The one text report_to_json writes is json.dumps's default, indent None.
    """

    @pytest.mark.parametrize("indent", [None])
    def test_random_configs(self, indent):
        for report in random_reports(200, seed=23):
            assert_equal_text(report_to_json(report),
                              json.dumps(report_to_dict(report), indent=indent))

    @pytest.mark.parametrize("indent", [None])
    def test_extreme_trace_values(self, indent):
        values = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-310, 1e-300,
                           1e-5, 1e-4, 1e15, 1e16, 1e300, 1.7976931348623157e308, -2.5, 0.1])
        report = run_generalized(gen_cfg(0.4))
        trace = ClassicalityTrace(r=values, n=values[::-1], c=-values)
        report = dataclasses.replace(report, classicality_trace=trace)
        assert_equal_text(report_to_json(report),
                          json.dumps(report_to_dict(report), indent=indent))

    @pytest.mark.parametrize("indent", [None])
    def test_empty_lists(self, indent):
        trace = ClassicalityTrace(r=np.array([]), n=np.array([1.0, 0.5]), c=np.array([]))
        report = dataclasses.replace(run_otto(otto_cfg(0.5)), classicality_trace=trace)
        assert_equal_text(report_to_json(report),
                          json.dumps(report_to_dict(report), indent=indent))

    def test_otto_without_squeezing(self):
        report = run_otto(otto_cfg(0.0))           # every r is 0: one run of 1024
        assert not report.classicality_trace.r.any()
        assert_equal_text(report_to_json(report), json.dumps(report_to_dict(report)))

    # SHA-256 of two reports (schema version 2) as json.dumps(report_to_dict(report))
    # wrote them, the second with indent 2.
    @pytest.mark.parametrize("cfg, indent, digest", [
        (otto_cfg(0.5), None,
         "ac8ca13ad46c004eb462efae75fe5e08cd35684684847d152d881b6f71dd916e"),
        (gen_cfg(1.25, tau_cold=0.3, tau_hot=5.0), 2,
         "9e7b57282269b0ea1e9bc9202d6955edd914fe5ce1028b5d0bccb131011d1c87"),
    ], ids=["otto-indent-none", "generalized-indent-2"])
    def test_pinned_digests(self, cfg, indent, digest):
        run = run_otto if cfg.kind is CycleKind.OTTO else run_generalized
        report = run(cfg)
        text = (report_to_json(report) if indent is None
                else json.dumps(report_to_dict(report), indent=indent))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
