from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

import herdscan
from herdscan.econometrics import (
    Significance,
    _solve_upper,
    _two_sided_p,
    basic_design,
    beta_distance_stats,
    build_beta_report,
    capm_beta,
    fit_csad_basic,
    fit_csad_updown,
    grade_significance,
    newey_west_lag,
    ols,
    updown_design,
    verdict,
)
from herdscan.errors import (
    DegenerateRegressor,
    EmptyInput,
    ModelMismatch,
    OneSidedSample,
    RankDeficient,
    TooFewObservations,
    ZeroVarianceProxy,
)
from herdscan.returns import up_down_masks

from generators import csad_series, herding_market, regime_market
from oracles import (
    classical_se,
    newey_west_cov_bruteforce,
    normal_equations_ols,
    wrapper_ols,
)


class TestOls:
    def test_exact_line(self):
        x = np.arange(1.0, 11.0)
        X = np.column_stack([np.ones(10), x])
        fit = ols(X, 3.0 + 2.0 * x)
        np.testing.assert_allclose(fit.coefficients, [3.0, 2.0], atol=1e-10)
        assert fit.residual_variance == pytest.approx(0.0, abs=1e-20)
        assert fit.degenerate_exact

    def test_orthogonal_regressor_zero_coefficient(self):
        n = 64
        t = np.arange(n)
        odd = np.where(t % 2 == 0, 1.0, -1.0)   # orthogonal to the constant
        X = np.column_stack([np.ones(n), odd])
        y = np.full(n, 5.0)
        fit = ols(X, y)
        assert abs(fit.coefficients[1]) < 1e-10

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        fit = ols(X, y)
        np.testing.assert_allclose(fit.coefficients, normal_equations_ols(X, y),
                                   rtol=1e-8, atol=1e-12)

    def test_standard_errors_match_oracle(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
        y = X @ np.array([1.0, 2.0, -3.0]) + rng.normal(size=80)
        fit = ols(X, y)
        np.testing.assert_allclose(fit.std_errors, classical_se(X, y),
                                   rtol=1e-9)
        np.testing.assert_allclose(fit.t_stats,
                                   fit.coefficients / fit.std_errors)

    def test_rank_deficient_reports_column(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        X = np.column_stack([np.ones(40), x, 2.0 * x])
        with pytest.raises(RankDeficient):
            ols(X, rng.normal(size=40))

    def test_all_zero_design_names_column_zero(self):
        with pytest.raises(RankDeficient) as err:
            ols(np.zeros((10, 3)), np.ones(10))
        assert err.value.column == 0

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            ols(np.ones((3, 3)), np.ones(3))

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n, k = int(rng.integers(20, 120)), int(rng.integers(1, 6))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k))])
            y = rng.normal(size=n)
            fit = ols(X, y)
            resid = y - X @ fit.coefficients
            bound = 1e-8 * n * np.abs(X).max()
            assert np.abs(X.T @ resid).max() < bound

    def test_affine_response_shift(self):
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = rng.normal(size=60)
        base = ols(X, y)
        shifted = ols(X, y + 5.0)
        assert shifted.coefficients[0] - base.coefficients[0] == pytest.approx(
            5.0, abs=1e-9)
        np.testing.assert_allclose(shifted.coefficients[1:],
                                   base.coefficients[1:], atol=1e-9)
        np.testing.assert_allclose(shifted.t_stats[1:], base.t_stats[1:],
                                   atol=1e-9)

    def test_hac_covariance_matches_bruteforce(self):
        rng = np.random.default_rng(33)
        n = 120
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        # AR(1) errors so HAC actually differs from classical
        e = np.zeros(n)
        shocks = rng.normal(size=n)
        for t in range(1, n):
            e[t] = 0.6 * e[t - 1] + shocks[t]
        y = X @ np.array([1.0, 0.5, -0.5]) + e
        fit = ols(X, y, hac=True)
        resid = y - X @ normal_equations_ols(X, y)
        cov = newey_west_cov_bruteforce(X, resid, newey_west_lag(n))
        np.testing.assert_allclose(fit.std_errors, np.sqrt(np.diag(cov)),
                                   rtol=1e-8)

    def test_lag_rule(self):
        assert newey_west_lag(100) == 4
        assert newey_west_lag(500) == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["design", "response"])
    def test_non_finite_input_rejected(self, where, bad):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = rng.normal(size=30)
        if where == "design":
            X[7, 1] = bad
        else:
            y[7] = bad
        with pytest.raises(ValueError):
            ols(X, y)

    def test_p_values_equal_student_t_sf(self):
        from scipy import stats

        rng = np.random.default_rng(8)
        t = np.concatenate([
            [-np.inf, -1e6, -40.0, -2.58, -1.96, -1e-12, -0.0, 0.0,
             1e-12, 0.5, 1.645, 3.2, 1e6, np.inf],
            rng.standard_cauchy(200) * 5.0,
        ])
        for dof in (1, 2, 3, 7, 30, 997, 13_000, 10**6):
            expected = np.where(np.isinf(t), 0.0,
                                2.0 * stats.t.sf(np.abs(t), dof))
            np.testing.assert_array_equal(_two_sided_p(t, dof), expected)
        fit = ols(np.column_stack([np.ones(40), rng.normal(size=40)]),
                  rng.normal(size=40))
        np.testing.assert_array_equal(
            fit.p_values, 2.0 * stats.t.sf(np.abs(fit.t_stats), fit.dof))


def _assert_same_as_wrapper_ols(X: np.ndarray, y: np.ndarray, hac: bool) -> None:
    """``ols`` gives the bits of ``wrapper_ols``, or raises what it raises."""
    try:
        want = wrapper_ols(X, y, hac=hac)
    except (RankDeficient, TooFewObservations, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            ols(X, y, hac=hac)
        assert type(got.value) is type(exc)
        assert getattr(got.value, "column", None) == getattr(exc, "column", None)
        return
    fit = ols(X, y, hac=hac)
    for name, got_arr, want_arr in zip(
            ("coefficients", "std_errors", "t_stats", "p_values"),
            (fit.coefficients, fit.std_errors, fit.t_stats, fit.p_values), want):
        assert np.array_equal(got_arr, want_arr), name
    assert fit.residual_variance == want[4]


class TestOlsMatchesScipyWrappers:
    """``ols`` calls LAPACK directly; its results must equal, bit for bit,
    those of the scipy ``qr`` / ``solve_triangular`` wrappers it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.sampled_from([3, 5]), n_extra=st.integers(1, 3000),
           hac=st.booleans(), log_scale=st.floats(-4.0, -1.0),
           csad_shaped=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_full_rank(self, k, n_extra, hac, log_scale, csad_shaped, seed):
        rng = np.random.default_rng(seed)
        n = k + n_extra
        scale = 10.0 ** log_scale
        if csad_shaped:
            rm = rng.normal(0.0, scale, n)
            cs = csad_series(rm, np.abs(0.01 + 0.5 * np.abs(rm)
                                        + scale * rng.standard_normal(n)))
            X = (basic_design(cs) if k == 3
                 else updown_design(cs, *up_down_masks(cs)))
            y = cs.csad
        else:
            X = np.column_stack([np.ones(n), scale * rng.standard_normal((n, k - 1))])
            y = X @ rng.normal(size=k) + scale * rng.standard_normal(n)
        _assert_same_as_wrapper_ols(X, y, hac)

    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([3, 5]), n_extra=st.integers(1, 400),
           hac=st.booleans(), defect=st.sampled_from(["zero", "duplicate"]),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_rank_deficient(self, k, n_extra, hac, defect, data, seed):
        rng = np.random.default_rng(seed)
        n = k + n_extra
        X = np.column_stack([np.ones(n), 1e-2 * rng.standard_normal((n, k - 1))])
        col = data.draw(st.integers(1, k - 1), label="column")
        if defect == "zero":
            X[:, col] = 0.0
        else:
            X[:, col] = X[:, data.draw(st.sampled_from(
                [c for c in range(k) if c != col]), label="copied")]
        _assert_same_as_wrapper_ols(X, rng.standard_normal(n), hac)

    def test_strided_and_fortran_designs(self):
        rng = np.random.default_rng(17)
        wide = np.column_stack([np.ones(300), rng.normal(size=(300, 4))])
        y = rng.normal(size=300)
        for X in (wide[:, :3], wide[::2, [0, 2, 4]], np.asfortranarray(wide)):
            _assert_same_as_wrapper_ols(X, y[:X.shape[0]], hac=True)

    @pytest.mark.parametrize("hac", [False, True])
    def test_exact_fits(self, hac):
        # zero residuals give zero standard errors and t of 0 or +-inf
        x = np.arange(1.0, 41.0)
        X = np.column_stack([np.ones(40), x, x ** 2])
        for y in (np.zeros(40), np.full(40, 5.0), 3.0 + 2.0 * x, -(x ** 2)):
            _assert_same_as_wrapper_ols(X, y, hac)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 5), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_solve_upper_matches_solve_triangular(k, data, seed):
    # diagonals and off-diagonals from 1e-12 to 1e12, either sign; both the
    # coefficient solve (a vector) and the inverse (the identity) must give
    # solve_triangular's bits, signed zeros included
    exponents = data.draw(st.lists(st.floats(-12.0, 12.0), min_size=k,
                                   max_size=k), label="diagonal exponents")
    rng = np.random.default_rng(seed)
    r_mat = np.triu(rng.standard_normal((k, k))
                    * 10.0 ** rng.uniform(-12.0, 12.0, (k, k)))
    r_mat[np.diag_indices(k)] = (rng.choice([-1.0, 1.0], k)
                                 * 10.0 ** np.array(exponents))
    for rhs in (rng.standard_normal(k), np.eye(k)):
        want = sla.solve_triangular(r_mat, rhs, check_finite=False)
        got = _solve_upper(r_mat, rhs)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="a second busy thread needs a second CPU")
@pytest.mark.parametrize("hac", [False, True])
@pytest.mark.parametrize("k", [3, 5])
def test_fits_stay_on_one_thread(k, hac):
    # A BLAS or LAPACK call that wakes a worker thread leaves it spinning
    # after it returns, so the process uses more CPU than wall time.
    rng = np.random.default_rng(13)
    rm = rng.normal(0.0, 0.01, 545)
    cs = csad_series(rm, 0.02 + 0.8 * np.abs(rm) + 0.002 * rng.standard_normal(545))
    X = basic_design(cs) if k == 3 else updown_design(cs, *up_down_masks(cs))
    ols(X, cs.csad, hac=hac)
    time.sleep(0.3)  # a worker woken by an earlier test goes idle
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(200):
        ols(X, cs.csad, hac=hac)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    assert cpu <= 1.25 * wall, f"{cpu / wall:.2f}x CPU per wall second"


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes about half a second to import; nothing needs it.
    code = ("import sys, herdscan, herdscan.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    src = Path(herdscan.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_designs_equal_column_stack_in_c_order():
    # The fits' last bits depend on the design layout, so both designs must
    # be C-ordered, with the values of the column_stack form they replaced.
    rng = np.random.default_rng(9)
    rm = rng.normal(0.0, 0.01, 200)
    rm[::7] = 0.0  # neither up nor down
    cs = csad_series(rm, np.abs(rng.normal(size=200)))
    up, down = rm > 0, rm < 0
    expected = {
        "basic": np.column_stack([np.ones(200), np.abs(rm), rm ** 2]),
        "updown": np.column_stack([np.ones(200), up * np.abs(rm), up * rm ** 2,
                                   down * np.abs(rm), down * rm ** 2]),
    }
    for name, X in (("basic", basic_design(cs)),
                    ("updown", updown_design(cs, up, down))):
        assert X.flags.c_contiguous, name
        assert np.array_equal(X, expected[name]), name
        assert not np.signbit(X).any(), name


class TestFitCsadBasic:
    def test_exact_quadratic_recovery(self):
        rng = np.random.default_rng(0)
        rm = rng.normal(0, 0.02, 200)
        vals = 0.5 + 2.0 * np.abs(rm) - 3.0 * rm ** 2
        fit = fit_csad_basic(csad_series(rm, vals))
        np.testing.assert_allclose(fit.coefficients, [0.5, 2.0, -3.0],
                                   atol=1e-8)
        assert fit.coefficients.size == 3

    def test_flat_response_insignificant_slopes(self):
        rng = np.random.default_rng(1)
        rm = rng.normal(0, 0.02, 200)
        fit = fit_csad_basic(csad_series(rm, np.full(200, 0.25)))
        np.testing.assert_allclose(fit.coefficients[1:], [0.0, 0.0], atol=1e-10)
        v = verdict(fit)
        assert v.beta2_significance is Significance.NOT_SIGNIFICANT
        assert not v.herding_overall

    def test_synthetic_herding_detected_at_1pct(self):
        fit = fit_csad_basic(herding_market(17, beta2=-3.0))
        v = verdict(fit)
        assert v.beta2 < 0
        assert v.beta2_significance is Significance.AT_1PCT

    def test_constant_market_return_degenerate(self):
        cs = csad_series(np.full(50, 0.01), np.full(50, 0.1))
        with pytest.raises(DegenerateRegressor):
            fit_csad_basic(cs)

    def test_observation_floor(self):
        cs = herding_market(0, beta2=0.0, n_obs=8)
        with pytest.raises(TooFewObservations):
            fit_csad_basic(cs)


class TestFitCsadUpdown:
    def test_all_positive_market_one_sided(self):
        rng = np.random.default_rng(2)
        rm = np.abs(rng.normal(0, 0.02, 100)) + 1e-6
        cs = csad_series(rm, np.full(100, 0.1))
        with pytest.raises(OneSidedSample):
            fit_csad_updown(cs)

    def test_symmetric_data_symmetric_fit(self):
        # mirror-symmetric sample: identical curves fitted to both regimes
        rng = np.random.default_rng(8)
        half = np.abs(rng.normal(0, 0.02, 250)) + 1e-8
        rm = np.concatenate([half, -half])
        vals = 0.02 + 0.9 * np.abs(rm) - 2.0 * rm ** 2 \
            + 0.001 * np.tile(rng.standard_normal(250), 2)
        fit = fit_csad_updown(csad_series(rm, vals))
        g = fit.coefficients
        assert g[1] == pytest.approx(g[3], abs=1e-6)
        assert g[2] == pytest.approx(g[4], abs=1e-6)

    def test_down_only_herding_isolated(self):
        hits = 0
        for seed in range(60):
            fit5 = fit_csad_updown(regime_market(seed))
            fit4 = fit_csad_basic(regime_market(seed))
            v = verdict(fit4, fit5)
            if v.herding_down and not v.herding_up:
                hits += 1
        assert hits >= 57  # 95% of seeds

    def test_up_columns_match_basic_fit_on_up_only_data(self):
        # with no down observations, the up columns conceptually reduce to
        # the basic design; drop the zero down columns and compare
        rng = np.random.default_rng(4)
        rm = np.abs(rng.normal(0, 0.02, 150)) + 1e-8
        vals = 0.03 + 0.7 * np.abs(rm) - 1.5 * rm ** 2 \
            + 0.001 * rng.standard_normal(150)
        cs = csad_series(rm, vals)
        full5 = updown_design(cs, *up_down_masks(cs))
        assert np.array_equal(full5[:, 3], np.zeros(150))
        up_only = ols(full5[:, :3], cs.csad)
        basic = ols(basic_design(cs), cs.csad)
        np.testing.assert_allclose(up_only.coefficients, basic.coefficients,
                                   atol=1e-9)
        np.testing.assert_allclose(up_only.t_stats, basic.t_stats, atol=1e-9)

    def test_regime_floor(self):
        rng = np.random.default_rng(5)
        rm = np.abs(rng.normal(0, 0.02, 100)) + 1e-6
        rm[:3] = -rm[:3]  # only 3 down observations
        cs = csad_series(rm, np.full(100, 0.1))
        with pytest.raises(OneSidedSample):
            fit_csad_updown(cs)


class TestVerdict:
    def test_significant_negative_beta2(self):
        fit4 = fit_csad_basic(herding_market(3, beta2=-1.751, sigma=0.001))
        v = verdict(fit4)
        assert v.herding_overall
        assert v.beta2_significance is Significance.AT_1PCT

    def test_significant_positive_gamma2_is_not_herding(self):
        # strongly positive up coefficient: significant, but wrong sign
        cs = regime_market(11, down_beta2=-3.0, up_beta2=3.465, sigma=0.001)
        v = verdict(fit_csad_basic(cs), fit_csad_updown(cs))
        assert v.gamma2 > 0
        assert v.gamma2_significance is Significance.AT_1PCT
        assert not v.herding_up

    def test_insignificant_negative_not_herding(self):
        # tiny effect under huge noise: negative but insignificant
        rng = np.random.default_rng(6)
        rm = rng.normal(0, 0.02, 60)
        vals = np.abs(0.5 + 10.0 * rng.standard_normal(60) - 0.5 * rm ** 2)
        fit = ols(basic_design(csad_series(rm, vals)),
                  csad_series(rm, vals).csad)
        v = verdict(fit)
        if v.beta2 < 0:
            assert v.beta2_significance is Significance.NOT_SIGNIFICANT
            assert not v.herding_overall

    def test_absent_fit5_disables_regime_flags(self):
        v = verdict(fit_csad_basic(herding_market(9, beta2=-3.0)))
        assert v.gamma2 is None and v.gamma3 is None
        assert not v.herding_up and not v.herding_down
        assert v.herding_any == v.herding_overall

    def test_model_mismatch(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
        generic = ols(X, rng.normal(size=30))
        with pytest.raises(ModelMismatch):
            verdict(generic)
        basic = ols(X[:, :3], rng.normal(size=30))
        with pytest.raises(ModelMismatch):
            verdict(basic, basic)

    def test_grades(self):
        assert grade_significance(0.005) is Significance.AT_1PCT
        assert grade_significance(0.02) is Significance.AT_5PCT
        assert grade_significance(0.07) is Significance.AT_10PCT
        assert grade_significance(0.5) is Significance.NOT_SIGNIFICANT

    def test_joint_rescale_invariance(self):
        cs = herding_market(14, beta2=-3.0)
        for scale in (0.1, 10.0, 1000.0):
            scaled = csad_series(scale * cs.market_return, scale * cs.csad)
            v0 = verdict(fit_csad_basic(cs), fit_csad_updown(cs))
            v1 = verdict(fit_csad_basic(scaled), fit_csad_updown(scaled))
            assert (v0.herding_overall, v0.herding_up, v0.herding_down) == \
                   (v1.herding_overall, v1.herding_up, v1.herding_down)
            assert v0.beta2_significance == v1.beta2_significance

    def test_degenerate_exact_flag(self):
        rng = np.random.default_rng(15)
        rm = rng.normal(0, 0.02, 100)
        vals = 0.5 + 2.0 * np.abs(rm) - 3.0 * rm ** 2  # exact, herding shape
        v = verdict(fit_csad_basic(csad_series(rm, vals)))
        assert v.degenerate_exact
        assert v.herding_overall  # nonzero negative coefficient, exact fit
        assert v.beta2_significance is Significance.AT_1PCT


class TestCapmBeta:
    def test_self_regression(self):
        rng = np.random.default_rng(0)
        r = rng.normal(0, 0.01, 100)
        assert capm_beta(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_linear_scaling(self):
        rng = np.random.default_rng(1)
        r = rng.normal(0, 0.01, 100)
        assert capm_beta(2.0 * r, r) == pytest.approx(2.0, abs=1e-12)

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(2)
        asset = rng.normal(0, 0.01, 10_000)
        proxy = rng.normal(0, 0.01, 10_000)
        beta = capm_beta(asset, proxy)
        cov = np.cov(asset, proxy, ddof=0)
        assert beta == pytest.approx(cov[0, 1] / cov[1, 1], abs=1e-12)
        assert abs(beta) < 0.05

    def test_zero_variance_proxy(self):
        with pytest.raises(ZeroVarianceProxy):
            capm_beta(np.arange(20.0), np.full(20, 0.01))

    def test_length_floor(self):
        with pytest.raises(TooFewObservations):
            capm_beta(np.arange(5.0), np.arange(5.0))


class TestBetaDistance:
    def test_all_unity(self):
        assert beta_distance_stats({"A": 1.0, "B": 1.0}) == (0.0, 0.0)

    def test_symmetric_pair(self):
        mae, rmse = beta_distance_stats({"A": 0.5, "B": 1.5})
        assert mae == pytest.approx(0.5) and rmse == pytest.approx(0.5)

    def test_uneven_pair(self):
        mae, rmse = beta_distance_stats({"A": 1.0, "B": 2.0})
        assert mae == pytest.approx(0.5)
        assert rmse == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            beta_distance_stats({})

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.floats(min_value=-10, max_value=10),
                           min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_rmse_at_least_mae(self, betas):
        mae, rmse = beta_distance_stats(betas)
        assert rmse >= mae - 1e-12
        report = build_beta_report(betas, "proxy")
        assert report.rmse >= report.mae - 1e-12
