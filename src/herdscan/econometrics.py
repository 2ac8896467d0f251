"""Least squares with significance testing, the two dispersion regressions,
and CAPM beta statistics.

The herding detector regresses the cross-sectional absolute deviation on
the absolute market return and its square:

    basic:  csad_t = b0 + b1*|rm_t| + b2*rm_t^2 + e_t
    split:  csad_t = g0 + g1*Dup*|rm_t| + g2*Dup*rm_t^2
                        + g3*Ddn*|rm_t| + g4*Ddn*rm_t^2 + z_t

Herding is a significantly *negative* coefficient on a squared term:
dispersion shrinking during large market moves. Significance is graded
at the 1% / 5% / 10% two-sided levels; the verdict additionally requires
the negative sign. In the split model the up-regime squared coefficient
is reported as ``gamma2`` and the down-regime squared coefficient as
``gamma3``, matching the usual reporting convention for the two regimes.

The length-n inner products (the residual sum of squares, and the variance
and covariance of a beta) are ``np.einsum`` reductions, not ``@``. ``@`` on
two vectors is BLAS ``ddot``, which OpenBLAS splits across its thread pool
above 10 000 elements. Waking the pool costs milliseconds: on a 2-core
x86-64 machine one ``ols`` at n = 10 001 took 7.9 ms that way and 0.3 ms
without it. The split partial sums also add up in an order that depends on
the thread count, so the last digits of a report would depend on
``OPENBLAS_NUM_THREADS``. ``einsum`` never calls BLAS.

``ols`` calls LAPACK's ``dgeqp3``, ``dorgqr`` and ``dtrtrs`` directly
through ``scipy.linalg.lapack``, with the arguments and array layouts that
``scipy.linalg.qr(pivoting=True)`` and ``solve_triangular`` pass, so its
results are the same bits without the wrappers' workspace queries, input
validation and batch dispatch: on a 2-core x86-64 machine one fit at
n = 540, k = 3 took 183 us through the wrappers and 87 us without them.
With at most 5 columns, below LAPACK's block size, the unblocked routines
run whatever the workspace size.

The designs are built in place as C-ordered arrays. The layout is part of
the result: ``X @ coef`` and the Newey-West score products add up in an
order that depends on it, and Fortran-ordered designs change the last bits
of the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np
from scipy.linalg import lapack
from scipy.special import stdtr

from .errors import (
    DegenerateRegressor,
    EmptyInput,
    ModelMismatch,
    OneSidedSample,
    RankDeficient,
    TooFewObservations,
    ZeroVarianceProxy,
)
from .returns import CsadSeries, up_down_masks

#: Residual variance below this marks a fit as an exact (degenerate) fit.
EXACT_FIT_VARIANCE = 1e-20


class Model(Enum):
    OLS = "ols"
    CSAD_BASIC = "csad_basic"
    CSAD_UPDOWN = "csad_updown"
    CAPM_BETA = "capm_beta"


class Significance(Enum):
    AT_1PCT = "1%"
    AT_5PCT = "5%"
    AT_10PCT = "10%"
    NOT_SIGNIFICANT = "ns"


def grade_significance(p_value: float) -> Significance:
    if p_value < 0.01:
        return Significance.AT_1PCT
    if p_value < 0.05:
        return Significance.AT_5PCT
    if p_value < 0.10:
        return Significance.AT_10PCT
    return Significance.NOT_SIGNIFICANT


@dataclass(frozen=True)
class RegressionFit:
    """OLS result with classical (or HAC) standard errors."""

    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    n_obs: int
    dof: int
    residual_variance: float
    model: Model

    @property
    def degenerate_exact(self) -> bool:
        """True for numerically exact fits, where t statistics saturate."""
        return self.residual_variance < EXACT_FIT_VARIANCE


@dataclass(frozen=True)
class HerdingVerdict:
    """Signs and significance of the squared-term coefficients.

    ``gamma2``/``gamma3`` (and their t statistics) are None when the split
    regression was not available; both regime flags are then false.
    """

    beta2: float
    beta2_significance: Significance
    gamma2: float | None
    gamma2_significance: Significance
    gamma3: float | None
    gamma3_significance: Significance
    herding_overall: bool
    herding_up: bool
    herding_down: bool
    herding_any: bool
    t_beta2: float = float("nan")
    t_gamma2: float | None = None
    t_gamma3: float | None = None
    degenerate_exact: bool = False


@dataclass(frozen=True)
class BetaReport:
    """Per-asset betas against one proxy plus distance-from-unity stats."""

    betas: Mapping[str, float]
    mae: float
    rmse: float
    proxy: str


def ols(design: np.ndarray, response: np.ndarray, *,
        hac: bool = False, model: Model = Model.OLS) -> RegressionFit:
    """Least squares via pivoted QR with rank checking.

    Classical homoskedastic standard errors by default; ``hac=True``
    switches to Newey-West with the usual floor(4*(n/100)^(2/9)) lag.
    Two-sided p-values come from the Student-t with n-k degrees of freedom.
    A NaN or infinite value in the design or the response raises ValueError.
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(response, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValueError("design must be [n, k] and response [n]")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("design and response must be finite")
    n, k = X.shape
    if n <= k:
        raise TooFewObservations(f"need n > k, got n={n}, k={k}")

    # The calls and array layouts of scipy.linalg.qr(X, mode="economic",
    # pivoting=True) and solve_triangular, without their wrapper overhead.
    qr, piv, tau, _, info = lapack.dgeqp3(X)
    _check_lapack("dgeqp3", info)
    piv -= 1
    r_mat = np.triu(qr[:k, :])
    q_mat, _, info = lapack.dorgqr(qr, tau, overwrite_a=1)
    _check_lapack("dorgqr", info)
    diag = np.abs(r_mat.diagonal())
    tol = (diag[0] if diag[0] > 0 else 1.0) * max(n, k) * np.finfo(np.float64).eps
    bad = np.nonzero(diag <= tol)[0]
    if diag[0] == 0 or bad.size:
        raise RankDeficient(int(piv[bad[0]] if bad.size else piv[0]))

    unpivot = np.argsort(piv)
    coef = _solve_upper(r_mat, q_mat.T @ y)[unpivot]

    residuals = y - X @ coef
    dof = n - k
    rss = float(np.einsum("i,i->", residuals, residuals))
    s2 = rss / dof

    r_inv = _solve_upper(r_mat, np.eye(k))
    xtx_inv = (r_inv @ r_inv.T)[unpivot[:, None], unpivot]

    if hac:
        cov = xtx_inv @ _newey_west_meat(X, residuals) @ xtx_inv
    else:
        cov = s2 * xtx_inv
    se = np.sqrt(np.maximum(cov.diagonal(), 0.0))

    # Where the standard error is 0 (or NaN), t is 0 for a zero coefficient,
    # else +-inf; the division runs only where the standard error is positive.
    t = np.divide(coef, se, out=np.where(coef == 0, 0.0, np.copysign(np.inf, coef)),
                  where=se > 0)

    return RegressionFit(coefficients=coef, std_errors=se, t_stats=t,
                         p_values=_two_sided_p(t, dof), n_obs=n, dof=dof,
                         residual_variance=s2, model=model)


def _solve_upper(r_mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``solve_triangular(r_mat, rhs)`` for the C-ordered ``r_mat`` of ``ols``.

    LAPACK reads Fortran order, so, like scipy, this solves the transposed
    (lower-triangular) system of ``r_mat.T``, a Fortran-ordered view.
    """
    x, info = lapack.dtrtrs(r_mat.T, rhs, lower=1, trans=1)
    _check_lapack("dtrtrs", info)
    return x


def _check_lapack(name: str, info: int) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"{name}: singular at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"{name}: illegal value in argument {-info}")


def _two_sided_p(t: np.ndarray, dof: int) -> np.ndarray:
    """Two-sided Student-t p-values of t statistics; 0 where |t| is infinite.

    ``stdtr`` is the Student-t CDF that ``scipy.stats.t.sf`` evaluates (at
    -|t|), so the values are the same bits without importing scipy.stats.
    """
    return np.where(np.isinf(t), 0.0, 2.0 * stdtr(dof, -np.abs(t)))


def newey_west_lag(n_obs: int) -> int:
    return int(math.floor(4.0 * (n_obs / 100.0) ** (2.0 / 9.0)))


def _newey_west_meat(X: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Bartlett-weighted long-run covariance of the score, sum form."""
    scores = residuals[:, None] * X
    meat = scores.T @ scores
    lag = newey_west_lag(X.shape[0])
    for j in range(1, lag + 1):
        gamma = scores[j:].T @ scores[:-j]
        meat += (1.0 - j / (lag + 1.0)) * (gamma + gamma.T)
    return meat


def basic_design(cs: CsadSeries) -> np.ndarray:
    """The C-ordered design [1, |rm|, rm^2]."""
    rm = cs.market_return
    X = np.empty((rm.size, 3))
    X[:, 0] = 1.0
    np.abs(rm, out=X[:, 1])
    np.square(rm, out=X[:, 2])
    return X


def updown_design(cs: CsadSeries, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The C-ordered design [1, Dup|rm|, Dup rm^2, Ddn|rm|, Ddn rm^2].

    ``up`` and ``down`` are the regime masks of ``up_down_masks(cs)``.
    """
    rm = cs.market_return
    X = np.empty((rm.size, 5))
    X[:, 0] = 1.0
    abs_rm = np.abs(rm, out=X[:, 1])
    rm_sq = np.square(rm, out=X[:, 2])
    np.multiply(down, abs_rm, out=X[:, 3])
    np.multiply(down, rm_sq, out=X[:, 4])
    np.multiply(up, abs_rm, out=abs_rm)
    np.multiply(up, rm_sq, out=rm_sq)
    return X


def fit_csad_basic(cs: CsadSeries, *, min_obs: int = 10,
                   hac: bool = False) -> RegressionFit:
    """Fit the basic dispersion regression on [1, |rm|, rm^2]."""
    if len(cs) < min_obs:
        raise TooFewObservations(f"{len(cs)} observations, need {min_obs}")
    if np.ptp(cs.market_return) == 0:
        raise DegenerateRegressor("market return is constant")
    return ols(basic_design(cs), cs.csad, hac=hac, model=Model.CSAD_BASIC)


def fit_csad_updown(cs: CsadSeries, *, min_obs: int = 10, min_regime: int = 5,
                    hac: bool = False) -> RegressionFit:
    """Fit the regime-split dispersion regression with up/down dummies."""
    if len(cs) < min_obs:
        raise TooFewObservations(f"{len(cs)} observations, need {min_obs}")
    up, down = up_down_masks(cs)
    n_up, n_down = np.count_nonzero(up), np.count_nonzero(down)
    if n_up < min_regime or n_down < min_regime:
        raise OneSidedSample(
            f"regime sizes up={n_up}, down={n_down}; need {min_regime} each")
    return ols(updown_design(cs, up, down), cs.csad, hac=hac,
               model=Model.CSAD_UPDOWN)


def verdict(fit4: RegressionFit,
            fit5: RegressionFit | None = None) -> HerdingVerdict:
    """Grade the squared-term coefficients into a herding verdict.

    A regime is herded only when its coefficient is negative *and*
    significant at the 10% level or better. Without a split fit the two
    regime flags are false.
    """
    if fit4.model is not Model.CSAD_BASIC:
        raise ModelMismatch(f"expected a basic csad fit, got {fit4.model}")
    if fit5 is not None and fit5.model is not Model.CSAD_UPDOWN:
        raise ModelMismatch(f"expected an up/down csad fit, got {fit5.model}")

    beta2 = float(fit4.coefficients[2])
    sig4 = grade_significance(float(fit4.p_values[2]))
    overall = beta2 < 0 and sig4 is not Significance.NOT_SIGNIFICANT

    gamma2 = gamma3 = t_gamma2 = t_gamma3 = None
    sig_up = sig_down = Significance.NOT_SIGNIFICANT
    up = down = False
    degenerate = fit4.degenerate_exact
    if fit5 is not None:
        gamma2 = float(fit5.coefficients[2])   # up-regime squared term
        gamma3 = float(fit5.coefficients[4])   # down-regime squared term
        sig_up = grade_significance(float(fit5.p_values[2]))
        sig_down = grade_significance(float(fit5.p_values[4]))
        up = gamma2 < 0 and sig_up is not Significance.NOT_SIGNIFICANT
        down = gamma3 < 0 and sig_down is not Significance.NOT_SIGNIFICANT
        t_gamma2 = float(fit5.t_stats[2])
        t_gamma3 = float(fit5.t_stats[4])
        degenerate = degenerate or fit5.degenerate_exact

    return HerdingVerdict(
        beta2=beta2, beta2_significance=sig4,
        gamma2=gamma2, gamma2_significance=sig_up,
        gamma3=gamma3, gamma3_significance=sig_down,
        herding_overall=overall, herding_up=up, herding_down=down,
        herding_any=overall or up or down,
        t_beta2=float(fit4.t_stats[2]),
        t_gamma2=t_gamma2, t_gamma3=t_gamma3,
        degenerate_exact=degenerate,
    )


def capm_beta(asset: np.ndarray, proxy: np.ndarray, *,
              min_obs: int = 10) -> float:
    """Slope of asset returns on proxy returns: cov(asset, proxy)/var(proxy)."""
    a = np.asarray(asset, dtype=np.float64)
    p = np.asarray(proxy, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise ValueError("asset and proxy must be equal-length vectors")
    if a.size < min_obs:
        raise TooFewObservations(f"{a.size} observations, need {min_obs}")
    p_dev = p - p.mean()
    var = float(np.einsum("i,i->", p_dev, p_dev))
    if var < 1e-30:
        raise ZeroVarianceProxy("proxy returns have zero variance")
    return float(np.einsum("i,i->", a - a.mean(), p_dev) / var)


def beta_distance_stats(betas: Mapping[str, float]) -> tuple[float, float]:
    """Mean absolute and root-mean-square distance of betas from unity."""
    if not betas:
        raise EmptyInput("no betas")
    dev = np.fromiter(betas.values(), dtype=np.float64) - 1.0
    return float(np.abs(dev).mean()), float(np.sqrt((dev ** 2).mean()))


def build_beta_report(betas: Mapping[str, float], proxy: str) -> BetaReport:
    mae, rmse = beta_distance_stats(betas)
    return BetaReport(betas=dict(sorted(betas.items())), mae=mae,
                      rmse=rmse, proxy=proxy)
