"""Dual certificates and recovery criteria.

Given measurements Phi and a model decomposition at a candidate point, this
module evaluates the minimal-norm precertificate, the irrepresentability
criterion IC, first-order (and uniqueness) checks for the penalized and
equality-constrained problems, a sampling-based falsifier of the strong
null-space property, and the constants that certify a regularization-
parameter range for stable model selection.
"""

import numpy as np

from .linalg import (check_finite, null_space, RankedSvd,
                     restricted_injectivity, operator_bound, OperatorBound)
from .model import SubdiffGauge, directional_derivative
from .gauges import L2

IC_MARGIN = 1e-9

UNIQUE_OPTIMAL = "unique_optimal"
OPTIMAL_MAYBE_NONUNIQUE = "optimal_maybe_nonunique"
NOT_OPTIMAL = "not_optimal"


class RestrictedInjectivityError(ValueError):
    """Phi is not injective on the model subspace; certificates undefined."""


class CertificateReport:
    def __init__(self, alpha_f, ic_value, restricted_injective, identifiable,
                 method):
        self.alpha_f = alpha_f
        self.ic_value = float(ic_value)
        self.restricted_injective = bool(restricted_injective)
        self.identifiable = bool(identifiable)
        self.method = method

    def to_json_dict(self):
        return {
            "ic": self.ic_value,
            "identifiable": self.identifiable,
            "restricted_injective": self.restricted_injective,
            "alpha_f": [] if self.alpha_f is None else list(map(float, self.alpha_f)),
            "method": self.method,
        }

    def __repr__(self):
        return (f"CertificateReport(ic={self.ic_value:.6g}, "
                f"identifiable={self.identifiable}, method={self.method!r})")


def linearized_precertificate(Phi, md):
    """Minimal Euclidean-norm alpha with Phi_T^* alpha = e, from one SVD of
    Phi_T that also decides restricted injectivity."""
    Phi = check_finite(Phi, "Phi")
    return _precertificate(RankedSvd(Phi @ md.T.basis), md)


def _precertificate(svd, md):
    """``linearized_precertificate`` from the SVD of Phi_T."""
    if not svd.injective:
        raise RestrictedInjectivityError("restricted injectivity fails")
    return svd.solve_adjoint(md.T.coords(md.e))


def _ic(Phi, md, svd):
    """The precertificate alpha and IC = antig(P_S(Phi^* alpha - f)), from
    the SVD of Phi_T."""
    alpha = _precertificate(svd, md)
    return alpha, md.antig.value(md.S.project(Phi.T @ alpha - md.f))


def irrepresentability(Phi, md):
    """Evaluate IC at md.x and package the verdict.

    identifiable is asserted only with the exact subdifferential-gauge
    evaluator and a strict margin below one.
    """
    Phi = check_finite(Phi, "Phi")
    alpha, ic = _ic(Phi, md, RankedSvd(Phi @ md.T.basis))
    method = "exact" if md.antig.exact else "approximate"
    identifiable = bool(md.antig.exact and ic < 1.0 - IC_MARGIN)
    return CertificateReport(alpha, ic, True, identifiable, method)


def check_noisy_optimality(Phi, y, lam, x, md=None, gauge=None,
                           eq_tol=1e-7, strict_margin=1e-9):
    """First-order classification of x for the penalized problem.

    Needs either the model decomposition at x or, for x = 0, the regularizer
    itself (the zero condition is a polar-ball membership).
    """
    Phi = check_finite(Phi, "Phi")
    y = check_finite(y, "y")
    x = check_finite(x, "x")
    if lam <= 0:
        raise ValueError("lam must be positive")
    r = y - Phi @ x
    if md is None:
        if gauge is None or np.linalg.norm(x) > 0:
            raise ValueError("need md, or gauge together with x = 0")
        pol = gauge.polar(Phi.T @ r / lam)
        if pol < 1.0 - strict_margin:
            return UNIQUE_OPTIMAL if Phi.shape[1] <= np.linalg.matrix_rank(Phi) \
                else OPTIMAL_MAYBE_NONUNIQUE
        if pol <= 1.0 + strict_margin:
            return OPTIMAL_MAYBE_NONUNIQUE
        return NOT_OPTIMAL
    scale = (1.0 + lam) * (1.0 + np.max(np.abs(md.e), initial=0.0))
    eq_res = np.max(np.abs(md.T.coords(Phi.T @ r) - lam * md.T.coords(md.e)),
                    initial=0.0)
    if eq_res > eq_tol * scale:
        return NOT_OPTIMAL
    slack = md.antig.value(md.S.project(Phi.T @ r / lam - md.f))
    # the inequality side is accepted at the measurement tolerance; the
    # strict margin only gates the uniqueness claim
    if slack > 1.0 + eq_tol:
        return NOT_OPTIMAL
    if slack < 1.0 - strict_margin and restricted_injectivity(Phi, md.T):
        return UNIQUE_OPTIMAL
    return OPTIMAL_MAYBE_NONUNIQUE


def check_noiseless_optimality(Phi, y, x, md, feas_tol=1e-8,
                               strict_margin=1e-9, slack_tol=1e-7):
    """First-order classification of x for the equality-constrained problem.

    Tries the minimal-norm dual vector first; if that certificate is not
    strictly inside, searches the whole dual affine set (by LP for
    support-form subdifferential gauges, by SLSQP for block-norm ones).
    ``slack_tol`` accepts the inequality side; ``strict_margin`` gates the
    uniqueness claim.
    """
    Phi = check_finite(Phi, "Phi")
    y = check_finite(y, "y")
    x = check_finite(x, "x")
    if np.linalg.norm(Phi @ x - y) > feas_tol * (1.0 + np.linalg.norm(y)):
        raise ValueError("x is not feasible for the equality constraint")
    M = Phi @ md.T.basis
    svd = RankedSvd(M)
    target = md.T.coords(md.e)
    alpha = svd.solve_adjoint(target)
    if np.linalg.norm(M.T @ alpha - target) > 1e-8 * (1.0 + np.linalg.norm(target)):
        return NOT_OPTIMAL  # e not reachable: no dual vector at all
    cert_ok = svd.injective
    a = md.antig.value(md.S.project(Phi.T @ alpha - md.f))
    if a < 1.0 - strict_margin:
        return UNIQUE_OPTIMAL if cert_ok else OPTIMAL_MAYBE_NONUNIQUE
    best = _min_antig_over_duals(Phi, md, M, alpha, svd.adjoint_kernel())
    if best is None:
        if a <= 1.0 + slack_tol:
            return OPTIMAL_MAYBE_NONUNIQUE
        return NOT_OPTIMAL
    if best < 1.0 - strict_margin:
        return UNIQUE_OPTIMAL if cert_ok else OPTIMAL_MAYBE_NONUNIQUE
    if best <= 1.0 + slack_tol:
        return OPTIMAL_MAYBE_NONUNIQUE
    return NOT_OPTIMAL


def _min_antig_over_duals(Phi, md, M, alpha0, N):
    """min over alpha with Phi_T^* alpha = e of antig(P_S(Phi^* alpha - f)),
    where M = Phi_T, alpha0 is one such alpha and N a basis of Ker(M^T).

    Over alpha = alpha0 + N w, a support-form gauge is evaluated at w = 0
    with the extra free directions atoms P_S Phi^* N (one LP); block-norm
    gauges are minimized by SLSQP; None otherwise.
    """
    target = md.T.coords(md.e)
    PS = md.S.basis @ md.S.basis.T
    shift = PS @ md.f
    antig = md.antig
    if antig.atoms is not None:
        extra = antig.atoms @ PS @ Phi.T @ N
        lifted = SubdiffGauge(md.S, atoms=antig.atoms,
                              lift=np.hstack([extra, antig.lift]))
        return lifted.value(PS @ (Phi.T @ alpha0) - shift)
    blocks = antig.linf2_blocks
    if blocks is None:
        return None
    from scipy.optimize import minimize

    def cost(alpha):
        v = PS @ (Phi.T @ alpha) - shift
        return max((np.linalg.norm(v[b]) for b in blocks), default=0.0)

    cons = {"type": "eq", "fun": lambda a: M.T @ a - target}
    res = minimize(cost, alpha0, method="SLSQP", constraints=[cons],
                   options={"maxiter": 500, "ftol": 1e-12})
    return float(res.fun) if res.success else None


def nsp_falsify(Phi, md, samples=10000, seed=0):
    """Search kernel directions violating the strong null-space property.

    Samples unit directions of Ker(Phi) (both signs) and tests the
    directional derivative; a nonpositive value exhibits a violation.  A
    ``no_violation_found`` outcome is evidence, not a certificate.
    Returns (found: bool, delta or None).
    """
    Phi = check_finite(Phi, "Phi")
    K = null_space(Phi)
    if K.shape[1] == 0:
        return False, None
    rng = np.random.default_rng(seed)
    tol = 1e-12
    for _ in range(samples):
        z = rng.standard_normal(K.shape[1])
        nz = np.linalg.norm(z)
        if nz == 0.0:
            continue
        delta = K @ (z / nz)
        if directional_derivative(md, delta) <= tol:
            return True, delta
        if directional_derivative(md, -delta) <= tol:
            return True, -delta
    return False, None


def phi_fn(u):
    """sqrt(1+u) - 1."""
    return np.sqrt(1.0 + u) - 1.0


def h_fn(beta, e_t):
    """(beta + 1/2) / (E_T beta) * phi(2 beta / (beta+1)^2)."""
    return (beta + 0.5) / (e_t * beta) * phi_fn(2.0 * beta / (beta + 1.0) ** 2)


class StabilityConstants:
    """Constants certifying a regularization range for model selection.

    Operator-bound inputs: c1 = A = |(Phi_T^* Phi_T)^{-1}|_{G->G} *
    |Phi_T^*|_{l2->G}, c2 = B = Gamma(e) |(Phi_T^* Phi_T)^{-1}|_{G->G},
    c3 = |-Phi_S^* Phi_T^{+,*}|_{G->antig}, c4 = |Phi_S^* Q_T|_{l2->antig}
    with Q_T the projector onto Ker(Phi_T^*).  Derived: A_T = 2 c4,
    B_T = (A/(2 c4) + B)^{-1}, D_T = c3, E_T = c1/c4 + 2 c2, and C_x0 built
    from H and phi; C_x0 = +inf when xi = 0 and mu*c3 + tau = 0.

    Which constants an upper bound keeps conservative, read off the
    formulas above: raising c1, c2 or c3 can only shrink B_T and C_x0
    (H decreases in mu_bar/xi and in E_T), hence lambda_max; raising mu,
    tau or xi, or lowering nu, does the same, which is what a certified
    upper bound inside ``psfl_*`` does.  c4 is not one of them: it raises
    lambda_min through A_T but enlarges B_T and lowers E_T, which divide
    by it, so an upper bound on c4 can widen the range.  ``exact`` stays
    strict: every bound must be exact.
    """

    def __init__(self, c1, c2, c3, c4, ic_value, nu, mu, tau, xi, exact):
        self.c1, self.c2, self.c3, self.c4 = c1, c2, c3, c4
        self.A, self.B = c1, c2
        self.ic_value = ic_value
        self.nu, self.mu, self.tau, self.xi = nu, mu, tau, xi
        self.exact = exact
        self.mu_bar = mu * c3 + tau
        self.A_T = 2.0 * c4
        self.D_T = c3
        if c4 > 0:
            self.B_T = 1.0 / (c1 / (2.0 * c4) + c2) if (c1 > 0 or c2 > 0) else np.inf
            self.E_T = c1 / c4 + 2.0 * c2
        else:
            self.B_T = (1.0 / c2) if c2 > 0 else np.inf
            self.E_T = np.inf
        self.C_x0 = self._c_x0()
        one_m_ic = 1.0 - ic_value
        self.lambda_min_per_noise = (self.A_T / one_m_ic) if one_m_ic > 0 else np.inf
        self.lambda_max = nu * min(self.B_T, self.C_x0)
        if one_m_ic > 0 and np.isfinite(self.lambda_max) and self.A_T > 0:
            self.noise_budget = one_m_ic * self.lambda_max / self.A_T
        elif self.A_T == 0 and one_m_ic > 0:
            self.noise_budget = nu / (2.0 * c1) if c1 > 0 else np.inf
        else:
            self.noise_budget = 0.0

    def _c_x0(self):
        one_m_ic = 1.0 - self.ic_value
        if one_m_ic <= 0 or self.nu <= 0:
            return 0.0
        if self.xi > 0:
            if self.mu_bar <= 0 or not np.isfinite(self.E_T):
                return np.inf
            return one_m_ic / (self.xi * self.nu) * h_fn(self.mu_bar / self.xi,
                                                         self.E_T)
        if self.mu_bar > 0 and np.isfinite(self.E_T):
            # xi -> 0 limit of the quadratic range: linear-root cap
            return one_m_ic / (self.E_T * self.mu_bar * self.nu)
        return np.inf

    def lambda_range(self, noise_norm):
        """Certified [lo, hi] for the given noise norm; empty -> (nan, nan)."""
        lo = self.lambda_min_per_noise * noise_norm
        hi = self.lambda_max
        if self.A_T == 0 and self.c1 > 0:
            hi = min(hi, (self.nu - self.c1 * noise_norm) / self.c2) \
                if self.c2 > 0 else hi
        if not np.isfinite(lo) or lo > hi:
            return float("nan"), float("nan")
        return float(lo), float(hi)

    def to_json_dict(self):
        keys = ("c1", "c2", "c3", "c4", "A_T", "B_T", "D_T", "E_T", "C_x0",
                "ic_value", "nu", "lambda_min_per_noise", "lambda_max",
                "noise_budget")
        out = {k: float(getattr(self, k)) for k in keys}
        out["exact"] = bool(self.exact)
        return out


def stability_constants(Phi, md, p):
    """Operator-bound constants of the model-selection guarantee.

    Each bound is exact or a certified upper bound, never sampled.  All
    four bounds, the subdifferential gauge and the stability parameters
    ``p`` must be exact for the lambda range to be certified; otherwise
    ``exact`` is False and downstream consumers must treat the range as
    advisory.

    Phi_T = M is factored once, M = U_M diag(s) V^T: the same SVD gives IC
    as ``irrepresentability`` computes it, the injectivity verdict,
    (M^T M)^{-1} = V diag(s^-2) V^T and Q_T = I - U_M U_M^T.
    """
    Phi = check_finite(Phi, "Phi")
    Q = Phi.shape[0]
    U = md.T.basis
    M = Phi @ U
    svd = RankedSvd(M)
    ic = float(_ic(Phi, md, svd)[1])
    G = (svd.Vt.T / svd.s ** 2) @ svd.Vt
    gamma = p.gamma
    l2_in = L2(Q)

    if md.S.dim == 0:
        zero = OperatorBound(0.0, OperatorBound.EXACT_CLOSED_FORM)
        b3 = b4 = zero
    else:
        W3 = -(md.S.basis @ md.S.basis.T) @ Phi.T @ M @ G @ U.T
        b3 = operator_bound(W3, gamma, md.antig, domain=md.T)
        UM = svd.U[:, :svd.rank]
        Q_T = np.eye(Q) - UM @ UM.T
        W4 = (md.S.basis @ md.S.basis.T) @ Phi.T @ Q_T
        b4 = operator_bound(W4, l2_in, md.antig)
    if md.T.dim == 0:
        b1a = b1b = OperatorBound(0.0, OperatorBound.EXACT_CLOSED_FORM)
    else:
        W1 = U @ G @ U.T
        b1a = operator_bound(W1, gamma, gamma, domain=md.T)
        b1b = operator_bound(U @ U.T @ Phi.T, l2_in, gamma)
    alpha1 = gamma.value(md.e)
    c1 = b1a.value * b1b.value
    c2 = alpha1 * b1a.value
    exact = (all(b.exact for b in (b1a, b1b, b3, b4)) and md.antig.exact
             and p.exact)
    return StabilityConstants(c1, c2, b3.value, b4.value, ic, p.nu, p.mu,
                              p.tau, p.xi, exact)
