"""Model decomposition of supported regularizers.

For a regularizer J and a point x this module produces the quadruple
(T, S, e, f) together with an exact evaluator of the gauge of the shifted
subdifferential ``partial J(x) - f`` (finite exactly on S), the calculus
rules that combine decompositions (sums and pre-composition by a linear
operator), and the local stability parameters (nu, mu, tau, xi) with their
comparison gauge, which every decomposition carries as ``params``.

A subdifferential gauge has one encoding: support atoms, possibly with free
directions (a lift), block norms, or an approximate evaluator for the
calculus rules over block-norm parts.  The exact results of the sum and
pre-composition rules are atoms with a lift, so every polyhedral gauge is
evaluated the same way.  Its unit ball is derived from unlifted atoms when
first asked for.

``SubdiffGauge`` is a ``Gauge``: ``values(X)`` tests every row of X for
S-membership at once (+inf off S) and evaluates the rows on S in one pass,
or by one LP per row with a lift.
"""

import functools

import numpy as np

from .linalg import Subspace, check_finite, null_space, svd_pinv
from .lp import lp_min_max, LpNumericalError, OPTIMAL
from . import linalg
from .gauges import (Gauge, L1, L2, Linf, GroupL1L2, PositivePartMax,
                     Precomposed, SumGauge, MaxGauge, BlockPartition,
                     UnsupportedGaugeError, _section_vertices, check_rows,
                     block_membership)

SUPPORT_TOL = 1e-10       # relative threshold for "entry is nonzero"
SATURATION_TOL = 1e-9     # relative threshold for "entry attains the max"
MEMBERSHIP_BAND = 1e-8    # half-width of the boundary band in classification


class DegenerateModelError(ValueError):
    """Raised when a decomposition is requested at an excluded point."""


class GroupLinf2(Gauge):
    """Blockwise max of Euclidean block norms (polar of the group l1-l2)."""

    def __init__(self, partition):
        super().__init__(partition.n)
        self.partition = partition
        self.linf2_blocks = [np.asarray(b, dtype=int) for b in partition]

    def values(self, X):
        X = check_rows(X, self.dim)
        return self.partition.row_norms(X).max(axis=1, initial=0.0)

    def polar(self, u):
        return float(self.partition.norms(self._check(u)).sum())


class SubdiffGauge(Gauge):
    """Gauge of the shifted subdifferential; finite exactly on S.

    Exactly one encoding is given:

    - support ``atoms`` A with free directions ``lift`` G (one row per atom;
      no columns when omitted): value(v) = min_w max(0, max_j (A v + G w)_j)
      for v in S, the plain max of the atoms without a lift and one
      ``lp.lp_min_max`` with one;
    - ``linf2_blocks``, with value(v) = max_b ||v_b||;
    - an opaque ``value_fn``, left to the numerical fallbacks of the
      calculus rules over block-norm parts.

    The unit ball is derived from unlifted atoms on first request and
    cached; the other encodings have none.  ``exact`` records whether the
    evaluation is closed form / LP-backed (True) or a numerical fallback.
    """

    def __init__(self, S, atoms=None, lift=None, linf2_blocks=None,
                 value_fn=None, exact=True):
        if sum(a is not None for a in (atoms, linf2_blocks, value_fn)) != 1:
            raise ValueError(
                "give exactly one of atoms, linf2_blocks, value_fn")
        super().__init__(S.ambient_dim)
        self.S = S
        self.atoms = None if atoms is None else np.asarray(atoms, dtype=float)
        if atoms is not None and lift is None:
            lift = np.zeros((len(self.atoms), 0))
        self.lift = lift
        self.linf2_blocks = linf2_blocks
        self._value_fn = value_fn
        self.exact = exact

    def values(self, X):
        """The gauge of every row of X, +inf off S."""
        X = check_rows(X, self.dim)
        on_S = self.S.contains_rows(X)
        every = np.count_nonzero(on_S) == len(X)
        Y = X if every else X[on_S]
        if self._value_fn is not None:
            vals = [float(self._value_fn(y)) for y in Y]
        elif self.atoms is not None and self.lift.shape[1]:
            vals = [self._lifted_value(y) for y in Y]
        elif self.atoms is not None:
            vals = Y.dot(self.atoms.T).max(axis=1, initial=0.0)
        else:
            vals = np.sqrt((Y * Y).dot(self._block_member)).max(axis=1,
                                                                 initial=0.0)
        if every:
            return np.asarray(vals, dtype=float)
        out = np.full(len(X), np.inf)
        out[on_S] = vals
        return out

    @functools.cached_property
    def _block_member(self):
        return block_membership(self.linf2_blocks, self.dim)

    def _lifted_value(self, eta):
        res = lp_min_max(self.atoms @ eta, self.lift)
        if res.status != OPTIMAL:
            # always feasible and bounded below by 0: numerical trouble
            raise LpNumericalError(
                f"lifted gauge LP ended with status {res.status}")
        # max(0.0, v) and not max(v, 0.0): an LP value of -0.0 must give +0.0
        return max(0.0, float(res.value))

    def support_atoms(self):
        """Rows w with value(v) = max(0, max_j <w_j, v>) on S, or None."""
        if self.atoms is None or self.lift.shape[1]:
            return None
        return self.atoms

    def unlifted(self):
        """The atoms without free directions: at w = 0 the lifted value can
        only rise, so this gauge bounds a lifted one from above."""
        return SubdiffGauge(self.S, atoms=self.atoms)

    @functools.cached_property
    def _ball(self):
        return _section_vertices((self.atoms, np.ones(len(self.atoms))),
                                 self.dim, self.S)

    def ball_vertices(self, domain=None):
        """Vertices of {v in S : value(v) <= 1}, or None without unlifted
        atoms or when S is too large to enumerate."""
        if self.support_atoms() is None:
            return None
        verts = self._ball
        if verts is None or domain is None:
            return verts
        if domain.contains_rows(verts).all():
            return verts
        return None


class PsflParams:
    """Local stability parameters and the comparison gauge they refer to."""

    def __init__(self, nu, mu, tau, xi, gamma, exact=True):
        self.nu = float(nu)
        self.mu = float(mu)
        self.tau = float(tau)
        self.xi = float(xi)
        self.gamma = gamma
        self.exact = bool(exact)

    def __repr__(self):
        return (f"PsflParams(nu={self.nu:.6g}, mu={self.mu:.6g}, "
                f"tau={self.tau:.6g}, xi={self.xi:.6g})")


class ModelDecomposition:
    """(T, S, e, f) plus the subdifferential-gauge evaluator at a point x."""

    def __init__(self, gauge, x, T, S, e, f, antig, polar_fn=None,
                 params=None, _skip_checks=False):
        self.gauge = gauge
        self.x = np.asarray(x, dtype=float)
        self.T = T
        self.S = S
        self.e = np.asarray(e, dtype=float)
        self.f = np.asarray(f, dtype=float)
        self.antig = antig
        self._polar_fn = polar_fn
        self._params = params
        self._phi_t = None      # the certificates' memo, ``certificates._phi_t``
        if not _skip_checks:
            self._validate()

    def _validate(self):
        n = self.T.ambient_dim
        if self.T.dim + self.S.dim != n:
            raise ValueError("dim T + dim S must equal the ambient dimension")
        if self.T.dim and self.S.dim:
            cross = np.abs(self.T.basis.T @ self.S.basis).max()
            if cross > 1e-8:
                raise ValueError("T and S are not orthogonal")
        scale = 1.0 + np.linalg.norm(self.e)
        if np.linalg.norm(self.T.project(self.e) - self.e) > 1e-8 * scale:
            raise ValueError("e does not lie in T")
        if np.linalg.norm(self.T.project(self.f) - self.e) > 1e-8 * scale:
            raise ValueError("the T-part of f must equal e")
        if np.linalg.norm(self.T.project(self.x) - self.x) > \
                1e-8 * (1.0 + np.linalg.norm(self.x)):
            raise ValueError("anchor point does not lie in its model subspace")

    @property
    def ambient_dim(self):
        return self.T.ambient_dim

    @functools.cached_property
    def params(self):
        """The stability parameters at x, a ``PsflParams``.

        A calculus rule passes a function of the decomposition that derives
        them from its parts' parameters; it runs on the first read and its
        result is cached.  It may raise ``linalg.NoBoundRouteError``."""
        p = self._params
        if p is None:
            raise UnsupportedGaugeError(
                "no stability parameters for this decomposition")
        return p(self) if callable(p) else p

    def antig_polar(self, d):
        """Polar of the subdifferential gauge: J(d_S) - <P_S f, d_S>."""
        d = np.asarray(d, dtype=float)
        dS = self.S.project(d)
        if self._polar_fn is not None:
            return self._polar_fn(dS)
        fS = self.S.project(self.f)
        return self.gauge.value(dS) - float(fS @ dS)

    def __repr__(self):
        return (f"ModelDecomposition(dim={self.ambient_dim}, "
                f"dim_T={self.T.dim}, J={type(self.gauge).__name__})")


# ---------------------------------------------------------------------------
# concrete regularizers
# ---------------------------------------------------------------------------

def support_mask(x):
    """Whether each entry of x exceeds SUPPORT_TOL relative to its largest
    absolute value."""
    a = np.abs(np.asarray(x, dtype=float))
    return a > SUPPORT_TOL * (1.0 + np.max(a, initial=0.0))


def saturation_indices(x):
    """Indices, ascending, of the entries of x within SATURATION_TOL of its
    largest absolute value."""
    a = np.abs(np.asarray(x, dtype=float))
    return np.flatnonzero(a >= np.max(a) * (1.0 - SATURATION_TOL))


def _check_delta(delta):
    """delta, the share of the model gap that nu = (1 - delta) * gap gives
    up, must be finite and in [0, 1)."""
    if not (np.isfinite(delta) and 0.0 <= delta < 1.0):
        raise ValueError(f"delta must be finite and in [0, 1), got {delta!r}")


def decompose_l1(x, delta=0.5):
    """Decomposition of the absolute-sum regularizer at x."""
    _check_delta(delta)
    x = check_finite(x, "x")
    n = x.shape[0]
    on = support_mask(x)
    I, Ic = np.flatnonzero(on), np.flatnonzero(~on)
    T = Subspace.coordinate(n, I)
    S = Subspace.coordinate(n, Ic)
    e = np.zeros(n)
    e[I] = np.sign(x[I])
    # the atoms +-e_i, i off the support, in that order
    atoms = np.zeros((2 * Ic.size, n))
    rows = 2 * np.arange(Ic.size)
    atoms[rows, Ic] = 1.0
    atoms[rows + 1, Ic] = -1.0
    antig = SubdiffGauge(S, atoms=atoms)
    nu = (1.0 - delta) * np.min(np.abs(x[I])) if I.size else 0.0
    p = PsflParams(nu, 0.0, 0.0, 0.0, Linf(n))
    return ModelDecomposition(L1(n), x, T, S, e, e.copy(), antig,
                              params=p), p


def decompose_l2(x, delta=0.5):
    """Decomposition of the Euclidean norm at x: the group rule with one
    block, so T = R^n, S = {0}, e = f = x / ||x|| where the norm is smooth
    (x off the support threshold) and T = {0}, S = R^n with the Euclidean
    norm as subdifferential gauge at x = 0."""
    x = check_finite(x, "x")
    n = x.shape[0]
    md, p = decompose_group(x, BlockPartition([range(n)], n), delta=delta)
    return ModelDecomposition(L2(n), x, md.T, md.S, md.e, md.f, md.antig,
                              params=p, _skip_checks=True), p


def _saturation_model(s, I):
    """(T, S, e, antig) of a max-type regularizer saturated on I with signs s.

    S = {eta : eta off I is 0, <eta_I, s_I> = 0}, e = s / |I| and
    antig(eta) = max_i (-|I| s_i eta_i)_+ over i in I.
    """
    n = s.shape[0]
    k = len(I)
    SB = np.zeros((n, k - 1))
    SB[I, :] = null_space(s[I][None, :])
    S = Subspace(SB, _skip_checks=True)
    TB = np.zeros((n, n - k + 1))
    TB[I, 0] = s[I] / np.sqrt(k)
    off = np.ones(n, dtype=bool)
    off[I] = False
    TB[off, 1:] = np.eye(n - k)
    T = Subspace(TB, _skip_checks=True)
    atoms = np.zeros((k + 1, n))
    atoms[np.arange(k), I] = -k * s[I]
    return T, S, s / k, SubdiffGauge(S, atoms=atoms)


def decompose_linf(x, delta=0.5):
    """Decomposition of the max-abs regularizer at x != 0."""
    _check_delta(delta)
    x = check_finite(x, "x")
    n = x.shape[0]
    if np.max(np.abs(x), initial=0.0) <= 0.0:
        raise DegenerateModelError(
            "the max-abs regularizer is degenerate at x = 0 (T = {0})")
    I = saturation_indices(x)
    s = np.zeros(n)
    s[I] = np.sign(x[I])
    T, S, e, antig = _saturation_model(s, I)
    a = np.abs(x)
    top = np.max(a)
    a[I] = 0.0   # the largest entry off I, 0 when there is none
    gap = top - np.max(a)
    nu = (1.0 - delta) * gap
    p = PsflParams(nu, 0.0, 0.0, 0.0, L1(n))
    return ModelDecomposition(Linf(n), x, T, S, e, e.copy(), antig,
                              params=p), p


def decompose_group(x, partition, delta=0.5):
    """Decomposition of the group l1-l2 regularizer at x."""
    _check_delta(delta)
    x = check_finite(x, "x")
    n = x.shape[0]
    if partition.n != n:
        raise ValueError("partition does not match the vector length")
    thr = SUPPORT_TOL * (1.0 + np.max(np.abs(x), initial=0.0))
    active = [b for b in partition if np.linalg.norm(x[b]) > thr]
    inactive = [b for b in partition if np.linalg.norm(x[b]) <= thr]
    act_idx = sorted(int(i) for b in active for i in b)
    ina_idx = sorted(int(i) for b in inactive for i in b)
    T = Subspace.coordinate(n, act_idx)
    S = Subspace.coordinate(n, ina_idx)
    e = np.zeros(n)
    for b in active:
        e[b] = x[b] / np.linalg.norm(x[b])
    antig = SubdiffGauge(S, linf2_blocks=[np.asarray(b) for b in inactive])
    if active:
        nu = (1.0 - delta) * min(np.linalg.norm(x[b]) for b in active)
        mu = np.sqrt(2.0) / nu if nu > 0 else 0.0
    else:
        nu, mu = 0.0, 0.0
    p = PsflParams(nu, mu, 0.0, 0.0, GroupLinf2(partition))
    return ModelDecomposition(GroupL1L2(partition), x, T, S, e, e.copy(),
                              antig, params=p), p


def decompose_polyhedral(u, mu_choice=0.5, delta=0.5):
    """Decomposition of u -> max_i (u_i)_+ on the analysis domain.

    ``mu_choice`` in (0,1) fixes the anchor subgradient of the all-nonpositive
    branch at f = (mu_choice/|I0|) * sum of active coordinate vectors; the
    scaling by |I0| keeps f in the relative interior of the subdifferential.
    """
    _check_delta(delta)
    u = check_finite(u, "u")
    if not 0.0 < mu_choice < 1.0:
        raise ValueError("mu_choice must lie in (0, 1)")
    T, S, e, f, antig, gap = _polyhedral_model(u, mu_choice)
    p = PsflParams((1.0 - delta) * gap, 0.0, 0.0, 0.0, L1(len(u)))
    return ModelDecomposition(PositivePartMax(len(u)), u, T, S, e, f, antig,
                              params=p), p


def _polyhedral_model(u, mu_choice):
    """(T, S, e, f, antig) of u -> max_i (u_i)_+ at u, and the gap that
    sets nu."""
    p = u.shape[0]
    top = np.max(u, initial=-np.inf)
    # entries within thr of zero are zero, in both branches
    thr = SUPPORT_TOL * (1.0 + np.max(np.abs(u), initial=0.0))
    if top > thr:
        sat = u >= top * (1.0 - SATURATION_TOL)
        s = sat.astype(float)
        T, S, e, antig = _saturation_model(s, np.flatnonzero(sat))
        # the largest positive entry off the saturated set, else 0
        below = np.max(u[~sat], initial=0.0)
        return T, S, e, e.copy(), antig, top - below

    # all entries nonpositive; active set I0 = {i : u_i = 0}
    act = u >= -thr
    I0, Ic = np.flatnonzero(act), np.flatnonzero(~act)
    if not I0.size:
        # smooth point: subdifferential is {0}
        S = Subspace.zero(p)
        antig = SubdiffGauge(S, atoms=np.zeros((1, p)))
        return (Subspace.full(p), S, np.zeros(p), np.zeros(p), antig,
                float(np.min(-u)))
    k = I0.size
    mu_eff = mu_choice / k
    S = Subspace.coordinate(p, I0)
    T = Subspace.coordinate(p, Ic)
    f = np.zeros(p)
    f[I0] = mu_eff
    denom = 1.0 - mu_choice        # = 1 - mu_eff * k
    atoms = np.zeros((k + 2, p))
    atoms[np.arange(k), I0] = -1.0 / mu_eff
    atoms[k, I0] = 1.0 / denom
    antig = SubdiffGauge(S, atoms=atoms)
    return T, S, np.zeros(p), f, antig, np.min(-u[Ic]) if Ic.size else 0.0


# ---------------------------------------------------------------------------
# calculus rules
# ---------------------------------------------------------------------------

def precompose(md0, D, x):
    """Decomposition of J = J0(D^T .) at x from the one of J0 at u = D^T x.

    Its ``params`` are ``psfl_precompose`` of md0's, on first read."""
    D = check_finite(D, "D")
    x = check_finite(x, "x")
    n, p = D.shape
    if md0.ambient_dim != p:
        raise ValueError("analysis decomposition dimension mismatch")
    u = D.T @ x
    if np.linalg.norm(u - md0.x) > 1e-8 * (1.0 + np.linalg.norm(u)):
        raise ValueError("md0 is not anchored at D^T x")
    B0 = md0.S.basis
    DS = D @ B0           # n x dim(S0) (the S0-restricted analysis operator)
    # B0 is orthonormal: DS's rank is judged on the scale of D, where a DS of
    # round-off (H (e_1 - e_3) / sqrt(2) for equal columns of H) has rank 0
    top = np.linalg.norm(D, 2)
    T = Subspace(null_space(DS.T, top), _skip_checks=True)
    S = T.complement()
    e = T.project(D @ md0.e)
    f = D @ md0.f
    DS_pinv = B0 @ svd_pinv(DS, top)       # maps R^n into S0 coordinates of R^p
    Z = B0 @ null_space(DS, top)           # basis of Ker(D_{S0}) within S0

    base = md0.antig
    if base.atoms is not None:
        # eta = D_{S0} q over q = DS_pinv eta + Z w, w free
        antig = SubdiffGauge(S, atoms=base.atoms @ DS_pinv,
                             lift=np.hstack([base.atoms @ Z, base.lift]))
    else:

        def value_fn(eta):
            return _min_over_affine(base.value, DS_pinv @ eta, Z)

        # without a kernel the fallback is a plain evaluation of the base
        antig = SubdiffGauge(S, value_fn=value_fn,
                             exact=base.exact and Z.shape[1] == 0)
    gauge = Precomposed(md0.gauge, D.T)

    def polar_fn(dS):
        return md0.antig_polar(D.T @ dS)

    return ModelDecomposition(
        gauge, x, T, S, e, f, antig, polar_fn=polar_fn,
        params=lambda md: psfl_precompose(md0.params, D, md0, md))


def _min_over_affine(fn, q, Z, iters=400):
    """Nelder-Mead fallback for min_w fn(q + Z w)."""
    if Z.shape[1] == 0:
        return float(fn(q))
    from scipy.optimize import minimize
    res = minimize(lambda w: fn(q + Z @ w), np.zeros(Z.shape[1]),
                   method="Nelder-Mead",
                   options={"maxiter": iters * Z.shape[1], "xatol": 1e-10,
                            "fatol": 1e-12})
    return float(res.fun)


def sum_decompositions(mdJ, mdG):
    """Decomposition of J + G from the decompositions of J and G at x.

    Its ``params`` are ``psfl_sum`` of the parts', on first read."""
    if mdJ.ambient_dim != mdG.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = mdJ.ambient_dim
    T = mdJ.T.intersection(mdG.T)
    S = T.complement()
    e = T.project(mdJ.e + mdG.e)
    f = mdJ.f + mdG.f
    BJ, BG = mdJ.S.basis, mdG.S.basis
    # the least-squares split eta = L eta + (I - L) eta over S_J + S_G; the
    # split's degrees of freedom are W, a basis of S_J ∩ S_G
    L = BJ @ svd_pinv(np.hstack([BJ, BG]))[:BJ.shape[1]]
    W = mdJ.S.intersection(mdG.S).basis
    aJ, aG = mdJ.antig, mdG.antig

    if aJ.atoms is not None and aG.atoms is not None:
        nJ, nG = len(aJ.atoms), len(aG.atoms)
        lift = np.block([
            [aJ.atoms @ W, aJ.lift, np.zeros((nJ, aG.lift.shape[1]))],
            [-(aG.atoms @ W), np.zeros((nG, aJ.lift.shape[1])), aG.lift]])
        antig = SubdiffGauge(
            S, atoms=np.vstack([aJ.atoms @ L, aG.atoms @ (np.eye(n) - L)]),
            lift=lift)
    else:

        def value_fn(eta):
            # min over splits v = L eta + W w of the larger part gauge
            return _min_over_affine(
                lambda v: max(aJ.value(mdJ.S.project(v)),
                              aG.value(mdG.S.project(eta - v))), L @ eta, W)

        antig = SubdiffGauge(S, value_fn=value_fn, exact=False)
    gauge = SumGauge([mdJ.gauge, mdG.gauge])

    def polar_fn(dS):
        return mdJ.antig_polar(dS) + mdG.antig_polar(dS)

    return ModelDecomposition(
        gauge, mdJ.x, T, S, e, f, antig, polar_fn=polar_fn,
        params=lambda md: psfl_sum(mdJ.params, mdG.params, mdJ, mdG, md))


# ---------------------------------------------------------------------------
# membership and derivatives
# ---------------------------------------------------------------------------

INTERIOR, BOUNDARY, OUTSIDE = "interior", "boundary", "outside"


def subdiff_membership(md, eta, band=MEMBERSHIP_BAND):
    """Classify eta against the subdifferential at md.x.

    interior / boundary / outside per the decomposability description:
    the T-part must equal e, and the subdifferential gauge of the shifted
    S-part decides strict interiority.
    """
    eta = check_finite(eta, "eta")
    scale = 1.0 + np.max(np.abs(md.e), initial=0.0)
    if np.max(np.abs(md.T.project(eta) - md.e), initial=0.0) > band * scale:
        return OUTSIDE
    a = md.antig.value(md.S.project(eta - md.f))
    if a < 1.0 - band:
        return INTERIOR
    if a <= 1.0 + band:
        return BOUNDARY
    return OUTSIDE


def directional_derivative(md, delta):
    """One-sided derivative of the regularizer at md.x in direction delta."""
    delta = check_finite(delta, "delta")
    dT = md.T.project(delta)
    dS = md.S.project(delta)
    fS = md.S.project(md.f)
    return float(md.e @ dT) + float(fS @ dS) + md.antig_polar(delta)


# ---------------------------------------------------------------------------
# stability-parameter calculus
# ---------------------------------------------------------------------------

def psfl_sum(pJ, pG, mdJ, mdG, mdH):
    """Stability parameters of J + G from those of the summands.

    mu and tau grow with the operator bounds, so a certified upper bound
    keeps them conservative; the result is tagged exact only when every
    bound is.
    """
    gamma = _merge_gamma(pJ.gamma, pG.gamma)
    nu = min(pJ.nu, pG.nu)
    xi = max(pJ.xi, pG.xi)
    exact = pJ.exact and pG.exact
    mu = 0.0
    tau = pJ.tau + pG.tau
    if pJ.mu > 0.0 or pG.mu > 0.0:
        PT = mdH.T.basis @ mdH.T.basis.T
        bJ = linalg.operator_bound(PT, pJ.gamma, gamma)
        bG = linalg.operator_bound(PT, pG.gamma, gamma)
        mu = pJ.mu * bJ.value + pG.mu * bG.value
        SJ = mdH.S.intersection(mdJ.T)
        SG = mdH.S.intersection(mdG.T)
        prJ = SJ.basis @ SJ.basis.T
        prG = SG.basis @ SG.basis.T
        tJ = linalg.operator_bound(prJ, pJ.gamma, mdH.antig)
        tG = linalg.operator_bound(prG, pG.gamma, mdH.antig)
        tau += pJ.mu * tJ.value + pG.mu * tG.value
        exact = exact and all(b.exact for b in (bJ, bG, tJ, tG))
    return PsflParams(nu, mu, tau, xi, gamma, exact=exact)


def psfl_precompose(p0, D, md0, md, gamma=None):
    """Stability parameters of J0(D^T .) from those of J0 at D^T x.

    nu = nu0 / ||D^T|| shrinks and mu, tau, xi grow with the operator
    bounds, so certified upper bounds keep all four conservative; the
    result is tagged exact only when every bound is.
    """
    n = D.shape[0]
    if gamma is None:
        gamma = Linf(n)
    nD = linalg.operator_bound(D.T, gamma, p0.gamma)
    exact = p0.exact and nD.exact
    if nD.value == 0.0 or not np.isfinite(nD.value):
        raise ValueError("comparison-gauge bound of D^T is degenerate")
    nu = p0.nu / nD.value
    mu = tau = xi = 0.0
    if p0.mu > 0.0 or p0.tau > 0.0 or p0.xi > 0.0:
        PT = md.T.basis @ md.T.basis.T
        b_mu = linalg.operator_bound(PT @ D, p0.gamma, gamma)
        mu = p0.mu * b_mu.value * nD.value
        B0 = md0.S.basis
        DS_pinv = B0 @ svd_pinv(D @ B0, np.linalg.norm(D, 2))
        PS = md.S.basis @ md.S.basis.T
        M = DS_pinv @ PS @ D
        b_t1 = linalg.operator_bound(M, md0.antig, md0.antig)
        b_t2 = linalg.operator_bound(M, p0.gamma, md0.antig)
        tau = (p0.tau * b_t1.value + p0.mu * b_t2.value) * nD.value
        xi = p0.xi * nD.value
        exact = exact and b_mu.exact and b_t1.exact and b_t2.exact
    return PsflParams(nu, mu, tau, xi, gamma, exact=exact)


def _merge_gamma(g1, g2):
    if g1 is g2:
        return g1
    if type(g1) is type(g2) and g1.dim == g2.dim and not isinstance(
            g1, (GroupL1L2, GroupLinf2, Precomposed)):
        return g1
    return MaxGauge([g1, g2])


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def decompose(gauge, x, delta=0.5):
    """Model decomposition of any supported regularizer kind at x.

    The result carries the stability parameters as ``md.params``.  The
    per-kind decomposers compute them with the model at a few flops' cost.
    ``Precomposed`` (``PolyhedralH`` among them) derives them by
    ``psfl_precompose`` and ``SumGauge`` by ``psfl_sum`` folded left over
    its parts, and these run on the first read of ``md.params`` only:
    their operator bounds can cost more than the decomposition and may have
    no route (reading then raises ``linalg.NoBoundRouteError``).
    ``decompose`` itself never computes an operator bound, so the solvers'
    convergence checks pay for the model alone.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(gauge, L1):
        return decompose_l1(x, delta=delta)[0]
    if isinstance(gauge, L2):
        return decompose_l2(x, delta=delta)[0]
    if isinstance(gauge, Linf):
        return decompose_linf(x, delta=delta)[0]
    if isinstance(gauge, GroupL1L2):
        return decompose_group(x, gauge.partition, delta=delta)[0]
    if isinstance(gauge, PositivePartMax):
        return decompose_polyhedral(x, delta=delta)[0]
    if isinstance(gauge, Precomposed):
        md0 = decompose(gauge.base, gauge.dstar @ x, delta=delta)
        return precompose(md0, gauge.dstar.T, x)
    if isinstance(gauge, SumGauge):
        mds = [decompose(g, x, delta=delta) for g in gauge.parts]
        md = mds[0]
        for other in mds[1:]:
            md = sum_decompositions(md, other)
        return md
    raise UnsupportedGaugeError(
        f"no decomposition for gauge kind {type(gauge).__name__}")


def tv1d_gauge(n):
    """Anisotropic 1-d total variation: sum of |x_{i+1} - x_i|."""
    dstar = np.zeros((n - 1, n))
    for i in range(n - 1):
        dstar[i, i] = -1.0
        dstar[i, i + 1] = 1.0
    return Precomposed(L1(n - 1), dstar)
