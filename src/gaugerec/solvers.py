"""First-order and LP solvers for the penalized and equality-constrained
recovery problems.  The gauge picks the route.

``solve_penalized`` runs FISTA with adaptive restart on the prox-able
``L1``, ``Linf`` and ``GroupL1L2``, and Chambolle-Pock on J(x) = base(K x)
on every other gauge, with K = D* for a pre-composition (H^T for a
polyhedral H-gauge, over the positive-part max) and K = I otherwise.
Each loop applies its least-squares step as an affine map v -> M v + c
formed once per solve: M = I - step Phi^T Phi for the FISTA forward step,
and M = (I + tau Phi^T Phi)^{-1}, from its Cholesky factor, for the
Chambolle-Pock primal prox.  FISTA calls the gauge's unchecked prox
(``Gauge._prox``): ``check_problem`` validates the inputs once, and M, c
and the iterates (FISTA's at each restart test, Chambolle-Pock's at each
check) are tested finite, so a Phi or y whose scale overflows raises
``SolverError``.  Convergence is declared from the first-order conditions
at the iterate's own model decomposition, never from step sizes alone.
At each FISTA convergence check that the iterate fails, the penalized
problem is also solved exactly on the iterate's model subspace T
(``solve_restricted``); once FISTA has identified the model, that
candidate passes the same first-order test and is returned.  On T the
regularizer is smooth: affine for the l1 and max-abs kinds, where the
candidate is one linear solve, and a sum of block norms for the group
kind, where Newton's method on the active blocks finds it.  Newton gives
up at the first step that it would have to damp below 1/2, a sign that
the model is not yet identified.

Chambolle-Pock reads the model from its dual iterate p instead (Liang,
Fadili & Peyre 2018).  For a polyhedral base p lies on a face of lam times
the base's polar ball: the active atoms supp(p) of a positive-part max
(the base of a PolyhedralH) or Linf base, with the zero atom when |p| sums
below lam, or the clipped entries of an l1 base, with their signs.  The
face fixes a primal subspace T, on which the regularizer is linear; a check
that the iterate fails also solves the penalized problem exactly on T and
returns that candidate once it passes the same first-order test.  Only
the last face is kept, so a face that repeats is not solved again.  The
Euclidean and group bases have no polyhedral face and stop on the
iterate's test alone.

``solve_noiseless`` solves an LP when the gauge has one and otherwise runs
the same Chambolle-Pock loop, with the projection onto {Phi x = y} as its
primal prox.  An l1 base has its own LP.  A base with support atoms a_j,
base(u) = max(0, max_j <a_j, u>) (Linf and the positive-part max), makes
J the max of the atoms a_j K, minimized over x = xls + Z w, Z a basis of
Ker(Phi), by ``lp.lp_min_max``, whose dual has dim Ker(Phi) + 1 rows
instead of about Q + 2N.  The minimal-norm point xls, which also tests
that y lies in the range of Phi, and Z come from one SVD of Phi with the
rank cutoff of ``linalg.rank_tolerance``.
"""

import math
import numbers

import numpy as np
import scipy.linalg

from .linalg import (check_problem, null_space, svd_pinv, pinv_and_rank,
                     power_operator_norm, rank_tolerance, RankedSvd)
from .lp import LpProblem, lp_solve, lp_min_max, OPTIMAL
from .gauges import (L1, L2, Linf, GroupL1L2, PositivePartMax,
                     Precomposed, UnsupportedGaugeError, project_l1_ball,
                     project_simplex_interior)
from . import model as model_mod
from . import certificates as cert_mod

CHECK_EVERY = 100   # iterations between convergence checks, both loops


class SolverError(RuntimeError):
    pass


class SolveResult:
    def __init__(self, x_hat, iterations, primal_residual, dual_residual,
                 converged, method):
        self.x_hat = x_hat
        self.iterations = int(iterations)
        self.primal_residual = float(primal_residual)
        self.dual_residual = float(dual_residual)
        self.converged = bool(converged)
        self.method = method

    def to_json_dict(self):
        return {
            "x_hat": list(map(float, self.x_hat)),
            "iterations": self.iterations,
            "primal_residual": self.primal_residual,
            "dual_residual": self.dual_residual,
            "converged": self.converged,
            "method": self.method,
        }

    def __repr__(self):
        return (f"SolveResult(iters={self.iterations}, "
                f"converged={self.converged}, method={self.method!r})")


class SolveOptions:
    """``tol``, finite and >= 0, bounds the residuals at exit; ``max_iter``,
    an int >= 1, caps the iterations."""

    def __init__(self, tol=1e-8, max_iter=200000):
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real)
                                         and math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
        if isinstance(max_iter, bool) or not (
                isinstance(max_iter, numbers.Integral) and max_iter >= 1):
            raise ValueError(f"max_iter must be an int >= 1, got {max_iter!r}")
        self.tol = float(tol)
        self.max_iter = int(max_iter)


def _decomposition(g, x):
    """Model decomposition of g at x, or None where there is none."""
    try:
        return model_mod.decompose(g, x)
    except (model_mod.DegenerateModelError, UnsupportedGaugeError):
        return None


def _first_order_residuals(Phi, y, lam, g, x, md=None):
    """(equality residual, gauge slack beyond 1) of the penalized problem
    at x, evaluated on the decomposition ``md`` of the iterate itself
    (computed here when not given)."""
    r = y - Phi @ x
    corr = Phi.T @ r
    if np.max(np.abs(x)) == 0.0:
        try:
            slack = g.polar(corr / lam) - 1.0
        except UnsupportedGaugeError:
            return np.inf, np.inf
        return 0.0, max(slack, 0.0)
    if md is None:
        md = _decomposition(g, x)
        if md is None:
            return np.inf, np.inf
    eq = np.max(np.abs(md.T.coords(corr) - lam * md.T.coords(md.e)),
                initial=0.0) / (1.0 + lam)
    slack = md.antig.value(md.S.project(corr / lam - md.f)) - 1.0
    return eq, max(slack, 0.0)


def _objective(Phi, y, lam, g, x):
    r = y - Phi @ x
    return 0.5 * float(r @ r) + lam * g.value(x)


def solve_penalized(Phi, y, lam, g, opts=None):
    """Minimize 0.5 || y - Phi x ||^2 + lam * J(x).

    Parameters
    ----------
    Phi, y : measurement operator and data
    lam : positive regularization weight
    g : the regularizer; L1, Linf and GroupL1L2 run FISTA, every other
        gauge Chambolle-Pock (``UnsupportedGaugeError`` for a sum or a max)
    opts : SolveOptions; ``tol`` bounds the first-order residuals at exit.
    """
    Phi, y, _ = check_problem(Phi, y, dim=g.dim, lam=lam)
    opts = opts or SolveOptions()
    if isinstance(g, (L1, GroupL1L2, Linf)):
        return _fista(Phi, y, lam, g, opts)
    return _primal_dual_penalized(Phi, y, lam, g, opts)


def _fista(Phi, y, lam, g, opts):
    """FISTA with adaptive restart (Beck & Teboulle 2009) on the prox-able
    gauges: one affine forward step (``_forward_step``) and the unchecked
    ``_prox`` per iteration."""
    n = Phi.shape[1]
    try:
        L = power_operator_norm(Phi) ** 2
    except OverflowError:
        raise _overflow_error(Phi, y, "||Phi||^2") from None
    step = 1.0 / L if L > 0 else 1.0
    M, c = _forward_step(Phi, y, step)
    prox = g._prox
    thresh = lam * step
    x = np.zeros(n)
    z = x.copy()
    t = 1.0
    obj_prev = _objective(Phi, y, lam, g, x)
    eq = slack = np.inf
    for it in range(1, opts.max_iter + 1):
        x_new = prox(thresh, M @ z + c)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        # adaptive restart on objective increase; CHECK_EVERY is a
        # multiple of 10, so every convergence check sees a finite iterate
        if it % 10 == 0:
            _require_finite(Phi, y, f"the FISTA iterate at iteration {it}",
                            x_new)
            obj = _objective(Phi, y, lam, g, x_new)
            if obj > obj_prev:
                z = x_new.copy()
                t_new = 1.0
            obj_prev = min(obj, obj_prev)
        x = x_new
        t = t_new
        if it % CHECK_EVERY == 0:
            md = _decomposition(g, x) if np.any(x) else None
            eq, slack = _first_order_residuals(Phi, y, lam, g, x, md)
            if eq <= opts.tol and slack <= opts.tol:
                return SolveResult(x, it, eq, slack, True, "fista")
            polished = _polish(Phi, y, lam, g, md, opts.tol)
            if polished is not None:
                x_p, eq_p, slack_p = polished
                return SolveResult(x_p, it, eq_p, slack_p, True, "fista")
    eq, slack = _first_order_residuals(Phi, y, lam, g, x)
    return SolveResult(x, opts.max_iter, eq, slack,
                       eq <= opts.tol and slack <= opts.tol, "fista")


def _forward_step(Phi, y, step):
    """(M, c) with M z + c = z - step Phi^T (Phi z - y), the gradient step
    on 0.5||y - Phi z||^2 as one affine map."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = np.eye(Phi.shape[1]) - step * (Phi.T @ Phi)
        c = step * (Phi.T @ y)
    _require_finite(Phi, y, "the FISTA step I - step Phi^T Phi", M, c)
    return M, c


def _require_finite(Phi, y, what, *arrays):
    """``SolverError`` naming the scale of Phi and y unless every array is
    finite: Phi and y are finite, so only an overflow makes them not so."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise _overflow_error(Phi, y, what)


def _overflow_error(Phi, y, what):
    return SolverError(
        f"{what} is not finite: the scale of Phi (largest entry "
        f"{np.abs(Phi).max():.3g}) or of y (largest entry "
        f"{np.abs(y).max(initial=0.0):.3g}) overflows double precision")


def _polish(Phi, y, lam, g, md, tol):
    """(x, eq, slack) for the minimizer over the model subspace of md when
    it passes the first-order test at tol, else None."""
    if md is None:
        return None
    try:
        cand = solve_restricted(Phi, y, lam, md).x_hat
    except cert_mod.RestrictedInjectivityError:
        return None
    eq, slack = _first_order_residuals(Phi, y, lam, g, cand)
    if eq <= tol and slack <= tol:
        return cand, eq, slack
    return None


def _analysis_split(g):
    """(K, base) with J(x) = base(K x): (D*, base) for a pre-composition,
    and (I, g) for a gauge that is its own base."""
    if isinstance(g, Precomposed):
        return g.dstar, g.base
    return np.eye(g.dim), g


def _splitting_pieces(g):
    """(K, dual projection, dual face) so that J(x) = base(K x), with the
    projection onto lam * (polar ball of base) and ``face(K, p, lam)`` the
    face of that ball that holds p (see ``_max_face``), or None for a base
    with no polyhedral face.  This is the one table of gauges that
    Chambolle-Pock runs on."""
    K, base = _analysis_split(g)
    if isinstance(base, PositivePartMax):
        return K, project_simplex_interior, _max_face
    if isinstance(base, L1):
        return K, lambda p, lam: np.clip(p, -lam, lam), _box_face
    if isinstance(base, Linf):
        return K, project_l1_ball, _max_face
    if isinstance(base, L2):
        return K, (lambda p, lam: p * min(1.0, lam / max(np.linalg.norm(p),
                                                         1e-300))), None
    if isinstance(base, GroupL1L2):
        part = base.partition

        def proj(p, lam):
            # lam / max(nb, lam) is 1 exactly on the blocks inside the ball
            return p * (lam / np.maximum(part.norms(p), lam))[part.block_of]
        return K, proj, None
    raise UnsupportedGaugeError(f"no splitting for {type(g).__name__}")


def _max_face(K, p, lam):
    """(key, C) for the face of the dual ball lam * conv(0, s_i K_i) of a
    max of atoms that holds p, s = sign(p): the simplex of a positive-part
    max base (p >= 0), as a PolyhedralH has, or the l1 ball of a Linf
    base.  The active atoms are supp(p), and the zero atom when |p| sums
    below lam.  On the primal subspace {C x = 0} the active atoms take
    equal values, 0 when the zero atom is among them.  ``key`` identifies
    the face."""
    s = np.sign(p)
    A = np.flatnonzero(s)
    # a projection onto the ball's boundary sums to lam up to round-off
    zero = np.abs(p).sum() < lam * (1.0 - p.size * np.finfo(float).eps)
    atoms = s[A, None] * K[A]
    return np.append(s, zero), (atoms if zero else atoms[1:] - atoms[:1])


def _box_face(K, p, lam):
    """(key, C) for the face of the box lam * [-1, 1]^m of an l1 base that
    holds p: the clipped entries, with their signs, are the jump set, and
    the free rows of K vanish on the primal subspace {C x = 0}."""
    clipped = np.abs(p) == lam
    return np.sign(p) * clipped, K[~clipped]


def _chambolle_pock(K, dual_proj, radius, x, prox_at, check, opts):
    """Chambolle-Pock on min_x F(x) + radius * base(K x) from x, with
    ``prox_at(tau)`` the prox of tau * F.  It returns the first converged
    ``check(x, p, it)``, p the dual iterate, of those run every
    ``CHECK_EVERY`` iterations, else ``check(x, p, opts.max_iter)``."""
    normK = power_operator_norm(K)
    sigma = tau = 0.99 / normK if normK > 0 else 1.0
    prox = prox_at(tau)
    xbar = x.copy()
    p = np.zeros(K.shape[0])
    for it in range(1, opts.max_iter + 1):
        p = dual_proj(p + sigma * (K @ xbar), radius)
        x_new = prox(x - tau * (K.T @ p))
        xbar = 2.0 * x_new - x
        x = x_new
        if it % CHECK_EVERY == 0:
            res = check(x, p, it)
            if res.converged:
                return res
    return check(x, p, opts.max_iter)


def _primal_dual_penalized(Phi, y, lam, g, opts):
    """Chambolle-Pock on min_x 0.5||y - Phi x||^2 + lam * base(K x).

    A check that the iterate fails also tries the minimizer over the primal
    subspace of the dual iterate's face (``_face_candidate``); the face of
    the last check is kept, and a repeated face is not solved again."""
    K, dual_proj, face = _splitting_pieces(g)
    last_key = None

    def check(x, p, it):
        nonlocal last_key
        _require_finite(Phi, y,
                        f"the Chambolle-Pock iterate at iteration {it}", x)
        eq, slack = _first_order_residuals(Phi, y, lam, g, x)
        done = eq <= opts.tol and slack <= opts.tol
        if not done and face is not None:
            key, C = face(K, p, lam)
            if not np.array_equal(key, last_key):
                last_key = key
                cand = _face_candidate(Phi, y, K, p, C)
                eq_c, slack_c = _first_order_residuals(Phi, y, lam, g, cand)
                if eq_c <= opts.tol and slack_c <= opts.tol:
                    return SolveResult(cand, it, eq_c, slack_c, True, "pd")
        return SolveResult(x, it, eq, slack, done, "pd")

    return _chambolle_pock(K, dual_proj, lam, np.zeros(Phi.shape[1]),
                           lambda tau: _least_squares_prox(Phi, y, tau),
                           check, opts)


def _face_candidate(Phi, y, K, p, C):
    """The minimizer of 0.5||y - Phi x||^2 + <K^T p, x> over {C x = 0}.
    There it equals the penalized objective near the face of p, and it is
    the same for every dual point of that face."""
    U = null_space(C)
    return _restricted_affine(svd_pinv(Phi @ U), y, U, 1.0, K.T @ p)


def _least_squares_prox(Phi, y, tau):
    """The prox of tau * 0.5||y - Phi x||^2 as v -> M v + c, with
    M = (I + tau Phi^T Phi)^{-1} formed once from its Cholesky factor and
    c = tau M Phi^T y."""
    n = Phi.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.eye(n) + tau * (Phi.T @ Phi)
    _require_finite(Phi, y, "I + tau Phi^T Phi", A)
    chol = scipy.linalg.cho_factor(A, check_finite=False)
    M = scipy.linalg.cho_solve(chol, np.eye(n), check_finite=False)
    c = tau * (M @ (Phi.T @ y))
    _require_finite(Phi, y, "the least-squares prox", c)
    return lambda v: M @ v + c


# ---------------------------------------------------------------------------
# noiseless (equality-constrained) solver
# ---------------------------------------------------------------------------

def solve_noiseless(Phi, y, g, opts=None):
    """Minimize J(x) subject to Phi x = y.

    The LP of ``_noiseless_lp`` solves an l1 gauge, plain or pre-composed,
    and every gauge whose base has support atoms (Linf and the positive-part
    max, as PolyhedralH has); other gauges run Chambolle-Pock with the
    affine constraint enforced by projection.
    """
    Phi, y, _ = check_problem(Phi, y, dim=g.dim)
    opts = opts or SolveOptions()
    # feasibility of y, and Ker(Phi) for the max-of-atoms LPs
    svd = RankedSvd(Phi)
    xls = svd.solve(y)
    if np.linalg.norm(Phi @ xls - y) > 1e-8 * (1.0 + np.linalg.norm(y)):
        raise ValueError("y is not in the range of Phi")
    built = _noiseless_lp(Phi, y, g, xls, svd.kernel())
    if built is None:
        return _primal_dual_noiseless(Phi, y, g, opts)
    res, extract = built
    if res.status != OPTIMAL:
        raise SolverError(f"noiseless LP ended with {res.status}")
    x = extract(res.x)
    feas = np.linalg.norm(Phi @ x - y) / (1.0 + np.linalg.norm(y))
    return SolveResult(x, res.iterations, feas, 0.0, True, "lp")


def _noiseless_lp(Phi, y, g, xls, Z):
    """(LpResult, map from its x to the recovered x) for min J(x), Phi x = y;
    None off the LP map.  xls is any solution of Phi x = y and Z an
    orthonormal basis of Ker(Phi).  A base with support atoms A makes J the
    max of the atoms A K, one ``_max_atoms_lp``."""
    Q, n = Phi.shape
    if isinstance(g, L1):
        # x = u - v, u,v >= 0; min sum(u+v)
        c = np.ones(2 * n)
        a_eq = np.hstack([Phi, -Phi])
        prob = LpProblem(c, a_eq=a_eq, b_eq=y, bounds=[(0, None)] * (2 * n))
        return lp_solve(prob), (lambda z: z[:n] - z[n:])
    K, base = _analysis_split(g)
    if isinstance(base, L1):
        p = K.shape[0]
        # variables (x, u, v) with K x = u - v
        c = np.concatenate([np.zeros(n), np.ones(2 * p)])
        a_eq = np.vstack([
            np.hstack([Phi, np.zeros((Q, 2 * p))]),
            np.hstack([K, -np.eye(p), np.eye(p)]),
        ])
        b_eq = np.concatenate([y, np.zeros(p)])
        bounds = [(None, None)] * n + [(0, None)] * (2 * p)
        return (lp_solve(LpProblem(c, a_eq=a_eq, b_eq=b_eq, bounds=bounds)),
                lambda z: z[:n])
    atoms = base.support_atoms()
    if atoms is None:
        return None
    return _max_atoms_lp(xls, Z, atoms @ K)


def _max_atoms_lp(xls, Z, A):
    """min max((A x)_+) over x = xls + Z w, Z an orthonormal basis of
    Ker(Phi): ``lp_min_max(A xls, A Z)``, whose dual has dim Ker(Phi) + 1
    rows."""
    return lp_min_max(A @ xls, A @ Z), (lambda w: xls + Z @ w)


def _primal_dual_noiseless(Phi, y, g, opts):
    """Chambolle-Pock with the indicator of {Phi x = y} as the smooth block;
    it stops once feasible with a stalled objective, or feasible at
    max_iter."""
    K, dual_proj, _ = _splitting_pieces(g)
    pinv = svd_pinv(Phi)

    def affine_proj(v):
        return v - pinv @ (Phi @ v - y)

    obj_prev = np.inf

    def check(x, p, it):
        nonlocal obj_prev
        obj = g.value(x)
        feas = np.linalg.norm(Phi @ x - y) / (1.0 + np.linalg.norm(y))
        stalled = (abs(obj - obj_prev)
                   <= max(opts.tol, 1e-12) * (1.0 + abs(obj)))
        obj_prev = obj
        return SolveResult(x, it, feas, 0.0,
                           feas <= opts.tol
                           and (stalled or it == opts.max_iter), "pd")

    x = affine_proj(np.zeros(Phi.shape[1]))
    return _chambolle_pock(K, dual_proj, 1.0, x, lambda tau: affine_proj,
                           check, opts)


# ---------------------------------------------------------------------------
# restricted-subspace solver
# ---------------------------------------------------------------------------

def solve_restricted(Phi, y, lam, md, opts=None):
    """Minimize the penalized objective over the model subspace of md.

    When the sign-like vector is locally constant on the model cone (L1,
    Linf, polyhedral and analysis kinds) the minimizer has the closed form
    Phi_T^+ (y - lam (Phi_T^+)^* e) restricted to T, which needs Phi to be
    injective on T (else ``RestrictedInjectivityError``).  For the group
    regularizer e varies with the point; Newton's method on the active
    blocks, started at md.x, minimizes the block-norm problem.  It needs a
    nonsingular Hessian at md.x rather than injectivity, since group
    solutions with dim T > Q are often unique; ``converged`` reports whether
    its residual met ``opts.tol``.  Newton gives up as soon as neither a
    full nor a half step decreases the residual, as on a wrong model, whose
    minimizer over T wants an active block to vanish.  It then returns its
    last iterate, and ``converged`` says whether that iterate's residual
    already met ``opts.tol``; on a wrong model it has not.
    """
    Phi, y, _ = check_problem(Phi, y, dim=md.ambient_dim, lam=lam)
    opts = opts or SolveOptions()
    if isinstance(md.gauge, GroupL1L2):
        return _group_newton(Phi, y, lam, md, opts.tol)
    U = md.T.basis
    M = Phi @ U
    # the injectivity gate and the pseudo-inverse share one SVD of Phi_T
    Mp, rank = pinv_and_rank(M)
    if rank < U.shape[1]:
        raise cert_mod.RestrictedInjectivityError(
            "restricted problem is not strongly convex on T")
    x = _restricted_affine(Mp, y, U, lam, md.e)
    res = np.max(np.abs(M.T @ (y - Phi @ x) - lam * (U.T @ md.e)),
                 initial=0.0)
    return SolveResult(x, 1, res / (1.0 + lam), 0.0, True, "closed-form")


def _restricted_affine(Mp, y, U, lam, e):
    """U c with c = (M^T M)^+ (M^T y - lam U^T e), given Mp = M^+ for
    M = Phi U: the minimizer of 0.5||y - Phi x||^2 + lam <e, x> over the
    span of U when M is injective, and the least-norm one of its
    minimizers otherwise."""
    # (M^T M)^+ = Mp Mp^T
    return U @ (Mp @ (y - lam * (Mp.T @ (U.T @ e))))


def _group_newton(Phi, y, lam, md, tol, max_iter=50):
    """Newton's method for min 0.5||y - M c||^2 + lam sum_b ||c_b|| over the
    coordinates c of T, with M = Phi U.  The Hessian is
    M^T M + lam blockdiag((I - u_b u_b^T) / ||c_b||), u_b = c_b / ||c_b||.
    A full or a half step must decrease the gradient's largest entry; when
    neither does, Newton gives up.  Near a minimizer on T the full step
    passes; a step that has to be damped further comes from a wrong model,
    whose minimizer over T wants an active block to vanish, where more
    steps, each with an ``eigh``, would not converge.  ``owner`` is the
    block of each column of U, so block norms are one ``bincount``."""
    U = md.T.basis
    M = Phi @ U
    G = M.T @ M
    Mty = M.T @ y
    owner = md.gauge.partition.block_of[np.argmax(U != 0.0, axis=0)]
    same = owner[:, None] == owner[None, :]

    def col_norms(c):
        return np.sqrt(np.bincount(owner, weights=c * c))[owner]

    def gradient(c):
        nb = col_norms(c)
        if np.any(nb == 0.0):
            return None
        return G @ c - Mty + lam * (c / nb)

    def hessian(c):
        nb = col_norms(c)
        w = c / nb ** 1.5
        H = G - lam * (same * np.outer(w, w))
        H[np.diag_indices_from(H)] += lam / nb
        return H

    c = U.T @ md.x
    grad = gradient(c)   # the active blocks of md.x are nonzero
    # round-off level of the gradient's entries
    floor = 64.0 * np.finfo(float).eps * (
        np.abs(G).sum(axis=1).max(initial=0.0) * np.abs(c).max(initial=0.0)
        + np.abs(Mty).max(initial=0.0) + lam)
    steps = 0
    while steps < max_iter:
        gn = np.abs(grad).max(initial=0.0)
        if gn <= floor:
            break
        w, V = np.linalg.eigh(hessian(c))
        if w.size and w[0] <= rank_tolerance(abs(w[-1]), V.shape):
            if steps == 0:
                raise cert_mod.RestrictedInjectivityError(
                    "the restricted Hessian is singular at the anchor")
            break
        step = -(V @ ((V.T @ grad) / w))
        for t in (1.0, 0.5):
            trial = gradient(c + t * step)
            if trial is not None and \
                    np.abs(trial).max(initial=0.0) <= (1.0 - 1e-4 * t) * gn:
                break
        else:
            break   # the model is wrong, or the gradient is at round-off
        c = c + t * step
        grad = trial
        steps += 1
    res = np.abs(grad).max(initial=0.0) / (1.0 + lam)
    return SolveResult(U @ c, steps, res, 0.0, res <= tol, "newton")
