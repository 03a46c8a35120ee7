"""First-order and LP solvers for the penalized and equality-constrained
recovery problems.  The gauge picks the route.

``solve_penalized`` solves ``L1`` and ``Linf`` by their exact homotopy
paths: the regularizer is polyhedral, so the minimizer is piecewise linear
in lambda, and a finite sequence of events leads from lam_max, where it
leaves 0, down to lambda (Osborne, Presnell & Turlach 2000; Efron,
Hastie, Johnstone & Tibshirani 2004).  One event loop (``_homotopy``)
traces both, each with its model: the Gram system of a segment, the roots
of the ratio test, the rule at ties and the events.  On the l1 path
(``lasso_path``), from ||Phi^T y||_inf, each event is an index that
enters or leaves the active set; on the max-abs path, from ||Phi^T y||_1,
it is a free entry that reaches +-||x||_inf and saturates, or a saturated
entry whose dual weight falls to zero and frees.  Each event solves one
Gram system.  An l1 base pre-composed with D* of full row rank (tv) takes
the l1 path on its reduced lasso (``_reduced_lasso``).  The end point is
returned (method "path") once it passes the first-order test that every
route exits on; where the path cannot go on or its end point fails the
test, the active set runs on its atom blocks as it does alone.

Every other polyhedral gauge is a sum of blocks of atoms,
J(x) = sum_k max(0, max_j <a_j, x>), read by ``gauges._atom_blocks``
(which also gives every such gauge its polar LP): the blocks
{e_i, -e_i} of L1, one block of support atoms (Linf and the positive-part
max), a base's blocks times D* for a pre-composition, and the parts'
blocks joined for a sum of such parts.  A primal active-set method
(``_active_set``) solves its penalized problem, a QP in x and one t_k per
block, exactly in finitely many steps; it also stands behind every path.
A gauge of norm blocks, J(x) = sum_b ||x_b||, is a ``GroupL1L2`` (``L2``
is its one-block case): FISTA with adaptive restart solves it, and
Chambolle-Pock J(x) = base(K x) for such a base pre-composed with K = D*.

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
(``solve_restricted``), where the regularizer is a smooth sum of block
norms and Newton's method on the active blocks finds the minimizer; once
FISTA has identified the model, that candidate passes the same
first-order test and is returned.  Newton gives up at the first step
that it would have to damp below 1/2, a sign that the model is not yet
identified.  Chambolle-Pock stops on the iterate's test alone.

``solve_noiseless`` solves one LP for every gauge with atom blocks and
the same Chambolle-Pock loop on norm blocks, with the projection onto
{Phi x = y} as its primal prox.  The LP minimizes the sum of the blocks'
maxima over x = xls + Z w, Z a basis of Ker(Phi), by ``lp.lp_min_max``
with one epigraph variable per block (``_noiseless_lp``); its dual has one
row per block on top of dim Ker(Phi).  The data of the LP are scaled by a
power of two to order one, since the simplex prices on an absolute scale.
The minimal-norm point xls, which also tests that y lies in the range of
Phi, and Z come from one factorization of Phi (``linalg.RankedSvd``: a
complete Householder QR of Phi^T where it certifies full row rank, the SVD
otherwise) with the rank cutoff of ``linalg.rank_tolerance``.

scipy is imported by the first solve that needs it, not with this module
(``linalg._scipy_linalg``): the Cholesky factors of a path event
(``_gram_solve``, LAPACK ``dpotrf``/``dpotrs``) and of the Chambolle-Pock
least-squares prox (``cho_factor``/``cho_solve``).  FISTA, the active set
and the noiseless LPs run on numpy alone.
"""

import math
import numbers

import numpy as np

from .linalg import (check_problem, null_space, svd_pinv, pinv_and_rank,
                     power_operator_norm, numerical_rank, rank_tolerance,
                     RankedSvd, _scipy_linalg, EPS, RANK_TOL_FACTOR)
from .lp import lp_min_max, OPTIMAL
from .gauges import (L1, Linf, GroupL1L2, Precomposed, SumGauge,
                     UnsupportedGaugeError, _atom_blocks)
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
    an int >= 1, caps the iterations (the events of a homotopy path)."""

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


def _vanishes(g, x):
    """Whether the pre-composed gauge g = base(D* .) vanishes at x to
    round-off on the scale of D* and x: max |D* x| <= 64 eps ||D*||_inf
    ||x||_inf.  Then x lies in Ker D*, the lineality space of J, and
    dJ(x) = dJ(0).  An iterate of an iterative solver that only nears
    Ker D* keeps the model of D* x."""
    if not isinstance(g, Precomposed):
        return False
    D = g.dstar
    scale = np.max(np.abs(D).sum(axis=1), initial=0.0) * np.max(np.abs(x))
    return (np.max(np.abs(D @ x), initial=0.0)
            <= RANK_TOL_FACTOR * EPS * scale)


def _first_order_residuals(Phi, y, lam, g, x, md=None):
    """(equality residual, gauge slack beyond 1) of the penalized problem
    at x: ``certificates._first_order_values`` on the decomposition ``md``
    of the iterate itself (computed here when not given), or, at x = 0 and
    where J vanishes at x (``_vanishes``: dJ(x) = dJ(0)), on the polar of
    g, with the equality residual scaled by 1 / (1 + lam)."""
    if np.max(np.abs(x)) == 0.0 or _vanishes(g, x):
        md = None
    elif md is None:
        md = _decomposition(g, x)
        if md is None:
            return np.inf, np.inf
    try:
        eq, a = cert_mod._first_order_values(Phi, y, lam, x, md, g)
    except UnsupportedGaugeError:
        return np.inf, np.inf
    return eq / (1.0 + lam), max(a - 1.0, 0.0)


def _objective(Phi, y, lam, g, x):
    r = y - Phi @ x
    return 0.5 * float(r @ r) + lam * g.value(x)


def solve_penalized(Phi, y, lam, g, opts=None):
    """Minimize 0.5 || y - Phi x ||^2 + lam * J(x).

    The route is the gauge's:

    ========================  ==============================================
    L1, Linf,                 end point at lam of the exact homotopy path
    Precomposed(L1) (tv)      (``_homotopy``, with the l1 or the max-abs
                              model, on the reduced lasso for tv; method
                              "path", ``iterations`` = its events), where
                              it passes the first-order test at ``tol``;
                              else the active set, as below
    PolyhedralH,              the active set on the epigraph QP
    PositivePartMax,          (``_active_set``; method "active-set")
    Precomposed(Linf)
    SumGauge of parts with    the active set on the joined blocks of
    atom blocks (L1, Linf,    ``_atom_blocks``, one t_k per block
    PositivePartMax, their
    pre-compositions, sums)
    GroupL1L2 (L2 is its      FISTA (method "fista")
    one-block case)
    Precomposed(GroupL1L2)    Chambolle-Pock (method "pd")
    every other gauge         ``UnsupportedGaugeError`` (a max, a sum with
                              a norm-block part, which the message names)
    ========================  ==============================================

    A path falls back where it cannot go on (a singular Gram matrix, a Gram
    matrix or correlation that is not finite, more events than
    ``opts.max_iter``, for tv a D* without full row rank or a Phi not
    injective on Ker D*) or where its end point fails the test.

    Parameters
    ----------
    Phi, y : measurement operator and data
    lam : positive regularization weight
    g : the regularizer
    opts : SolveOptions; ``tol`` bounds the first-order residuals at exit
        and ``max_iter`` caps the iterations, or the path's events.
    """
    Phi, y, _ = check_problem(Phi, y, dim=g.dim, lam=lam)
    opts = opts or SolveOptions()
    model = _path_model(g)
    if model is not None:
        res = _path_solve(Phi, y, lam, g, model, opts)
        if res is not None:
            return res
    blocks = _atom_blocks(g)
    if blocks is not None:
        x, iterations = _active_set(Phi, y, lam, *blocks, opts)
        return _tested(Phi, y, lam, g, x, iterations, opts.tol, "active-set")
    if isinstance(g, GroupL1L2):
        return _fista(Phi, y, lam, g, opts)
    return _primal_dual_penalized(Phi, y, lam, g, opts)


def _tested(Phi, y, lam, g, x, iterations, tol, method):
    """x as a result, converged when it passes the first-order test at
    tol."""
    eq, slack = _first_order_residuals(Phi, y, lam, g, x)
    return SolveResult(x, iterations, eq, slack, eq <= tol and slack <= tol,
                       method)


def _path_solve(Phi, y, lam, g, model, opts):
    """The end point at lam of the gauge's homotopy path, traced with its
    ``model`` (on the reduced lasso of ``_reduced_lasso`` for an l1 base
    pre-composed with D*), as a result certified by the first-order test at
    ``opts.tol``; None where the path cannot go on or its end point fails
    the test."""
    try:
        Phi_r, y_r, lift = (_reduced_lasso(Phi, y, g)
                            if isinstance(g, Precomposed) else (Phi, y, None))
        path = _homotopy(Phi_r, y_r, lam, opts.max_iter, model)
    except PathError:
        return None
    x = path.x_at(lam)
    res = _tested(Phi, y, lam, g, x if lift is None else lift(x),
                  path.events, opts.tol, "path")
    return res if res.converged else None


def _path_model(g):
    """The homotopy path model of g, or None: l1 for L1 and for an l1 base
    pre-composed with D* (on its reduced lasso), max-abs for Linf."""
    if isinstance(g.base if isinstance(g, Precomposed) else g, L1):
        return _L1Model
    return _MaxAbsModel if isinstance(g, Linf) else None


def _reduced_lasso(Phi, y, g):
    """(Phi', y', lift) for an l1 base pre-composed with D* of full row
    rank, Phi injective on Ker D*: with x = D*^+ u + N c, N a basis of
    Ker D*, the penalized problem is the lasso in u of Phi' = P Phi D*^+
    and y' = P y, P the projector off range(Phi N), and
    ``lift(u)`` = D*^+ u + N (Phi N)^+ (y - Phi D*^+ u) is its x (Elad,
    Milanfar & Rubinstein 2007, *Analysis versus synthesis in signal
    priors*).  ``PathError`` where D* or Phi N, on the scale ||Phi||_2, is
    rank deficient, or Phi N or Phi D*^+ is not finite."""
    if g._d_null.shape[1]:
        raise PathError("D* does not have full row rank")
    Dp = g._d_pinv.T
    N = null_space(g.dstar)
    with np.errstate(over="ignore", invalid="ignore"):
        M, B = Phi @ N, Phi @ Dp
    if not (np.isfinite(M).all() and np.isfinite(B).all()):
        raise PathError("Phi N or Phi D*^+ is not finite")
    Mp, rank = pinv_and_rank(M, np.linalg.norm(Phi, 2))
    if rank < N.shape[1]:
        raise PathError("Phi is not injective on Ker D*")

    def lift(u):
        return Dp @ u + N @ (Mp @ (y - B @ u))

    return B - M @ (Mp @ B), y - M @ (Mp @ y), lift


# ---------------------------------------------------------------------------
# the homotopy paths: one event loop, one model per kind
# ---------------------------------------------------------------------------

class PathError(SolverError):
    """A homotopy path cannot go on: its Gram matrix is singular, a Gram
    matrix, correlation or weight is not finite, it needs more events than
    allowed, or an analysis l1 has no reduced lasso."""


class HomotopyPath:
    """The minimizer x(lam) of 0.5||y - Phi x||^2 + lam J(x), J polyhedral,
    from lam_max, where it leaves 0, down to lam_min: ``lambdas``, the
    breakpoints, non-increasing (lam_max alone when lam_min >= lam_max),
    and on segment k, between ``lambdas[k]`` and ``lambdas[k + 1]``, the
    model's z = u_k - lam v_k, ``active[k]`` and ``signs[k]``: the active
    set and its signs on the l1 path (x_A = z), the free entries and all
    saturation signs on the max-abs path (x = s t + x_F, z = (t, x_F)).
    Each segment starts with one event, so ``events`` counts them; tied
    events give segments of length zero."""

    def __init__(self, n, lambdas, segments, point):
        self.n = n
        self.lambdas = np.array(lambdas)
        self._segments = segments   # (active, signs, u, v) per segment
        self._point = point
        self.events = len(segments)
        self.active = [A for A, _, _, _ in segments]
        self.signs = [s for _, s, _, _ in segments]

    def x_at(self, lam):
        """x(lam) for lam >= lam_min: zero from lam_max up, else the
        segment's affine piece."""
        if not lam >= self.lambdas[-1]:
            raise ValueError(f"lam {lam!r} lies below the path's end "
                             f"{self.lambdas[-1]!r}")
        if not lam < self.lambdas[0]:
            return np.zeros(self.n)
        A, s, u, v = self._segments[np.count_nonzero(self.lambdas[1:] > lam)]
        return self._point(self.n, A, s, u - lam * v)


def lasso_path(Phi, y, lam_min):
    """The l1 homotopy path (a ``HomotopyPath``) from ||Phi^T y||_inf down
    to lam_min > 0; ``PathError`` where it cannot go on.  On a segment
    with active set A and signs s, x_A = G^{-1} (Phi_A^T y - lam s),
    G = Phi_A^T Phi_A; an index enters where its correlation reaches +-lam
    moving outward and leaves where its coefficient reaches zero
    (``_homotopy``; Osborne, Presnell & Turlach 2000; Efron, Hastie,
    Johnstone & Tibshirani 2004, *Least angle regression*)."""
    Phi, y, _ = check_problem(Phi, y, lam=lam_min)
    return _homotopy(Phi, y, lam_min, SolveOptions().max_iter, _L1Model)


# the sign with which an index enters, by row of the path's ratio test
_ENTRY_SIGNS = np.array([[1.0], [-1.0]])
# the path's round-off margin: a root of the ratio test up to this share
# above the current lam is a tie at lam, and an entry counts only if it
# moves outward at a rate above it (one that keeps to the bound belongs to
# a column in the span of the others)
_TIE_MARGIN = 8 * np.finfo(float).eps


def _homotopy(Phi, y, lam_min, max_events, model):
    """The homotopy path (``HomotopyPath``) of the kind ``model`` (a
    ``_PathModel``) from its lam_max down to lam_min > 0; ``PathError``
    where it cannot go on, or past ``max_events`` events.

    On each segment the model's coordinates z = u - lam v solve one Gram
    system, and the correlations Phi^T (y - Phi x) = Phi^T y - GB z are
    p + lam q.  The model's ratio test picks the next event at or below
    the current lam: a free entry that meets its bound while moving
    outward enters with that sign (``reach``), or an entry meets its drop
    condition and leaves (``cross``).  A root up to ``_TIE_MARGIN`` above
    lam is a tie taken at lam, so tied entries come one by one through
    segments of length zero, and at a tie only an entry that moves toward
    its drop leaves.  The entry just entered cannot leave at the next
    event: at the breakpoint its test reads lam itself up to round-off."""
    n = Phi.shape[1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G = Phi.T @ Phi
        c = Phi.T @ y
        if not (np.isfinite(G).all() and np.isfinite(c).all()):
            raise PathError("Phi^T Phi or Phi^T y is not finite")
        m = model(G, c)
        lam = m.lam_max
        lambdas, segments, entered = [lam], [], m.entered
        while lam > lam_min:
            if len(segments) == max_events:
                raise PathError(
                    f"the path needs more than {max_events} events")
            GB, H, rhs, cutoff = m.system()
            uv = _gram_solve(H, rhs, cutoff)
            u, v = uv[:, 0], uv[:, 1]
            GBuv = GB @ uv
            p, q = c - GBuv[:, 0], GBuv[:, 1]
            if not math.isfinite(p.sum() + q.sum()):
                raise PathError("a correlation on the path is not finite")
            segments.append((*m.segment, u, v))
            reach, cross = m.roots(u, v, p, q)
            if entered is not None:
                cross[entered] = np.nan
            k, i, t, drop = _next_event(reach, cross, lam)
            if t >= lam * (1.0 - _TIE_MARGIN):
                cross[m.holds(v, q)] = np.nan
                k, i, t, drop = _next_event(reach, cross, lam)
            if not t > lam_min:
                lambdas.append(lam_min)
                break
            lam = float(t)
            lambdas.append(lam)
            if drop:
                m.drop(i)
                entered = None
            else:
                entered = m.add(k)
    return HomotopyPath(n, lambdas, segments, m.point)


class _PathModel:
    """One kind of homotopy path, made from G = Phi^T Phi and c = Phi^T y:
    ``lam_max``; the signs ``s``, 0 on the entries free to enter, whose
    both sign rows ``free`` marks for ``reach``; the segment's Gram system ``system()`` -> (GB, H, rhs, cutoff), which sets
    ``segment`` = (active, signs) for ``point(n, active, signs, z)``, the x
    of z; the roots ``roots(u, v, p, q)`` -> (reach, cross); ``holds(v,
    q)``, the roots in ``cross`` that cannot leave at a tie; the events
    ``add`` and ``drop``; and ``entered``, the index into ``cross`` of an
    entry that entered at lam_max."""
    entered = None

    def add(self, k):
        """Enter the entry of flat index k into ``reach`` with the sign of
        its row; its index into ``cross``."""
        row, j = divmod(int(k), self.s.size)
        self.s[j] = _ENTRY_SIGNS[row, 0]
        self.free[:, j] = False
        return j

    def drop(self, i):
        """Free the entry of index i into ``cross``."""
        self.s[i] = 0.0
        self.free[:, i] = True


class _L1Model(_PathModel):
    """The l1 path: x_A = z on the active set A, in order of entry, with
    signs s_A, from lam_max = ||Phi^T y||_inf, where the largest
    correlation enters.  ``cross`` holds where each x_i reaches zero, by
    position in A; at a tie it leaves only while it moves toward zero."""
    entered = -1   # the first index, the last of A

    def __init__(self, G, c):
        self.G = G
        self.lam_max = float(np.abs(c).max(initial=0.0))
        # the right-hand sides of the Gram system, Phi^T y and the signs
        self.rhs = np.zeros((c.size, 2))
        self.rhs[:, 0] = c
        self.s = self.rhs[:, 1]
        j = int(np.argmax(np.abs(c)))
        self.s[j] = np.sign(c[j])
        self.free = np.array([self.s == 0] * 2)
        self.A = [j]
        # the rank cutoff of G's largest diagonal entry, which bounds
        # every active Gram matrix's
        self.cutoff = rank_tolerance(G.diagonal().max(), G.shape)

    def system(self):
        A = np.array(self.A, dtype=int)
        GB = self.G[:, A]
        rhs = self.rhs[A]
        self.segment = A, rhs[:, 1]
        return GB, GB[A], rhs, self.cutoff

    def roots(self, u, v, p, q):
        den = _ENTRY_SIGNS - q
        reach = np.where(self.free & (_ENTRY_SIGNS * den > _TIE_MARGIN),
                         p, np.nan) / den
        return reach, u / v

    def holds(self, v, q):
        return self.segment[1] * v >= 0

    def add(self, k):
        self.A.append(super().add(k))
        return -1

    def drop(self, i):
        super().drop(self.A.pop(i))

    @staticmethod
    def point(n, A, s, z):
        x = np.zeros(n)
        x[A] = z
        return x


class _MaxAbsModel(_PathModel):
    """The max-abs path from lam_max = ||Phi^T y||_1, where the entries of
    nonzero correlation leave 0 saturated with its sign: with saturated
    entries S, signs s, and free entries F, x = B z, B = [s_S | e_F] and
    z = (t, x_F), t = ||x||_inf, with H = B^T G B and rhs = [B^T c, e_1].
    The dual weights w = p + lam q are zero on F, and s_j w_j >= 0 on S.
    A free x_j = v_0 (a_j - lam b_j), in units of t's rate v_0 > 0,
    saturates where it reaches +-t moving outward; a saturated entry frees
    where its weight reaches zero, at a tie only while it falls."""

    def __init__(self, G, c):
        self.G, self.c = G, c
        self.lam_max = float(np.abs(c).sum())
        self.s = np.sign(c)
        self.free = np.array([self.s == 0] * 2)

    def system(self):
        G, c, s = self.G, self.c, self.s
        F = np.flatnonzero(s == 0)
        GB = np.column_stack([G @ s, G[:, F]])
        H = np.vstack([s @ GB, GB[F]])
        rhs = np.zeros((F.size + 1, 2))
        rhs[0] = s @ c, 1.0
        rhs[1:, 0] = c[F]
        self.segment = F, s.copy()
        # with no entry saturated H[0, 0] = 0, and the Gram solve raises
        return GB, H, rhs, rank_tolerance(H.diagonal().max(), G.shape)

    def roots(self, u, v, p, q):
        F, n = self.segment[0], self.s.size
        a, b = np.zeros(n), np.zeros(n)
        a[F], b[F] = u[1:] / v[0], v[1:] / v[0]
        rate = _ENTRY_SIGNS * b - 1.0
        reach = np.where(self.free & (rate > _TIE_MARGIN),
                         _ENTRY_SIGNS * a - u[0] / v[0], np.nan) / rate
        return reach, np.where(self.s != 0, -p / q, np.nan)

    def holds(self, v, q):
        return self.s * q <= 0

    @staticmethod
    def point(n, F, s, z):
        x = s * z[0]
        x[F] = z[1:]
        return x


def _next_event(reach, cross, lam):
    """The next event of a homotopy path from the roots of its ratio test:
    the flat index k into ``reach``, the index i into ``cross``, the lam
    at which it occurs, and whether it is a drop.  Roots up to
    ``_TIE_MARGIN`` above lam by round-off are ties taken at lam."""
    top = lam * (1.0 + _TIE_MARGIN)
    reach = np.where(reach <= top, reach, -np.inf)
    cross = np.where(cross <= top, cross, -np.inf)
    k, i = reach.argmax(), cross.argmax()
    return k, i, min(max(reach.flat[k], cross[i]), lam), \
        cross[i] >= reach.flat[k]


def _gram_solve(GA, rhs, cutoff):
    """G^{-1} rhs from one Cholesky factor of the active Gram matrix G;
    ``PathError`` where G is singular to working precision: empty, or a
    pivot, the squared distance of a column from the span of those before
    it, at or below ``cutoff``."""
    lapack = _scipy_linalg().lapack
    L, info = lapack.dpotrf(GA, lower=1)
    if info != 0 or not L.size or L.diagonal().min() ** 2 <= cutoff:
        raise PathError("the active Gram matrix is singular")
    return lapack.dpotrs(L, rhs, lower=1)[0]


# ---------------------------------------------------------------------------
# the active set on the epigraph QP of a max of atoms
# ---------------------------------------------------------------------------

def _active_set(Phi, y, lam, A, block, opts):
    """(x, iterations) of a primal active-set method (Nocedal & Wright 2006,
    *Numerical Optimization*, §16.5) for J(x) = sum_k max(0, max_j <a_j,
    x>), a_j the rows of A and k = block[j] their blocks, 0 to m - 1: the
    QP min 0.5||y - Phi x||^2 + lam sum_k t_k over z = (x, t), t in R^m,
    subject to the rows A x - t_block <= 0 and -t <= 0, written C z <= 0.

    It starts at z = 0 with the working set W = {t >= 0}.  Each iteration
    takes an orthonormal basis N of Ker C_W and the SVD of Phi N_x, which
    is the eigendecomposition of the reduced Hessian.  Where sum_k t_k can
    move on that Hessian's kernel, the step is the zero-curvature descent
    direction, on which Phi x stays and sum_k t_k falls, to the first
    blocking row; otherwise it is the Newton step to the minimizer on
    z + Ker C_W, cut at the first blocking row.  A blocking row joins W.  At
    the minimizer the multipliers of W, by least squares from
    C_W^T mu = -grad, are tested: the most negative leaves W, ties to the
    smallest row, and none below round-off ends the solve.  Each step and
    each test is one of at most ``opts.max_iter`` iterations.
    ``SolverError`` where ||Phi||^2, Phi^T y, a step or the atom values
    A x at the end are not finite."""
    Q, n = Phi.shape
    m = int(block.max()) + 1
    # N is orthonormal, so ||Phi|| bounds the singular values sm of Phi N_x:
    # their rank is judged on that scale, and sm ** 2 does not overflow
    top = np.linalg.norm(Phi, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(Phi, y, "||Phi||^2 or Phi^T y", top * top, Phi.T @ y)
    C = np.zeros((len(A) + m, n + m))
    C[:len(A), :n] = A
    C[np.arange(len(A)), n + block] = -1.0
    C[len(A):, n:] = -np.eye(m)
    norms = np.linalg.norm(C, axis=1)
    # round-off on unit scales: of the kernel part of N's t rows, of a row's
    # rate along a step, and of a multiplier, the multipliers summing to lam
    floor = rank_tolerance(1.0, C.shape)
    W = np.zeros(len(C), dtype=bool)
    W[len(A):] = True
    z = np.zeros(n + m)
    stationary = False
    for it in range(1, opts.max_iter + 1):
        k = np.count_nonzero(W)
        U, s, Vt = np.linalg.svd(C[W], full_matrices=True)
        r = y - Phi @ z[:n]
        if stationary:
            # grad = (-Phi^T r, lam, ..., lam)
            mu = U @ ((Vt[:k, :n] @ (Phi.T @ r) - lam * Vt[:k, n:].sum(1)) / s)
            j = int(np.argmin(mu))
            if mu[j] >= -floor * lam:
                break
            W[np.flatnonzero(W)[j]] = False
            stationary = False
            continue
        N = Vt[k:].T
        Um, sm, Vm = np.linalg.svd(Phi @ N[:n], full_matrices=True)
        rank = numerical_rank(sm, (Q, N.shape[1]), top)
        # the t rows of N on the Hessian's kernel, summed over the blocks
        flat = (Vm[rank:] @ N[n:].T).sum(1)
        newton = not np.linalg.norm(flat) > floor
        if newton:
            V, sv = Vm[:rank], sm[:rank]
            p = N @ (V.T @ ((Um[:, :rank].T @ r) / sv
                            - lam * (V @ N[n:].T).sum(1) / sv ** 2))
        else:
            # sum t falls at the rate |flat|^2, so a row -t_k <= 0 blocks
            p = -(N @ (Vm[rank:].T @ flat))
        _require_finite(Phi, y, f"the active-set step at iteration {it}", p)
        rate = C @ p
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(~W & (rate > floor * norms * np.linalg.norm(p)),
                             np.maximum(-(C @ z), 0.0) / rate, np.inf)
        j = int(np.argmin(steps))
        if newton and steps[j] >= 1.0:
            z = z + p
            stationary = True
        else:
            z = z + steps[j] * p
            W[j] = True
    with np.errstate(over="ignore", invalid="ignore"):
        _require_finite(Phi, y, "A x at the active set's end point", A @ z[:n])
    return z[:n], it


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
    if opts.max_iter % CHECK_EVERY:
        # else the last check, at max_iter, has the residuals of this x
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
    Phi is injective there and it passes the first-order test at tol, else
    None."""
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


def _splitting_pieces(g):
    """(K, dual projection) so that J(x) = base(K x), with the projection
    onto lam * (polar ball of base).  This is the one table of gauges that
    Chambolle-Pock runs on: a ``GroupL1L2`` base (L2 among them), plain or
    pre-composed; for a sum, the error names its first part without atom
    blocks."""
    K, base = ((g.dstar, g.base) if isinstance(g, Precomposed)
               else (np.eye(g.dim), g))
    if isinstance(base, GroupL1L2):
        part = base.partition

        def proj(p, lam):
            # lam / max(nb, lam) is 1 exactly on the blocks inside the ball
            return p * (lam / np.maximum(part.norms(p), lam))[part.block_of]
        return K, proj
    for i, p in enumerate(g.parts if isinstance(g, SumGauge) else ()):
        if _atom_blocks(p) is None:
            raise UnsupportedGaugeError(f"part {i} ({type(p).__name__}) of "
                                        "the sum has no atom blocks")
    raise UnsupportedGaugeError(f"no splitting for {type(g).__name__}")


def _chambolle_pock(K, dual_proj, radius, x, prox_at, check, opts):
    """Chambolle-Pock on min_x F(x) + radius * base(K x) from x, with
    ``prox_at(tau)`` the prox of tau * F.  It returns the first converged
    ``check(x, it)``, run every ``CHECK_EVERY`` iterations and at
    ``opts.max_iter``, else the last."""
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
        if it % CHECK_EVERY == 0 or it == opts.max_iter:
            res = check(x, it)
            if res.converged:
                return res
    return res


def _primal_dual_penalized(Phi, y, lam, g, opts):
    """Chambolle-Pock on min_x 0.5||y - Phi x||^2 + lam * base(K x), which
    stops on the iterate's first-order test."""
    K, dual_proj = _splitting_pieces(g)

    def check(x, it):
        _require_finite(Phi, y,
                        f"the Chambolle-Pock iterate at iteration {it}", x)
        return _tested(Phi, y, lam, g, x, it, opts.tol, "pd")

    return _chambolle_pock(K, dual_proj, lam, np.zeros(Phi.shape[1]),
                           lambda tau: _least_squares_prox(Phi, y, tau),
                           check, opts)


def _least_squares_prox(Phi, y, tau):
    """The prox of tau * 0.5||y - Phi x||^2 as v -> M v + c, with
    M = (I + tau Phi^T Phi)^{-1} formed once from its Cholesky factor and
    c = tau M Phi^T y."""
    n = Phi.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.eye(n) + tau * (Phi.T @ Phi)
    _require_finite(Phi, y, "I + tau Phi^T Phi", A)
    sla = _scipy_linalg()
    chol = sla.cho_factor(A, check_finite=False)
    M = sla.cho_solve(chol, np.eye(n), check_finite=False)
    c = tau * (M @ (Phi.T @ y))
    _require_finite(Phi, y, "the least-squares prox", c)
    return lambda v: M @ v + c


# ---------------------------------------------------------------------------
# noiseless (equality-constrained) solver
# ---------------------------------------------------------------------------

def solve_noiseless(Phi, y, g, opts=None):
    """Minimize J(x) subject to Phi x = y.

    The one LP of ``_noiseless_lp`` solves every gauge with atom blocks
    (``_atom_blocks``: L1, Linf, the positive-part max, their
    pre-compositions such as tv and PolyhedralH, and sums of these); norm
    blocks, plain or pre-composed, run Chambolle-Pock with the affine
    constraint enforced by projection, and a sum with a norm-block part
    raises ``UnsupportedGaugeError`` naming that part.
    """
    Phi, y, _ = check_problem(Phi, y, dim=g.dim)
    opts = opts or SolveOptions()
    # feasibility of y, and Ker(Phi) for the LP
    svd = RankedSvd(Phi)
    xls = svd.solve(y)
    if np.linalg.norm(Phi @ xls - y) > 1e-8 * (1.0 + np.linalg.norm(y)):
        raise ValueError("y is not in the range of Phi")
    built = _noiseless_lp(g, xls, svd.kernel())
    if built is None:
        return _primal_dual_noiseless(Phi, y, g, opts)
    res, extract = built
    if res.status != OPTIMAL:
        raise SolverError(f"noiseless LP ended with {res.status}")
    x = extract(res.x)
    feas = np.linalg.norm(Phi @ x - y) / (1.0 + np.linalg.norm(y))
    return SolveResult(x, res.iterations, feas, 0.0, True, "lp")


def _noiseless_lp(g, xls, Z):
    """(LpResult, map from its x to the recovered x) for min J(x), Phi x = y,
    over x = xls + Z w, xls any solution of Phi x = y and Z an orthonormal
    basis of Ker(Phi); None for a gauge without atom blocks.  It is
    ``lp_min_max(A xls, A Z, block=block)`` on the blocks of
    ``_atom_blocks``, whose dual has one row per block on top of
    dim Ker(Phi).  The LP prices on an absolute scale, so h = A xls is
    first scaled by the power of two s that puts max |h| in [1, 2); that
    scales w and the value exactly, and the map back divides w by s."""
    blocks = _atom_blocks(g)
    if blocks is None:
        return None
    A, block = blocks
    h = A @ xls
    top = np.abs(h).max(initial=0.0)
    s = np.ldexp(1.0, 1 - np.frexp(top)[1]) if top > 0 else 1.0
    return (lp_min_max(s * h, A @ Z, block=block),
            lambda w: xls + Z @ (w / s))


def _primal_dual_noiseless(Phi, y, g, opts):
    """Chambolle-Pock with the indicator of {Phi x = y} as the smooth block;
    it stops once feasible with a stalled objective, or feasible at
    max_iter."""
    K, dual_proj = _splitting_pieces(g)
    pinv = svd_pinv(Phi)

    def affine_proj(v):
        return v - pinv @ (Phi @ v - y)

    obj_prev = np.inf

    def check(x, it):
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

    On a polyhedral model (L1, Linf, the positive-part max, and their sums
    and pre-compositions) the sign-like vector e is constant on the model
    cone, and the minimizer has the closed form
    Phi_T^+ (y - lam (Phi_T^+)^* e) restricted to T, which needs Phi to be
    injective on T (else ``RestrictedInjectivityError``).  For the group
    regularizer, and L2 as its one-block case, e varies with the point;
    Newton's method on the active blocks, started at md.x, minimizes the
    block-norm problem.  It needs a nonsingular Hessian at md.x rather than
    injectivity, since group solutions with dim T > Q are often unique;
    ``converged`` reports whether its residual met ``opts.tol``.  Newton
    gives up as soon as neither a full nor a half step decreases the
    residual, as on a wrong model, whose minimizer over T wants an active
    block to vanish.  It then returns its last iterate, and ``converged``
    says whether that iterate's residual already met ``opts.tol``; on a
    wrong model it has not.  A sum or pre-composition with a group part
    raises ``UnsupportedGaugeError``: e varies there too.
    """
    Phi, y, _ = check_problem(Phi, y, dim=md.ambient_dim, lam=lam)
    opts = opts or SolveOptions()
    if isinstance(md.gauge, GroupL1L2):
        return _group_newton(Phi, y, lam, md, opts.tol)
    if _atom_blocks(md.gauge) is None:
        raise UnsupportedGaugeError("no restricted solve over a sum or "
                                    "pre-composition with a smooth part")
    U = md.T.basis
    M = Phi @ U
    # the injectivity gate and the pseudo-inverse share one SVD of Phi_T
    Mp, rank = pinv_and_rank(M)
    if rank < U.shape[1]:
        raise cert_mod.RestrictedInjectivityError(
            "restricted problem is not strongly convex on T")
    # x = U c, c = (M^T M)^{-1} (M^T y - lam U^T e), (M^T M)^{-1} = Mp Mp^T
    x = U @ (Mp @ (y - lam * (Mp.T @ (U.T @ md.e))))
    res = np.max(np.abs(M.T @ (y - Phi @ x) - lam * (U.T @ md.e)),
                 initial=0.0)
    return SolveResult(x, 1, res / (1.0 + lam), 0.0, True, "closed-form")


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
