"""Dense linear programming by two-phase revised simplex.

Problems are stated as

    minimize    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                lo_i <= x_i <= hi_i   (None = unbounded)

and converted internally to standard form (equalities over nonnegative
variables); a problem already of that shape, up to shifts of the lower
bounds, as the dual that ``lp_min_halfspaces`` builds, passes through with
its matrix copied.  Every LP enters through ``lp_solve``, the one name to
wrap to count LPs and pivots.  Pricing is Dantzig's rule with an automatic
switch to Bland's rule after a run of degenerate pivots, which guarantees
termination.  The basis inverse is kept explicitly and refreshed
periodically; a claimed optimum whose refactored basic solution is
infeasible is solved again with a refactorization at every pivot.

Each row without a slack column gets an artificial scaled to the row, the
largest power of two at most its largest entry, so that phase 1 prices and
pivots alike at any scale of the data.  Phase 1 ends as soon as every basic
artificial is at level 0, which with rows of zero right-hand side
(``G^T lam = 0`` in ``lp_min_max``) is often before its first pivot;
pricing on to phase-1 optimality would only make degenerate pivots.  Each
artificial still basic is then driven out by one pivot, an eta update of
the basis inverse.  Its row of Binv A offers the real nonbasic columns
whose entries are at least half the largest in magnitude, and the one of
least cost enters: a cost-aware starting basis (Bixby 1992; Maros 2003,
ch. 9) that starts phase 2 near its optimum; on the max-abs recovery LPs it
takes about 40 % fewer pivots than entering the largest entry.  A row whose
entries all vanish next to the scale of the rows it combines is redundant
and dropped.

``lp_min_halfspaces`` solves problems with only ``<=`` rows over few
variables through their dual, whose basis has one row per variable.
``lp_min_max`` solves that way the one min-max LP, min over w of
sum_k max(0, max_{j in k} (h_j + (G w)_j) / b_j) over blocks k of rows,
with b_j the offset of row j: 1 for a support atom, a facet offset for an
H-rep, 0 for a hard row.  ``solvers._noiseless_lp`` passes the blocks of
atoms of a polyhedral gauge; its other callers, the lifted
``model.SubdiffGauge``, ``gauges.SumGauge.polar``,
``polytopes.minkowski_sum_gauge``, ``polytopes.linear_image_gauge``,
``cli._cone_sum_gauge`` and the Chebyshev problem of ``lp_minimize_linf``,
take one block.
"""

import math
import numbers

import numpy as np

FEAS_TOL = 1e-9
COST_TOL = 1e-9
PIVOT_TOL = 1e-10
REFACTOR_EVERY = 64

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_DRIFTED = "drifted"   # internal: optimal basis, infeasible once refactored


class LpNumericalError(RuntimeError):
    """Raised when the simplex cannot certify any of the three outcomes."""


def _finite_or_none(v):
    return v is None or (isinstance(v, numbers.Real) and math.isfinite(v))


class LpProblem:
    def __init__(self, c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
        self.c = np.asarray(c, dtype=float)
        n = self.c.shape[0]
        self.a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
        self.b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
        self.a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
        self.b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
        if bounds is None:
            bounds = [(None, None)] * n
        self.bounds = list(bounds)
        for arr, name in ((self.c, "c"), (self.a_ub, "a_ub"), (self.b_ub, "b_ub"),
                          (self.a_eq, "a_eq"), (self.b_eq, "b_eq")):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite data in {name}")
        if self.a_ub.shape != (self.b_ub.shape[0], n):
            raise ValueError("a_ub/b_ub shape mismatch")
        if self.a_eq.shape != (self.b_eq.shape[0], n):
            raise ValueError("a_eq/b_eq shape mismatch")
        if len(self.bounds) != n:
            raise ValueError("bounds length mismatch")
        # a run of one pair object, as in [(0, None)] * n, is checked once
        last = None
        for j, pair in enumerate(self.bounds):
            if pair is last:
                continue
            lo, hi = last = pair
            if not (_finite_or_none(lo) and _finite_or_none(hi)):
                raise ValueError(f"bounds[{j}] = {(lo, hi)!r}: each bound "
                                 f"must be None or a finite real")

    @property
    def n_vars(self):
        return self.c.shape[0]


class LpResult:
    """Outcome of ``lp_solve``.  At an optimum, ``dual_eq`` and ``dual_ub``
    are the sensitivities of the optimal value to ``b_eq`` and ``b_ub``
    (d value / d b; so ``dual_ub <= 0`` for a minimization)."""

    def __init__(self, status, x=None, value=None, dual_eq=None, dual_ub=None,
                 iterations=0):
        self.status = status
        self.x = x
        self.value = value
        self.dual_eq = dual_eq
        self.dual_ub = dual_ub
        self.iterations = iterations

    def __repr__(self):
        return f"LpResult({self.status}, value={self.value})"


def _to_standard_form(p):
    """Rewrite as min c z, A z = b, z >= 0.

    Returns (A, b, c, recover, n_eq, n_ub) where ``recover`` maps a standard
    vector z back to the original variables, rows are ordered [eq; ub], and
    row signs are not yet normalized.  A variable with a lower bound lo is
    z_k + lo; a free one is z_k - z_{k+1}; an upper bound adds a row to a_ub.
    A problem of equalities over lower-bounded variables, as the dual of
    ``lp_min_halfspaces``, passes through with its matrix copied.
    """
    n = p.n_vars
    lo, hi = zip(*p.bounds) if n else ((), ())
    if not p.b_ub.shape[0] and None not in lo and hi.count(None) == n:
        # the bytes of the general case: adding into zeros is a_eq + 0.0
        shifts = np.array(lo, dtype=float)
        orig = np.ascontiguousarray(p.a_eq)
        return (orig + 0.0, p.b_eq - orig @ shifts, p.c.copy(),
                lambda z: shifts + z, p.b_eq.shape[0], 0)
    free = np.array([v is None for v in lo], dtype=bool)
    shifts = np.array([0.0 if v is None else v for v in lo], dtype=float)
    upper = [j for j, ub in enumerate(hi) if ub is not None]
    # standard column of each variable's positive part; a free variable's
    # negative part follows it
    pos = np.arange(n) + np.cumsum(free) - free
    neg = pos[free] + 1
    k = n + int(free.sum())

    a_ub = p.a_ub
    b_ub = p.b_ub
    if upper:
        a_ub = np.vstack([a_ub, np.eye(n)[upper]])
        b_ub = np.concatenate([b_ub, [p.bounds[j][1] for j in upper]])

    m_eq, m_ub = p.a_eq.shape[0], a_ub.shape[0]
    A = np.zeros((m_eq + m_ub, k + m_ub))
    orig = np.vstack([p.a_eq, a_ub]) if m_eq + m_ub else np.zeros((0, n))
    # adding into zeros leaves no -0.0 entries in A
    A[:, pos] += orig
    A[:, neg] -= orig[:, free]
    A[np.arange(m_eq, m_eq + m_ub), np.arange(k, k + m_ub)] = 1.0
    b = np.concatenate([p.b_eq, b_ub]) - orig @ shifts
    c_full = np.zeros(k + m_ub)
    c_full[pos] = p.c
    c_full[neg] = -p.c[free]

    def recover(z):
        x = shifts + z[pos]
        x[free] -= z[neg]
        return x

    return A, b, c_full, recover, m_eq, m_ub


class _Simplex:
    """Revised simplex on min c z, A z = b (b >= 0 after sign flips), z >= 0."""

    def __init__(self, A, b, c, refactor_every=REFACTOR_EVERY):
        flip = b < 0
        if flip.any():
            A = np.where(flip[:, None], -A, A)
            b = np.where(flip, -b, b)
        self.A = A
        self.b = b
        self.flip = flip
        self.c = c
        self.m, self.n = self.A.shape
        self.refactor_every = refactor_every
        self.iterations = 0

    def solve(self):
        m, n = self.m, self.n
        # Phase 1.  Unflipped slack columns (unit columns with +1) can serve
        # directly as the starting basis, the first one of each row; other
        # rows get an artificial.
        basis = np.full(m, -1)
        unit = np.flatnonzero((self.A != 0.0).sum(axis=0) == 1)
        at = np.abs(self.A[:, unit]).argmax(axis=0)
        for j, i in zip(unit.tolist(), at.tolist()):
            if basis[i] < 0 and self.A[i, j] == 1.0:
                basis[i] = j
        need_art = np.flatnonzero(basis < 0)
        basis[need_art] = n + np.arange(need_art.size)
        A1 = np.zeros((m, n + need_art.size))
        A1[:, :n] = self.A
        # an artificial takes the scale of its row, the largest power of two
        # at most the row's largest entry (1/2 for a zero row): it prices and
        # pivots alike at any scale of the data and, as a power of two,
        # changes no choice where the row is already of order one
        row_max = np.abs(self.A).max(axis=1, initial=0.0)
        row_scale = np.ones(m)
        row_scale[need_art] = np.ldexp(1.0, np.frexp(row_max[need_art])[1] - 1)
        A1[need_art, basis[need_art]] = row_scale[need_art]
        c1 = np.zeros(n + need_art.size)
        c1[n:] = 1.0
        basis, xB, ok, Binv = self._iterate(A1, c1, basis, phase=1)
        if not ok:
            raise LpNumericalError("phase 1 did not terminate cleanly")
        # the artificial levels are residuals in units of their rows
        scale = 1.0 + np.abs(self.b / row_scale).sum()
        if float(c1[basis] @ xB) > 1e-7 * scale:
            return INFEASIBLE, None, None, None
        basis, rows = self._drive_out_artificials(A1, basis, n, Binv,
                                                  row_max)
        A = A1[rows, :n]
        saved_b = self.b
        self.b = saved_b[rows]
        basis, xB, ok, Binv = self._iterate(A, self.c, basis, phase=2)
        self.b = saved_b
        if not ok:
            return UNBOUNDED, None, None, None
        # xB is updated in place and clipped at 0, which can hide the drift
        # of the eta updates: check the refactored basic solution
        if Binv is None:
            Binv = self._invert(A, basis)
        scale = 1.0 + np.abs(self.b).max()
        if np.min(Binv @ self.b[rows]) < -FEAS_TOL * scale:
            return _DRIFTED, None, None, None
        z = np.zeros(n)
        z[basis] = xB
        y_rows = np.zeros(self.m)
        y_rows[rows] = self.c[basis] @ Binv
        y_rows = np.where(self.flip, -y_rows, y_rows)
        return OPTIMAL, z, float(self.c @ z), y_rows

    def _drive_out_artificials(self, A1, basis, n, Binv, row_max):
        """Pivot each zero-level artificial out of the basis.  Its row of
        Binv A, over the real nonbasic columns, offers every column whose
        entry is at least half the largest in magnitude, and the one of
        least cost enters: a pivot of good size that starts phase 2 nearer
        its optimum than the largest entry would.  A row whose entries all
        vanish next to the scale of the rows it combines is redundant and
        dropped.  Binv is the inverse of the basis as ``_invert`` gives it,
        or None, and row_max the largest magnitude in each row of the real
        columns.  Returns the basis and the rows kept."""
        basis = basis.copy()
        keep = np.ones(self.m, dtype=bool)
        if Binv is None:
            Binv = self._invert(A1, basis)
        real = A1[:, :n]
        basic = np.zeros(n, dtype=bool)
        basic[basis[basis < n]] = True
        for i in np.flatnonzero(basis >= n):
            size = np.abs(Binv[i] @ real)
            size[basic] = 0.0
            largest = size.max(initial=0.0)
            if largest <= 1e-9 * (np.abs(Binv[i]) @ row_max):
                keep[i] = False
                continue
            enter = int(np.where(size >= 0.5 * largest, self.c,
                                 np.inf).argmin())
            # the eta update of a pivot on (i, enter)
            d = Binv @ A1[:, enter]
            coef = -d / d[i]
            coef[i] = 0.0
            Binv += coef[:, None] * Binv[i]
            Binv[i] /= d[i]
            basis[i] = enter
            basic[enter] = True
        return basis[keep], np.flatnonzero(keep)

    def _iterate(self, A, c, basis, phase):
        """Price and pivot from ``basis`` to the end of a phase.  Returns
        (basis, xB, ok, Binv), ok False where the phase is unbounded, and
        Binv the inverse of the final basis where no eta update has touched
        it since ``_invert`` gave it, else None."""
        basis = np.array(basis)
        m = basis.size
        cB = c[basis]
        Binv = self._invert(A, basis)
        xB = np.maximum(Binv @ self.b, 0.0)
        no_ratio = np.full(m, np.inf)
        bland = False
        degenerate_run = 0
        max_degenerate = 2 * (A.shape[0] + 10)
        max_iter = 2000 + 40 * (A.shape[0] + A.shape[1])
        since_refactor = 0
        for _ in range(max_iter):
            # phase 1 is done once every basic artificial is at level 0
            # (xB >= 0): with b = 0 rows that is often before any pivot
            if phase == 1 and cB @ xB <= 0.0:
                break
            self.iterations += 1
            reduced = c - (cB @ Binv) @ A
            reduced[basis] = 0.0
            if bland:
                cand = (reduced < -COST_TOL).nonzero()[0]
                if cand.size == 0:
                    break
                enter = int(cand[0])
            else:
                enter = int(reduced.argmin())
                if reduced[enter] >= -COST_TOL:
                    break
            d = Binv @ A[:, enter]
            pos = d > PIVOT_TOL
            if not pos.any():
                # unbounded (phase 1 cannot reach here)
                return basis, xB, False, None
            ratios = np.divide(xB, d, out=no_ratio.copy(), where=pos)
            theta = ratios.min()
            ties = (ratios <= theta + 1e-12).nonzero()[0]
            # among tied rows, the one of the smallest basic column leaves
            leave = int(ties[0] if ties.size == 1
                        else ties[basis[ties].argmin()])
            if theta <= 1e-12:
                degenerate_run += 1
                if degenerate_run > max_degenerate:
                    bland = True
            else:
                degenerate_run = 0
            # pivot
            basis[leave] = enter
            cB[leave] = c[enter]
            xB -= theta * d
            xB[leave] = theta
            np.maximum(xB, 0.0, out=xB)
            since_refactor += 1
            if since_refactor >= self.refactor_every:
                Binv = self._invert(A, basis)
                xB = np.maximum(Binv @ self.b, 0.0)
                since_refactor = 0
            else:
                # rank-1 eta update of the basis inverse, with the products
                # of np.outer(coef, row); row ``leave`` is then overwritten
                row = Binv[leave].copy()
                Binv += (-d / d[leave])[:, None] * row
                Binv[leave] = row / d[leave]
        else:
            raise LpNumericalError(
                f"simplex iteration cap hit in phase {phase} "
                f"(m={A.shape[0]}, n={A.shape[1]})")
        return basis, xB, True, Binv if since_refactor == 0 else None

    @staticmethod
    def _invert(A, basis):
        try:
            return np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError as exc:
            raise LpNumericalError(f"singular working basis: {exc}") from exc


def lp_solve(problem):
    """Solve an LpProblem; returns an LpResult with status optimal /
    infeasible / unbounded.  Numerical breakdown raises LpNumericalError."""
    A, b, c, recover, m_eq, m_ub = _to_standard_form(problem)
    if A.shape[0] == 0:
        # no constraints: bounded only if c vanishes on free directions
        x = np.zeros(problem.n_vars)
        for j, (lo, hi) in enumerate(problem.bounds):
            base = 0.0 if lo is None else lo
            if problem.c[j] > 0 and lo is None:
                return LpResult(UNBOUNDED)
            if problem.c[j] < 0 and hi is None:
                return LpResult(UNBOUNDED)
            x[j] = base if problem.c[j] >= 0 else hi
        return LpResult(OPTIMAL, x=x, value=float(problem.c @ x))
    iterations = 0
    for refactor_every in (REFACTOR_EVERY, 1):
        simplex = _Simplex(A, b, c, refactor_every)
        status, z, value, y = simplex.solve()
        iterations += simplex.iterations
        if status != _DRIFTED:
            break
    else:
        raise LpNumericalError(
            "basic solution infeasible at the optimum even when refactored "
            "at every pivot")
    if status != OPTIMAL:
        return LpResult(status, iterations=iterations)
    x = recover(z)
    dual_eq = y[:m_eq] if y is not None else None
    dual_ub = y[m_eq:m_eq + problem.a_ub.shape[0]] if y is not None else None
    return LpResult(OPTIMAL, x=x, value=float(problem.c @ x),
                    dual_eq=dual_eq, dual_ub=dual_ub,
                    iterations=iterations)


def lp_min_halfspaces(c, a_ub, b_ub, bounds=None):
    """min c @ x s.t. a_ub @ x <= b_ub and ``bounds``, through the dual

        min  b @ lam  s.t.  A^T lam = -c,  lam >= 0,

    where (A, b) is (a_ub, b_ub) with one row appended per finite bound.
    The dual has one row per variable, so its basis stays small however
    many rows the primal has.  The optimal x is the sensitivity of the dual
    value to its right-hand side, the value is minus the dual value, and
    ``dual_ub = -lam`` on the rows of a_ub.  An infeasible dual leaves the
    primal infeasible or unbounded; the primal is then solved to tell which.
    """
    problem = LpProblem(c, a_ub=a_ub, b_ub=b_ub, bounds=bounds)
    n = problem.n_vars
    eye = np.eye(n)
    lower = [j for j, (lb, _) in enumerate(problem.bounds) if lb is not None]
    upper = [j for j, (_, ub) in enumerate(problem.bounds) if ub is not None]
    A = np.vstack([problem.a_ub, -eye[lower], eye[upper]])
    b = np.concatenate([problem.b_ub,
                        [-problem.bounds[j][0] for j in lower],
                        [problem.bounds[j][1] for j in upper]])
    res = lp_solve(LpProblem(b, a_eq=A.T, b_eq=-problem.c,
                             bounds=[(0, None)] * len(b)))
    if res.status == INFEASIBLE:
        return lp_solve(problem)
    if res.status == UNBOUNDED:
        return LpResult(INFEASIBLE, iterations=res.iterations)
    m = problem.a_ub.shape[0]
    return LpResult(OPTIMAL, x=res.dual_eq, value=-res.value,
                    dual_eq=np.zeros(0), dual_ub=-res.x[:m],
                    iterations=res.iterations)


def lp_min_max(h, G, b=None, block=None):
    """min over w of sum_k max(0, max_{j in k} (h_j + (G w)_j) / b_j), the
    blocks k = ``block[j]`` numbered from 0 (one block by default), through
    ``lp_min_halfspaces`` in the variables (w, t) with one t_k per block:
    G w - b_j t_{block[j]} <= -h_j, t >= 0.

    ``b >= 0`` defaults to ones; b_j = 0 makes row j the hard constraint
    h_j + (G w)_j <= 0, and the status infeasible where no w meets them.
    Returns the LpResult with ``x = w``; its ``value`` is the min-max.
    """
    G = np.asarray(G, dtype=float)
    k = G.shape[1]
    b = np.ones(len(G)) if b is None else np.asarray(b, dtype=float)
    block = np.zeros(len(G), int) if block is None else np.asarray(block)
    m = int(block.max(initial=0)) + 1
    E = np.zeros((len(G), m))
    E[np.arange(len(G)), block] = b
    c = np.zeros(k + m)
    c[k:] = 1.0
    res = lp_min_halfspaces(c, np.hstack([G, -E]),
                            -np.asarray(h, dtype=float),
                            bounds=[(None, None)] * k + [(0, None)] * m)
    if res.status == OPTIMAL:
        res.x = res.x[:k]
    return res


def lp_minimize_linf(M, q):
    """min_w || M w + q ||_inf, a Chebyshev problem used by analysis gauges.

    Returns (value, w).  M may have zero columns, in which case the value is
    just ||q||_inf.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    r, k = M.shape
    if k == 0 or r == 0:
        return float(np.max(np.abs(q), initial=0.0)), np.zeros(k)
    # ||M w + q||_inf is the max of the rows +-(M w + q)
    res = lp_min_max(np.concatenate([q, -q]), np.vstack([M, -M]))
    if res.status != OPTIMAL:
        raise LpNumericalError(f"Chebyshev LP ended with status {res.status}")
    return float(res.value), res.x
