"""The benchmark's four workloads: input generators and items.

Each workload is a fixed rotation of item kinds.  Item ``i`` of a run with
seed ``s`` draws its inputs from ``default_rng([s, key, i])``, with ``key``
fixed per workload, so the same seed gives the same inputs; the library
only ever receives arrays and gauges built from them.
``Workload.run_item`` performs one item and returns ``None`` when every
correctness check holds, or a short reason string when an output is wrong.
An item that produces no output (the library raised, or a solver reported
that it did not converge) raises; the caller counts it as failed with the
exception's ``repr``.

Library functions are always looked up on their module at call time
(``solvers.solve_penalized``, never a name imported into this file), so the
traced mode, which replaces module attributes, sees every call.
"""

import numpy as np

from gaugerec import certificates, gauges, linalg, model, polytopes, solvers


class NotConverged(RuntimeError):
    """The solver returned with ``converged=False``."""


class Workload:
    """A named rotation of item kinds with a generator and an item runner."""

    def __init__(self, name, key, rotation, make, run, trace_rounds,
                 round_s=1.0):
        self.name = name
        self.key = key
        self.rotation = tuple(rotation)
        self._make = make
        self._run = run
        self.trace_rounds = trace_rounds
        # nominal seconds of one round, used only to size untraced runs
        self.round_s = round_s

    def make_instance(self, seed, i):
        """Inputs of item ``i`` under ``seed``: a dict of arrays and gauges."""
        rng = np.random.default_rng([int(seed), self.key, int(i)])
        kind = self.rotation[i % len(self.rotation)]
        inst = self._make(rng, kind)
        inst["kind"] = kind
        return inst

    def run_item(self, inst):
        """Run one item; ``None`` if its outputs passed every check, else
        the reason an output is wrong."""
        return self._run(inst)


# ---------------------------------------------------------------------------
# phase_transition: noiseless max-abs recovery at N = 64, |I| = 16
# ---------------------------------------------------------------------------

PT_N, PT_I = 64, 16
# Q spans the recovery transition near N - |I|/2 = 56; every Q is at least
# the model-subspace dimension N - |I| + 1 = 49, so restricted injectivity
# holds generically and every item reaches the irrepresentability step.
PT_Q = (50, 52, 54, 56, 58, 60)


def _make_phase(rng, Q):
    x0 = np.zeros(PT_N)
    idx = rng.choice(PT_N, size=PT_I, replace=False)
    x0[idx] = rng.choice([-1.0, 1.0], size=PT_I)
    rest = np.setdiff1d(np.arange(PT_N), idx)
    x0[rest] = rng.uniform(-0.5, 0.5, size=PT_N - PT_I)
    Phi = rng.standard_normal((Q, PT_N))
    return {"x0": x0, "Phi": Phi, "y": Phi @ x0, "gauge": gauges.Linf(PT_N)}


def _run_phase(inst):
    x0, Phi, y = inst["x0"], inst["Phi"], inst["y"]
    md, _ = model.decompose_linf(x0)
    if linalg.restricted_injectivity(Phi, md.T):
        certificates.irrepresentability(Phi, md)
    res = solvers.solve_noiseless(Phi, y, inst["gauge"])
    x_hat = res.x_hat
    if np.linalg.norm(Phi @ x_hat - y) > 1e-8 * (1.0 + np.linalg.norm(y)):
        return "Phi x_hat != y beyond 1e-8 relative"
    if np.max(np.abs(x_hat)) > np.max(np.abs(x0)) + 1e-9:
        return "||x_hat||_inf exceeds ||x0||_inf + 1e-9"
    return None


# ---------------------------------------------------------------------------
# penalized_mix: the prox / optimality coupling family (n = 20, q = 12)
# ---------------------------------------------------------------------------

PM_N, PM_Q = 20, 12
PM_PART = gauges.BlockPartition([[2 * b, 2 * b + 1] for b in range(10)], PM_N)


def _make_penalized(rng, kind):
    n, q = PM_N, PM_Q
    Phi = rng.standard_normal((q, n))
    xs = rng.standard_normal(n)
    if kind == "l1":
        g = gauges.L1(n)
        xs[rng.choice(n, 10, replace=False)] = 0.0
    elif kind == "group":
        g = gauges.GroupL1L2(PM_PART)
        for b in rng.choice(10, 5, replace=False):
            xs[2 * b:2 * b + 2] = 0.0
    elif kind == "linf":
        g = gauges.Linf(n)
    elif kind == "tv":
        g = model.tv1d_gauge(n)
        xs = np.repeat(rng.standard_normal(4), 5)
    else:
        g = gauges.PolyhedralH(rng.standard_normal((n, 24)))
    y = Phi @ xs + 0.1 * rng.standard_normal(q)
    lam = float(rng.uniform(0.2, 1.2))
    tol = 1e-8 if kind in ("l1", "group", "linf") else 1e-7
    return {"Phi": Phi, "y": y, "lam": lam, "gauge": g, "tol": tol}


def _run_penalized(inst):
    Phi, y, lam, g = inst["Phi"], inst["y"], inst["lam"], inst["gauge"]
    res = solvers.solve_penalized(
        Phi, y, lam, g, solvers.SolveOptions(tol=inst["tol"], max_iter=120000))
    if not res.converged:
        raise NotConverged(f"not converged after {res.iterations} iterations")
    if np.max(np.abs(res.x_hat)) == 0.0:
        verdict = certificates.check_noisy_optimality(
            Phi, y, lam, res.x_hat, gauge=g, eq_tol=1e-6)
    else:
        md = model.decompose(g, res.x_hat)
        verdict = certificates.check_noisy_optimality(
            Phi, y, lam, res.x_hat, md=md, eq_tol=1e-6)
    if verdict == certificates.NOT_OPTIMAL:
        return "first-order check says not_optimal"
    return None


# ---------------------------------------------------------------------------
# certify_lambda: certified lambda range for l1 / linf / group / tv
# ---------------------------------------------------------------------------

CL_L1 = (40, 25, 5)          # N, Q, |I|
CL_LINF = (20, 18, 5)        # N, Q, saturated entries; dim T = 16
CL_GROUP = (20, 12, 3)       # N, Q, active blocks of 2; dim T = 6
CL_TV = (20, 12, 4)          # N, Q, constant pieces; dim T = 4
CL_PART = gauges.BlockPartition([[2 * b, 2 * b + 1] for b in range(10)], 20)
IC_CLOSED_FORM_TOL = 1e-7


def _make_certify(rng, kind):
    if kind == "l1":
        N, Q, k = CL_L1
        x0 = np.zeros(N)
        idx = rng.choice(N, k, replace=False)
        x0[idx] = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k)
    elif kind == "linf":
        N, Q, k = CL_LINF
        x0 = rng.uniform(-0.5, 0.5, N)
        x0[rng.choice(N, k, replace=False)] = rng.choice([-1.0, 1.0], k)
    elif kind == "group":
        N, Q, k = CL_GROUP
        x0 = np.zeros(N)
        for b in rng.choice(N // 2, k, replace=False):
            x0[2 * b:2 * b + 2] = rng.standard_normal(2) + 2.0
    else:
        N, Q, k = CL_TV
        x0 = np.repeat(rng.standard_normal(k), N // k)
    Phi = rng.standard_normal((Q, N))
    return {"x0": x0, "Phi": Phi}


def _closed_form_ic(Phi, md, e):
    """Criterion-6 closed forms: Fuchs for l1, blockwise for group."""
    I = sorted(int(j) for j in md.T.coord_idx)
    Ic = [j for j in range(Phi.shape[1]) if j not in set(I)]
    v = linalg.svd_pinv(Phi[:, I]).T @ e[I]
    corr = Phi.T @ v
    return corr, Ic


def _run_certify(inst):
    x0, Phi = inst["x0"], inst["Phi"]
    kind = inst["kind"]
    N = x0.shape[0]
    if kind == "l1":
        md, p = model.decompose_l1(x0)
    elif kind == "linf":
        md, p = model.decompose_linf(x0)
    elif kind == "group":
        md, p = model.decompose_group(x0, CL_PART)
    else:
        g = model.tv1d_gauge(N)
        D = g.dstar.T
        md0, p0 = model.decompose_l1(g.dstar @ x0)
        md = model.precompose(md0, D, x0)
        p = model.psfl_precompose(p0, D, md0, md)
    rep = certificates.irrepresentability(Phi, md)
    if kind == "l1":
        corr, Ic = _closed_form_ic(Phi, md, np.sign(x0))
        closed = float(np.max(np.abs(corr[Ic]), initial=0.0))
    elif kind == "group":
        corr, Ic = _closed_form_ic(Phi, md, md.e)
        inactive = set(Ic)
        closed = max((float(np.linalg.norm(corr[b])) for b in CL_PART
                      if int(b[0]) in inactive), default=0.0)
    else:
        closed = None
    if closed is not None and abs(rep.ic_value - closed) > IC_CLOSED_FORM_TOL:
        return (f"IC {rep.ic_value:.12g} misses the closed form "
                f"{closed:.12g} by more than {IC_CLOSED_FORM_TOL:g}")
    const = certificates.stability_constants(Phi, md, p)
    budget = const.noise_budget
    eps = 0.5 * budget if np.isfinite(budget) and budget > 0 else 1e-3
    lo, hi = const.lambda_range(eps)
    if np.isfinite(lo) and np.isfinite(hi) and lo > hi:
        return f"malformed lambda range [{lo:.6g}, {hi:.6g}]"
    return None


# ---------------------------------------------------------------------------
# polar_calculus: polar-set identities on random polytope pairs, dims 2-5
# ---------------------------------------------------------------------------

POLAR_TOL = 1e-5
POLAR_SUPPORT_DIRS = 60
POLAR_GAUGE_DIRS = 5
POLAR_INVERSE_DIRS = 200


def _polytope_points(rng, d):
    pts = rng.standard_normal((d + 4, d))
    return np.vstack([pts, -0.7 * pts])


def _make_polar(rng, d):
    return {"pts1": _polytope_points(rng, d), "pts2": _polytope_points(rng, d),
            "dirs": rng.standard_normal((POLAR_SUPPORT_DIRS, d)),
            "D": rng.standard_normal((d, d)),
            "inv_seed": int(rng.integers(2 ** 31))}


def _support_gap(A, B, dirs):
    return max(abs(A.support(u) - B.support(u)) / (1 + abs(B.support(u)))
               for u in dirs)


def _run_polar(inst):
    P1 = polytopes.Polytope.from_vertices(inst["pts1"])
    P2 = polytopes.Polytope.from_vertices(inst["pts2"])
    dirs, D = inst["dirs"], inst["D"]
    gaps = {
        "bipolar": _support_gap(P1.polar().polar(), P1, dirs),
        "intersection": _support_gap(
            polytopes.polytope_intersection_polar(P1, P2),
            P1.intersection(P2).polar(), dirs),
        "scaling": _support_gap(P1.scale(2.0).polar(), P1.polar().scale(0.5),
                                dirs),
    }
    S = P1.minkowski_sum(P2)
    gaps["minkowski"] = max(
        abs(polytopes.minkowski_sum_gauge(P1, P2, u) - S.gauge(u))
        / (1 + abs(S.gauge(u))) for u in dirs[:POLAR_GAUGE_DIRS])
    img = P1.linear_image(D)
    gaps["linear-image"] = max(
        abs(polytopes.linear_image_gauge(P1, D, u) - img.gauge(u))
        / (1 + abs(img.gauge(u))) for u in dirs[:POLAR_GAUGE_DIRS])
    ok, worst = polytopes.inverse_sum_polar_check(
        P1, P2, directions=POLAR_INVERSE_DIRS, seed=inst["inv_seed"])
    if not ok:
        gaps["inverse-sum"] = worst
    bad = {k: v for k, v in gaps.items() if not v <= POLAR_TOL}
    if bad:
        return "identity gaps above 1e-5: " + ", ".join(
            f"{k}={v:.2e}" for k, v in sorted(bad.items()))
    return None


WORKLOADS = {w.name: w for w in (
    Workload("phase_transition", 1, PT_Q, _make_phase, _run_phase,
             trace_rounds=20, round_s=0.28),
    # a FISTA item (l1 / group / linf) takes ~0.02-0.07 s and a tv or poly
    # item 0.05 s to over 1 s, heavy-tailed; five of each FISTA kind per
    # tv and poly item keeps the median inside the FISTA band, so it does
    # not swing with the share of slow tv / poly instances a seed draws
    Workload("penalized_mix", 9,
             ("l1", "group", "linf") * 5 + ("tv", "poly"),
             _make_penalized, _run_penalized, trace_rounds=4, round_s=1.2),
    # an l1 item takes ~3 ms and a linf / group / tv item ~0.7-1.8 s, so
    # 20 l1 items ride with the three slow ones: a run then holds 115 items
    # or more and its p90 falls among the slow kinds.  The l1 items come in
    # three runs, one after each slow item, so that each run of them gets
    # a fresh reference time
    Workload("certify_lambda", 6,
             ("l1",) * 7 + ("linf",) + ("l1",) * 7 + ("group",)
             + ("l1",) * 6 + ("tv",),
             _make_certify, _run_certify, trace_rounds=2, round_s=3.3),
    # dimension 5 costs ~1.4 s a pair against ~0.03-0.13 s for 2-4, so it
    # comes once a round of seven
    Workload("polar_calculus", 7, (2, 3, 4, 2, 3, 4, 5), _make_polar,
             _run_polar, trace_rounds=4, round_s=1.9),
)}
