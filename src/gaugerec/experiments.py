"""Monte-Carlo harnesses: identifiability of max-abs regularization under
Gaussian sampling, the phase-transition sweep, and robust model selection
over the certified regularization range.

Per-trial randomness is drawn from a stream seeded by (master seed, cell
parameters, trial index) so results do not depend on execution order and a
config+seed pair reproduces bit-identical sweeps.
"""

import csv
import functools
import json
import math
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .linalg import check_finite
from .gauges import Linf
from .model import decompose_linf, decompose
from .certificates import (irrepresentability, stability_constants,
                           check_noisy_optimality, RestrictedInjectivityError)
from .solvers import solve_noiseless, solve_penalized, SolveOptions

CSV_HEADER = ["N", "Q", "I_size", "trials", "success", "frequency", "beta",
              "bound"]


class TrialNotConvergedError(RuntimeError):
    """A sweep trial's solve did not converge; the message names the cell
    and the trial."""


class TrialRecord:
    def __init__(self, seed, N, Q, I_size, regularizer, ic_value,
                 recovered_model, l2_error=float("nan"), lam=float("nan"),
                 noise_norm=float("nan")):
        self.seed = seed
        self.N = N
        self.Q = Q
        self.I_size = I_size
        self.regularizer = regularizer
        self.ic_value = ic_value
        self.recovered_model = bool(recovered_model)
        self.l2_error = l2_error
        self.lam = lam
        self.noise_norm = noise_norm


class SweepCell:
    def __init__(self, params, trials, success, beta=float("nan"),
                 bound=float("nan")):
        self.params = dict(params)
        self.trials = int(trials)
        self.success = int(success)
        self.beta = beta
        self.bound = bound

    @property
    def frequency(self):
        return self.success / self.trials if self.trials else float("nan")

    def csv_row(self):
        p = self.params
        return [p.get("N"), p.get("Q"), p.get("I_size"), self.trials,
                self.success, self.frequency, self.beta, self.bound]


class SweepResult:
    def __init__(self, config, cells, records=None):
        self.config = dict(config)
        self.cells = list(cells)
        self.records = records

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(CSV_HEADER)
            for cell in self.cells:
                w.writerow(cell.csv_row())

    def write_config_json(self, path, version="0.1.0"):
        payload = {"config": self.config, "version": version}
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def crossing(self, axis="Q", level=0.5):
        """Linear interpolation of the 50% crossing along the given axis."""
        pts = sorted((c.params[axis], c.frequency) for c in self.cells)
        for (q0, f0), (q1, f1) in zip(pts, pts[1:]):
            lo, hi = min(f0, f1), max(f0, f1)
            if lo <= level <= hi and f1 != f0:
                return q0 + (level - f0) * (q1 - q0) / (f1 - f0)
        return float("nan")


def cs_linf_bound(N, I_size, beta):
    """Measurement bound and success-probability floor for max-abs recovery.

    Returns (Q_min, prob_bound) with Q_min = ceil(N - |I| + 2 beta |I|
    log(|I|/2)) and prob_bound = 1 - 2 (|I|/2)^(-f) where
    f = (sqrt(beta/(2|I|) + beta - 1) - sqrt(beta/(2|I|)))^2.  Requires
    |I| >= 3 so that log(|I|/2) is positive and the bound binds.
    """
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    if I_size < 3:
        raise ValueError("the bound needs a saturation support of at least 3")
    q_min = int(math.ceil(N - I_size + 2.0 * beta * I_size *
                          math.log(I_size / 2.0)))
    prob = 1.0 - 2.0 * (I_size / 2.0) ** (-f_exponent(beta, I_size))
    return q_min, prob


def f_exponent(beta, I_size):
    return (math.sqrt(beta / (2.0 * I_size) + beta - 1.0)
            - math.sqrt(beta / (2.0 * I_size))) ** 2


def _trial_rng(seed, *keys):
    return np.random.default_rng([int(seed)] + [int(k) & 0x7FFFFFFF for k in keys])


def draw_saturated_signal(rng, N, I_size):
    """Saturated entries at +-1 with the rest uniform in (-0.5, 0.5)."""
    x = np.zeros(N)
    idx = rng.choice(N, size=I_size, replace=False)
    x[idx] = rng.choice([-1.0, 1.0], size=I_size)
    rest = np.setdiff1d(np.arange(N), idx)
    x[rest] = rng.uniform(-0.5, 0.5, size=N - I_size)
    return x


def _linf_trial(seed, N, Q, I_size, trial, mode):
    rng = _trial_rng(seed, N, Q, I_size, trial)
    x0 = draw_saturated_signal(rng, N, I_size)
    Phi = rng.standard_normal((Q, N))
    md, _ = decompose_linf(x0)
    try:
        rep = irrepresentability(Phi, md)
        ic, ident = rep.ic_value, rep.identifiable
    except RestrictedInjectivityError:   # Phi is not injective on T
        ic, ident = float("nan"), False
    if mode == "ic":
        return ic, ident, float("nan")
    y = Phi @ x0
    res = solve_noiseless(Phi, y, Linf(N))
    err = float(np.max(np.abs(res.x_hat - x0)))
    return ic, err <= 1e-6, err


def _apply(fn, args):
    return fn(*args)


def _map_trials(fn, cells, trials, jobs=1):
    """``[[fn(*cell, t) for t in range(trials)] for cell in cells]``, with
    the trials of all cells spread over up to ``jobs`` worker processes.

    ``jobs`` is capped at the CPU count.  Each trial draws from its own
    seeded stream and results keep their order, so the output does not
    depend on ``jobs``.  ``trials`` must be an integer of at least 1 and
    ``cells`` non-empty, else ``ValueError``.
    """
    if (isinstance(trials, bool) or not isinstance(trials, numbers.Integral)
            or trials < 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not cells:
        raise ValueError("the sweep has no cells")
    items = [(*cell, t) for cell in cells for t in range(trials)]
    fn = functools.partial(_apply, fn)
    jobs = min(max(1, int(jobs)), os.cpu_count() or 1)
    if jobs == 1:
        outs = list(map(fn, items))
    else:
        # spawned workers import afresh; forking a process with BLAS
        # threads is unsafe
        with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            outs = list(pool.map(fn, items))
    return [outs[i * trials:(i + 1) * trials] for i in range(len(cells))]


def run_linf_cs_trials(N, Q, I_size, trials, seed, beta=float("nan"), jobs=1):
    """One sweep cell: frequency of IC < 1 for saturated signals under a
    Gaussian ensemble.  Requires Q >= N - I_size + 1 (generic restricted
    injectivity on the model subspace).  ``jobs`` spreads the trials over
    worker processes without changing the result."""
    if Q < N - I_size + 1:
        raise ValueError("Q below the model-subspace dimension; the "
                         "restricted problem cannot be injective")
    sweep = phase_transition_sweep(N, I_size, [Q], trials, seed, jobs=jobs)
    bound = float("nan")
    if not math.isnan(beta) and I_size >= 3:
        _, bound = cs_linf_bound(N, I_size, beta)
    cell = sweep.cells[0]
    cell.beta, cell.bound = beta, bound
    return SweepResult({"N": N, "Q": Q, "I_size": I_size, "trials": trials,
                        "seed": seed, "beta": beta}, [cell], sweep.records)


def phase_transition_sweep(N, I_size, Q_grid, trials, seed, mode="ic",
                           jobs=1):
    """Success frequency per Q; ``mode`` is "ic" (criterion below one) or
    "noiseless_recovery" (exact LP recovery to 1e-6 in max-abs error).
    ``jobs`` spreads the trials over worker processes."""
    if mode not in ("ic", "noiseless_recovery"):
        raise ValueError("mode must be 'ic' or 'noiseless_recovery'")
    Q_grid = list(map(int, Q_grid))
    outs = _map_trials(functools.partial(_linf_trial, seed, N, mode=mode),
                       [(Q, I_size) for Q in Q_grid], trials, jobs)
    cells = [SweepCell({"N": N, "Q": Q, "I_size": I_size}, trials,
                       sum(bool(ok) for _, ok, _ in cell))
             for Q, cell in zip(Q_grid, outs)]
    records = [TrialRecord(seed, N, Q, I_size, "linf", ic, ok, l2_error=err)
               for Q, cell in zip(Q_grid, outs) for ic, ok, err in cell]
    return SweepResult({"N": N, "I_size": I_size, "Q_grid": Q_grid,
                        "trials": trials, "seed": seed, "mode": mode}, cells,
                       records)


def subspace_equal(T1, T2, tol=1e-6):
    """Equal dimensions and largest principal angle at most tol (radians)."""
    if T1.ambient_dim != T2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if T1.dim != T2.dim:
        return False
    if T1.dim == 0:
        return True
    M = T2.basis - T1.basis @ (T1.basis.T @ T2.basis)
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s[0] <= tol)


def _model_selection_trial(Phi, x0, gauge, T, seed, eps, lam, t):
    """(model recovered, uniqueness certified, l2 error) for one noise draw
    on the sphere of radius eps; ``TrialNotConvergedError`` when the solve
    does not converge, whose point would say nothing about recovery."""
    rng = _trial_rng(seed, int(1e6 * eps), int(1e6 * lam), t)
    w = rng.standard_normal(Phi.shape[0])
    nw = np.linalg.norm(w)
    w = (eps / nw) * w if nw > 0 and eps > 0 else np.zeros_like(w)
    y = Phi @ x0 + w
    res = solve_penalized(Phi, y, lam, gauge, SolveOptions(tol=1e-9))
    if not res.converged:
        raise TrialNotConvergedError(
            f"the solve of cell eps={float(eps)!r}, lambda={float(lam)!r}, "
            f"trial {t} did not converge ({res.iterations} iterations, "
            f"residuals {res.primal_residual:.3g}, "
            f"{res.dual_residual:.3g})")
    md_hat = decompose(gauge, res.x_hat)
    same = subspace_equal(md_hat.T, T)
    unique = check_noisy_optimality(Phi, y, lam, res.x_hat, md=md_hat,
                                    eq_tol=1e-6)
    err = float(np.linalg.norm(res.x_hat - x0))
    return same, unique == "unique_optimal", err


def model_selection_sweep(Phi, x0, md, p, noise_levels, lambda_grid, trials,
                          seed, jobs=1):
    """Noisy model recovery across (noise level, lambda) cells.

    Each trial draws noise uniformly on the sphere of the given radius,
    solves the penalized problem, and records whether the minimizer's model
    subspace matches the one of x0, whether uniqueness was certified, and
    the recovery error relative to max(noise, lambda).  The certified
    lambda interval from the stability constants rides along in the config.
    ``jobs`` spreads the trials over worker processes.  A trial whose solve
    does not converge raises ``TrialNotConvergedError``, naming its cell.
    """
    Phi = check_finite(Phi, "Phi")
    x0 = check_finite(x0, "x0")
    rep = irrepresentability(Phi, md)
    if not rep.identifiable:
        raise ValueError("criterion at x0 not strictly below one; "
                         "the sweep has no certified regime")
    const = stability_constants(Phi, md, p)
    grid = [(eps, lam) for eps in noise_levels for lam in lambda_grid]
    # the decomposition holds closures, so workers get its gauge and T only
    outs = _map_trials(functools.partial(_model_selection_trial, Phi, x0,
                                         md.gauge, md.T, seed),
                       grid, trials, jobs)
    name = type(md.gauge).__name__.lower()
    cells, records = [], []
    for (eps, lam), cell in zip(grid, outs):
        records += [TrialRecord(seed, Phi.shape[1], Phi.shape[0], md.T.dim,
                                name, rep.ic_value, same, l2_error=err,
                                lam=lam, noise_norm=eps)
                    for same, _, err in cell]
        cells.append(SweepCell({"N": Phi.shape[1], "Q": Phi.shape[0],
                                "I_size": md.T.dim, "eps": eps, "lambda": lam},
                               trials, sum(same and unique
                                           for same, unique, _ in cell)))
    config = {"trials": trials, "seed": seed, "ic": rep.ic_value,
              "noise_levels": list(map(float, noise_levels)),
              "lambda_grid": list(map(float, lambda_grid)),
              "certified": const.to_json_dict()}
    return SweepResult(config, cells, records)
