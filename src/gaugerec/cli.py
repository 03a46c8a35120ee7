"""Command-line front end.

Subcommands: ``decompose`` (model decomposition of a vector), ``certify``
(precertificate and identifiability verdict), ``solve`` (penalized or
equality-constrained recovery), ``experiment`` (Monte-Carlo sweeps, CSV +
JSON sidecar), ``polar`` (polar-calculus identity checks).

Exit codes: 0 success / identifiable; 2 validation failure; 3 not
identifiable; 4 inconclusive certificate, or a linear program that ended
in numerical trouble; 5 solver non-convergence; 6 identity check failure.
All structured output is JSON with sorted keys.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .gauges import (L1, Linf, GroupL1L2, PolyhedralH, BlockPartition,
                     UnsupportedGaugeError)
from .linalg import NoBoundRouteError
from .lp import LpNumericalError, lp_min_halfspaces, lp_min_max, OPTIMAL
from .model import (decompose, decompose_l1, decompose_polyhedral, tv1d_gauge,
                    DegenerateModelError)
from .certificates import irrepresentability, RestrictedInjectivityError
from .solvers import (solve_penalized, solve_noiseless, SolveOptions,
                      SolverError)
from . import experiments as exp
from . import polytopes as poly

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_IDENTIFIABLE = 3
EXIT_INCONCLUSIVE = 4
EXIT_NO_CONVERGENCE = 5
EXIT_IDENTITY_FAILED = 6


class CliError(Exception):
    def __init__(self, message, code=EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _emit(payload, out=None):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json_arg(arg, kind="value"):
    """Inline JSON if the argument looks like JSON, else a file path;
    an already-parsed value is returned as is."""
    if arg is None:
        raise CliError(f"missing {kind}")
    if not isinstance(arg, str):
        return arg
    s = arg.strip()
    if s.startswith("[") or s.startswith("{"):
        try:
            return json.loads(s)
        except json.JSONDecodeError as exc:
            raise CliError(f"bad inline JSON for {kind}: {exc}")
    if not os.path.exists(arg):
        raise CliError(f"no such file for {kind}: {arg}")
    with open(arg) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliError(f"bad JSON in {arg}: {exc}")


def _vector(arg, kind="vector"):
    data = _load_json_arg(arg, kind)
    v = np.asarray(data, dtype=float)
    if v.ndim != 1:
        raise CliError(f"{kind} must be a flat JSON array")
    if not np.all(np.isfinite(v)):
        raise CliError(f"{kind} has non-finite entries")
    return v


def _matrix(arg, kind="matrix"):
    data = _load_json_arg(arg, kind)
    m = np.asarray(data, dtype=float)
    if m.ndim != 2:
        raise CliError(f"{kind} must be a JSON array of rows")
    if not np.all(np.isfinite(m)):
        raise CliError(f"{kind} has non-finite entries")
    return m


def _build_gauge(args, n):
    reg = args.reg
    if reg == "l1":
        return L1(n)
    if reg == "linf":
        return Linf(n)
    if reg == "group":
        if not args.blocks:
            raise CliError("--reg group needs --blocks")
        blocks = _load_json_arg(args.blocks, "blocks")
        return GroupL1L2(BlockPartition(blocks, n))
    if reg == "tv1d":
        return tv1d_gauge(n)
    if reg == "polyhedral":
        if not args.hmat:
            raise CliError("--reg polyhedral needs --hmat")
        return PolyhedralH(_matrix(args.hmat, "hmat"))
    raise CliError(f"unknown regularizer {reg!r}")


def _check_reg_flags(args):
    """--blocks applies to --reg group only and --hmat to --reg polyhedral
    only; a flag given with another --reg is rejected, not ignored."""
    for flag, value, reg in (("--blocks", args.blocks, "group"),
                             ("--hmat", args.hmat, "polyhedral")):
        if value is not None and args.reg != reg:
            raise CliError(f"{flag} applies to --reg {reg} only")


def _subspace_payload(md):
    return {
        "dim_T": md.T.dim,
        "dim_S": md.S.dim,
        "T_basis": md.T.basis.tolist(),
        "S_basis": md.S.basis.tolist(),
        "e": md.e.tolist(),
        "f": md.f.tolist(),
    }


def cmd_decompose(args):
    if args.analysis_domain and args.reg != "polyhedral":
        raise CliError("--analysis-domain applies to --reg polyhedral only")
    if args.mu_choice is not None and not args.analysis_domain:
        raise CliError("--mu-choice applies with --analysis-domain only")
    _check_reg_flags(args)
    x = _vector(args.x, "--x")
    try:
        if args.analysis_domain:
            # an unset --mu-choice leaves decompose_polyhedral's default
            kw = {} if args.mu_choice is None else {"mu_choice": args.mu_choice}
            md, _ = decompose_polyhedral(x, delta=args.delta, **kw)
        else:
            md = decompose(_build_gauge(args, len(x)), x, delta=args.delta)
    except DegenerateModelError as exc:
        raise CliError(f"degenerate input: {exc}")
    payload = _subspace_payload(md)
    try:
        p = md.params
    except NoBoundRouteError as exc:
        _emit(payload, args.out)
        print(f"error: no stability parameters: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    payload.update({"nu": p.nu, "mu": p.mu, "tau": p.tau, "xi": p.xi,
                    "exact": p.exact})
    _emit(payload, args.out)
    return EXIT_OK


def cmd_certify(args):
    _check_reg_flags(args)
    x = _vector(args.x, "--x")
    Phi = _matrix(args.phi, "--phi")
    if Phi.shape[1] != len(x):
        raise CliError("Phi column count must match the length of x")
    try:
        md = decompose(_build_gauge(args, len(x)), x)
    except DegenerateModelError as exc:
        raise CliError(f"degenerate input: {exc}")
    try:
        report = irrepresentability(Phi, md)
    except RestrictedInjectivityError as exc:
        _emit({"ic": None, "identifiable": False,
               "restricted_injective": False, "alpha_f": [],
               "method": "exact", "reason": str(exc)}, args.out)
        return EXIT_INCONCLUSIVE
    _emit(report.to_json_dict(), args.out)
    if report.identifiable:
        return EXIT_OK
    if report.method != "exact":
        return EXIT_INCONCLUSIVE
    return EXIT_NOT_IDENTIFIABLE


def cmd_solve(args):
    _check_reg_flags(args)
    Phi = _matrix(args.phi, "--phi")
    y = _vector(args.y, "--y")
    g = _build_gauge(args, Phi.shape[1])
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    try:
        if args.mode == "penalized":
            if args.lam is None or args.lam <= 0:
                raise CliError("--lambda must be positive for penalized mode")
            res = solve_penalized(Phi, y, args.lam, g, opts)
        else:
            res = solve_noiseless(Phi, y, g, opts)
    except (ValueError, UnsupportedGaugeError, SolverError) as exc:
        raise CliError(str(exc))
    _emit(res.to_json_dict(), args.out)
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


# -- experiments ------------------------------------------------------------

_CONFIG_SCHEMAS = {
    "cs-linf": {"required": {"kind", "n", "i_size", "trials", "seed"},
                "optional": {"q", "beta"}},
    "phase-transition": {"required": {"kind", "n", "i_size", "trials", "seed",
                                      "q_grid"},
                         "optional": {"mode"}},
    "model-selection": {"required": {"kind", "phi", "x", "noise_levels",
                                     "lambda_grid", "trials", "seed"},
                        "optional": {"reg"}},
}


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or isinstance(v, float)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(map(ok, v))


# the type of each schema key that the CLI does not parse itself
_INT = ("an integer", _is_int)
_NUMBERS = ("a list of numbers", _list_of(_is_number))
_CONFIG_TYPES = {"n": _INT, "i_size": _INT, "trials": _INT, "seed": _INT,
                 "q": _INT, "beta": ("a number", _is_number),
                 "q_grid": ("a list of integers", _list_of(_is_int)),
                 "noise_levels": _NUMBERS, "lambda_grid": _NUMBERS}


def _validate_config(cfg):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise CliError("config must be an object with a 'kind' key")
    kind = cfg["kind"]
    schema = _CONFIG_SCHEMAS.get(kind)
    if schema is None:
        raise CliError(f"unknown experiment kind {kind!r}")
    keys = set(cfg)
    missing = schema["required"] - keys
    unknown = keys - schema["required"] - schema["optional"]
    if missing:
        raise CliError(f"config missing keys: {sorted(missing)}")
    if unknown:
        raise CliError(f"config has unknown keys: {sorted(unknown)}")
    for key in sorted(keys & set(_CONFIG_TYPES)):
        what, ok = _CONFIG_TYPES[key]
        if not ok(cfg[key]):
            raise CliError(f"config key {key!r} must be {what}, "
                           f"got {cfg[key]!r}")
    return kind


def _run_experiment(kind, cfg, jobs):
    """The sweep of a validated experiment config."""
    if kind == "cs-linf":
        beta = cfg.get("beta", 2.0)
        q = cfg.get("q")
        if q is None:
            q, _ = exp.cs_linf_bound(cfg["n"], cfg["i_size"], beta)
        return exp.run_linf_cs_trials(cfg["n"], q, cfg["i_size"],
                                      cfg["trials"], cfg["seed"], beta=beta,
                                      jobs=jobs)
    if kind == "phase-transition":
        return exp.phase_transition_sweep(
            cfg["n"], cfg["i_size"], cfg["q_grid"], cfg["trials"],
            cfg["seed"], mode=cfg.get("mode", "ic"), jobs=jobs)
    if cfg.get("reg", "l1") != "l1":
        raise CliError("model-selection config supports reg 'l1'")
    Phi = _matrix(cfg["phi"], "phi")
    x0 = _vector(cfg["x"], "x")
    md, p = decompose_l1(x0)
    return exp.model_selection_sweep(
        Phi, x0, md, p, cfg["noise_levels"], cfg["lambda_grid"],
        cfg["trials"], cfg["seed"], jobs=jobs)


def cmd_experiment(args):
    if args.experiment == "from-config":
        cfg = _load_json_arg(args.config, "--config")
    else:
        # the subcommand's flags, as the config that from-config reads
        schema = _CONFIG_SCHEMAS[args.experiment]
        flags = dict(vars(args), kind=args.experiment)
        if args.experiment == "phase-transition":
            flags["q_grid"] = list(range(args.q_min, args.q_max + 1,
                                         args.q_step))
        # an optional flag left unset is left out, as in a config file
        cfg = {k: flags[k] for k in schema["required"] | schema["optional"]
               if flags[k] is not None}
    kind = _validate_config(cfg)
    try:
        sweep = _run_experiment(kind, cfg, args.jobs)
    except exp.TrialNotConvergedError as exc:
        raise CliError(str(exc), EXIT_NO_CONVERGENCE)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, kind.replace("-", "_"))
    sweep.write_csv(stem + ".csv")
    sweep.write_config_json(stem + ".json", version=__version__)
    _emit({"csv": stem + ".csv", "json": stem + ".json",
           "cells": [{"params": c.params, "frequency": c.frequency}
                     for c in sweep.cells]})
    return EXIT_OK


# -- polar identities --------------------------------------------------------

def _worst_gap(pairs):
    """Largest relative gap |a - b| / (1 + |b|) over the (a, b) pairs."""
    worst = 0.0
    for a, b in pairs:
        worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    return worst


def _check_identity(name, P1, P2, seed):
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((200, P1.dim))
    tol = 1e-5

    def close(A, B):
        worst = _worst_gap((A.support(u), B.support(u)) for u in dirs)
        return worst <= tol, worst

    if name == "bipolar":
        return close(P1.polar().polar(), P1)
    if name == "intersection":
        lhs = poly.polytope_intersection_polar(P1, P2)
        rhs = P1.intersection(P2).polar()
        return close(lhs, rhs)
    if name == "scaling":
        rho = 2.0
        return close(P1.scale(rho).polar(), P1.polar().scale(1.0 / rho))
    if name == "minkowski-gauge":
        S = P1.minkowski_sum(P2)
        worst = _worst_gap((poly.minkowski_sum_gauge(P1, P2, u), S.gauge(u))
                           for u in dirs[:50])
        return worst <= tol, worst
    if name == "linear-image":
        D = rng.standard_normal((P1.dim, P1.dim))
        img = P1.linear_image(D)
        worst = _worst_gap((poly.linear_image_gauge(P1, D, u), img.gauge(u))
                           for u in dirs[:50])
        return worst <= tol, worst
    if name == "inverse-sum":
        ok, worst = poly.inverse_sum_polar_check(P1, P2, directions=200,
                                                 seed=seed)
        return ok, worst
    if name == "cone-sum":
        return _cone_sum_check(P1, rng)
    raise CliError(f"unknown identity {name!r}")


def _cone_sum_check(D_poly, rng):
    """(C + D)_polar vs C_polar ∩ D_polar for the cone C spanned by d + 2
    random unit generators g_i (the rows of G), by one LP a side at each
    direction u:

        support of (C + D)_polar at u = gauge of C + D at u
            = min t  s.t.  u - G^T lam in t D,  lam >= 0       (D's H-rep)
        support of C_polar ∩ D_polar at u
            = max <u, y>  s.t.  G y <= 0,  y in D_polar   (D_polar's H-rep)

    Neither side truncates C or enumerates C_polar, which is {0} when the
    g_i positively span the space."""
    d = D_poly.dim
    gens = rng.standard_normal((d + 2, d))
    gens /= np.linalg.norm(gens, axis=1, keepdims=True)
    dirs = rng.standard_normal((100, d))
    Dp = D_poly.polar()
    worst = _worst_gap((_cone_sum_gauge(gens, D_poly, u),
                        _cone_polar_cap_support(gens, Dp, u)) for u in dirs)
    return worst <= 0.05, worst


def _cone_sum_gauge(gens, D_poly, u):
    """Gauge of cone(gens) + D_poly at u (+inf if the LP does not solve):
    min t over lam >= 0 with <a, u - G^T lam> <= t b for each facet (a, b)
    of D, and lam >= 0 as rows of offset 0."""
    k = len(gens)
    res = lp_min_max(np.concatenate([D_poly.normals @ u, np.zeros(k)]),
                     np.vstack([-D_poly.normals @ gens.T, -np.eye(k)]),
                     np.concatenate([D_poly.offsets, np.zeros(k)]))
    return float(res.value) if res.status == OPTIMAL else np.inf


def _cone_polar_cap_support(gens, Q, u):
    """Support at u of {y : G y <= 0} ∩ Q, from Q's H-rep (+inf if the LP
    does not solve)."""
    res = lp_min_halfspaces(-u, np.vstack([gens, Q.normals]),
                            np.concatenate([np.zeros(len(gens)), Q.offsets]),
                            bounds=[(None, None)] * len(u))
    return -float(res.value) if res.status == OPTIMAL else np.inf


def cmd_polar(args):
    if args.polytope:
        P1 = poly.Polytope.from_json_dict(_load_json_arg(args.polytope,
                                                         "--polytope"))
        P2 = poly.random_polytope(P1.dim, seed=args.seed + 1)
    else:
        P1 = poly.random_polytope(args.dim, seed=args.seed)
        P2 = poly.random_polytope(args.dim, seed=args.seed + 1)
    names = ([args.identity] if args.identity != "all" else
             ["bipolar", "intersection", "scaling", "minkowski-gauge",
              "linear-image", "inverse-sum", "cone-sum"])
    results = {}
    all_ok = True
    for name in names:
        ok, worst = _check_identity(name, P1, P2, args.seed)
        results[name] = {"pass": bool(ok), "worst_gap": float(worst)}
        all_ok = all_ok and ok
    _emit(results, args.out)
    return EXIT_OK if all_ok else EXIT_IDENTITY_FAILED


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gaugerec",
        description="Model subspaces, dual certificates and recovery for "
                    "low-complexity convex regularizers.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_reg(p):
        p.add_argument("--reg", required=True,
                       choices=["l1", "linf", "group", "tv1d", "polyhedral"])
        p.add_argument("--blocks", help="JSON list of index blocks (group)")
        p.add_argument("--hmat", help="JSON matrix of directions (polyhedral)")

    d = sub.add_parser("decompose", help="model decomposition at a point")
    add_reg(d)
    d.add_argument("--x", required=True)
    d.add_argument("--delta", type=float, default=0.5)
    d.add_argument("--mu-choice", type=float,
                   help="anchor weight in (0, 1) of --analysis-domain "
                        "(default 0.5)")
    d.add_argument("--analysis-domain", action="store_true",
                   help="treat --x as a point of the polyhedral analysis domain")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_decompose)

    c = sub.add_parser("certify", help="identifiability certificate")
    add_reg(c)
    c.add_argument("--x", required=True)
    c.add_argument("--phi", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_certify)

    s = sub.add_parser("solve", help="penalized or noiseless recovery")
    add_reg(s)
    s.add_argument("--mode", choices=["penalized", "noiseless"],
                   required=True)
    s.add_argument("--phi", required=True)
    s.add_argument("--y", required=True)
    s.add_argument("--lambda", dest="lam", type=float)
    s.add_argument("--tol", type=float, default=1e-8)
    s.add_argument("--max-iter", type=int, default=200000)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_solve)

    e = sub.add_parser("experiment", help="Monte-Carlo sweeps")
    esub = e.add_subparsers(dest="experiment", required=True)
    e1 = esub.add_parser("cs-linf")
    e1.add_argument("--n", type=int, required=True)
    e1.add_argument("--i-size", type=int, required=True)
    e1.add_argument("--beta", type=float, default=2.0)
    e1.add_argument("--q", type=int)
    e1.add_argument("--trials", type=int, default=1000)
    e2 = esub.add_parser("phase-transition")
    e2.add_argument("--n", type=int, required=True)
    e2.add_argument("--i-size", type=int, required=True)
    e2.add_argument("--q-min", type=int, required=True)
    e2.add_argument("--q-max", type=int, required=True)
    e2.add_argument("--q-step", type=int, default=2)
    e2.add_argument("--trials", type=int, default=200)
    e2.add_argument("--mode", choices=["ic", "noiseless_recovery"],
                    default="ic")
    e3 = esub.add_parser("from-config")
    e3.add_argument("--config", required=True)
    for p in (e1, e2, e3):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out")
    e.set_defaults(fn=cmd_experiment)

    pl = sub.add_parser("polar", help="verify polar-calculus identities")
    pl.add_argument("--identity", default="all",
                    choices=["all", "bipolar", "intersection", "scaling",
                             "minkowski-gauge", "linear-image", "inverse-sum",
                             "cone-sum"])
    pl.add_argument("--dim", type=int, default=3)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--polytope", help="Polytope JSON file")
    pl.add_argument("--out")
    pl.set_defaults(fn=cmd_polar)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, poly.PolytopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except LpNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
