"""scipy is imported on first use.  A fresh process that imports gaugerec
and runs only numpy paths (a noiseless max-abs solve, the l1 certificates,
``lp_min_max``) never loads ``scipy.linalg`` or ``scipy.spatial``; the
calls that do load them (a hull, the l1 path's Cholesky factors) give the
same bits as in this process.

Run as a script, this file prints the fresh process's record as JSON.
"""

import json
import os
import subprocess
import sys

import numpy as np

import gaugerec
from gaugerec import (L1, Linf, Polytope, decompose_l1, irrepresentability,
                      solve_noiseless, solve_penalized, stability_constants)
from gaugerec.lp import lp_min_max

LAZY = ("scipy.linalg", "scipy.spatial")


def _bits(v):
    if isinstance(v, np.ndarray):
        return v.tobytes().hex()
    if isinstance(v, float):
        return v.hex()
    return repr(v)


def _fields(obj):
    return {k: _bits(v) for k, v in sorted(vars(obj).items())}


def _numpy_paths():
    rng = np.random.default_rng(34)
    x0 = np.zeros(16)
    x0[:4] = [1.0, -1.0, 1.0, 0.5]
    Phi = rng.standard_normal((12, 16))
    linf = solve_noiseless(Phi, Phi @ x0, Linf(16))
    md, params = decompose_l1(x0)
    ic = irrepresentability(Phi, md)
    sc = stability_constants(Phi, md, params)
    mm = lp_min_max(rng.standard_normal(10), rng.standard_normal((10, 3)))
    return {"noiseless_linf": _fields(linf), "ic": _fields(ic),
            "stability": _fields(sc), "min_max": _bits(mm.x) + _bits(mm.value)}


def _scipy_paths():
    P = Polytope.from_vertices(np.random.default_rng(3).standard_normal((12, 3)))
    res = solve_penalized([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [5.0, 0.0], 0.5,
                          L1(3))
    return {"hull": [_bits(P.vertices), _bits(P.normals), _bits(P.offsets)],
            "penalized_l1": _fields(res)}


def _loaded():
    return [name for name in LAZY if name in sys.modules]


def _fresh_process_record():
    record = {"after_import": _loaded(), "numpy": _numpy_paths(),
              "after_numpy": _loaded()}
    record["scipy"] = _scipy_paths()
    record["after_scipy"] = _loaded()
    return record


def test_numpy_paths_load_no_scipy_and_lazy_calls_match():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gaugerec.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, os.path.abspath(__file__)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    fresh = json.loads(done.stdout)
    assert fresh["after_import"] == []
    assert fresh["after_numpy"] == []
    assert fresh["after_scipy"] == list(LAZY)
    assert fresh["numpy"] == _numpy_paths()
    assert fresh["scipy"] == _scipy_paths()
    assert fresh["scipy"]["penalized_l1"]["method"] == repr("path")


if __name__ == "__main__":
    print(json.dumps(_fresh_process_record()))
