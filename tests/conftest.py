import numpy as np
import pytest

from gaugerec import solvers
from gaugerec.linalg import Subspace


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_subspace(rng, n, k):
    return Subspace.from_span(rng.standard_normal((n, k)))


def random_l1_instance(seed, N, Q, I_size, amp=(1.0, 2.0)):
    """(Phi, x0) with a random sparse sign pattern and Gaussian Phi."""
    r = np.random.default_rng(seed)
    x0 = np.zeros(N)
    idx = r.choice(N, I_size, replace=False)
    x0[idx] = r.choice([-1.0, 1.0], I_size) * r.uniform(*amp, I_size)
    Phi = r.standard_normal((Q, N))
    return Phi, x0


def tie_heavy_instance(seed):
    """(Phi, y, lam): integer Phi and y with entries in -3..3, of shape
    2x3 or 3x5, and lam in {0.1, 0.5, 1}."""
    r = np.random.default_rng([seed, 36])
    q, n = [(2, 3), (3, 5)][seed % 2]
    return r.integers(-3, 4, (q, n)).astype(float), \
        r.integers(-3, 4, q).astype(float), [0.1, 0.5, 1.0][(seed // 2) % 3]


def active_set_solve(Phi, y, lam, g, opts):
    """The active set on g's atom blocks, as solve_penalized returns it."""
    x, iterations = solvers._active_set(Phi, y, lam, *solvers._atom_blocks(g),
                                        opts)
    return solvers._tested(Phi, y, lam, g, x, iterations, opts.tol,
                           "active-set")
