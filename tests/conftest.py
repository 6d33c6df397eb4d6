import pytest
from scipy.optimize import linprog

import cequil.basis
from cequil.basis import ccp_select


def _dual_simplex_linprog(c, **kwargs):
    return linprog(c, **dict(kwargs, method="highs-ds"))


@pytest.fixture(scope="session")
def dual_simplex_ccp_select():
    """``ccp_select`` with its master LPs solved by HiGHS's dual simplex.

    The master LP's optimal face is wide, and the solver picks the vertex
    that becomes the next CCP iterate.  The audit and learn pins in
    test_regret.py and test_bayesopt.py were captured on the bases the dual
    simplex reaches (their reference kernels are no longer in the tree, so
    they cannot be re-captured on another basis), so those fixtures build
    their bases through this.  test_basis.py pins the bases ``ccp_select``
    itself returns.
    """
    def select(game, N, seed):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cequil.basis, "linprog", _dual_simplex_linprog)
            return ccp_select(game, N, seed=seed)

    return select
