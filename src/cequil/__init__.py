"""cequil: learning approximate correlated equilibria in convex games.

A coordinator that does not know the players' cost functions proposes
finite-support joint-action distributions and queries the players'
correlated regrets; Bayesian optimization over the weight simplex drives
the average regret down, and a difference-of-convex heuristic picks the
supporting joint actions.  The bundled application is multi-player traffic
assignment with BPR link costs on standard network files.

The regret a player reports compares the recommendations with one fixed
deviation, whatever it was told, so the equilibrium the oracle certifies
is the coarse correlated equilibrium (Moulin & Vial 1978); its set
contains Aumann's correlated equilibria.

The code lives in six submodules, imported by name: ``tntp`` (network
files), ``game`` (the games), ``polytope`` (action sets, LP and
Frank-Wolfe), ``regret`` (the oracle), ``basis`` (basis selection) and
``bayesopt`` (the learner).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
