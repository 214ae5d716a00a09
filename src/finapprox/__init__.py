"""Finite-approximate solvability of constrained linear operator equations.

Given a linear operator L between finite-dimensional inner-product spaces,
an orthogonal projector P onto a closed subspace, and a target vector h,
this package decides whether the equation Lu = h admits approximate
solutions whose constrained component P(Lu - h) vanishes exactly, and
constructs them. The decision runs through a one-parameter family of
regularized operators alpha*(I - P) + L L^T whose solutions either converge
(solvable case) or stabilize on a nonzero certificate vector that proves
unsolvability. An independent least-squares oracle cross-checks every
verdict, and a nested-subspace scheme extends the construction to
constraints given as limits of finite-rank projectors.
"""

from . import analyzer, galerkin, hilbert, problemfile, resolvent, scenarios
from .analyzer import *
from .galerkin import *
from .hilbert import *
from .problemfile import *
from .resolvent import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += analyzer.__all__
__all__ += galerkin.__all__
__all__ += hilbert.__all__
__all__ += problemfile.__all__
__all__ += resolvent.__all__
__all__ += scenarios.__all__
