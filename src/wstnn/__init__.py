"""Low-rank recovery of N-way tensors via mode-pair unfoldings.

The core objects are the three-way t-SVD algebra (``tsvd``), the N-tubal
rank and its convex surrogate WSTNN (``ntubal``), two ADMM solvers for
completion and robust PCA (``solvers``), synthetic phase-transition
experiments (``synth``), and a binary tensor file format plus CLI
(``tensor_io``, ``cli``).
"""

from .ntubal import *
from .solvers import *
from .synth import *
from .tensor_io import *
from .tensor_ops import *
from .tsvd import *

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
