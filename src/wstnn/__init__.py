"""Low-rank recovery of N-way tensors via mode-pair unfoldings.

The core objects are the three-way t-SVD algebra (``tsvd``), the N-tubal
rank and its convex surrogate WSTNN (``ntubal``), two ADMM solvers for
completion and robust PCA (``solvers``), synthetic phase-transition
experiments (``synth``), and a binary tensor file format plus CLI
(``tensor_io``, ``cli``).
"""

from .ntubal import (
    estimate_n_tubal_rank,
    weights_rank_aware,
    weights_spectral,
    weights_uniform,
    wstnn,
)
from .solvers import (
    LrtcConfig,
    SolveReport,
    TrpcaConfig,
    default_lambda,
    lrtc_solve,
    soft_threshold,
    trpca_solve,
)
from .synth import (CpSpec, PhaseGrid, TrialRecord, add_salt_pepper, gen_cp_tensor,
                    phase_sweep, phase_trials, rse, sample_mask)
from .tensor_io import read_tensor, write_tensor
from .tensor_ops import (
    frobenius_norm,
    mode_k1k2_fold,
    mode_k1k2_unfold,
    mode_k_fold,
    mode_k_unfold,
    mode_pairs,
    vectorize,
)
from .tsvd import (
    TSvdFactors,
    conj_transpose,
    identity_tensor,
    t_product,
    t_svd,
    t_svt,
    tnn,
    tubal_rank,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
