"""Convolutions of compactly supported probability measures.

Boolean, monotone, orthogonal, s-free and free additive convolutions,
computed exactly at moment level through K-transform series, with a
partition-combinatorics oracle, a truncated operator model and rooted
graph products cross-checking one another.
"""

from .convolve import (
    boolean,
    free,
    free_cumulant_oracle,
    jacobi_chain_decomposition,
    monotone,
    orthogonal,
    orthogonal_iterated,
    sfree,
    subordination_eval,
)
from .measures import (
    AtomicMeasure,
    JacobiParams,
    MeasureRep,
    WignerTail,
    bernoulli_symmetric,
    eval_F,
    eval_G,
    eval_K,
    jacobi_to_moments,
    make_jacobi,
    moments_to_jacobi,
    point_mass,
    stieltjes_density,
    two_point,
    wigner,
)
from .series import K_to_moments, TailSeries, moments_to_K, substitute_into_shifted

__all__ = [
    "AtomicMeasure",
    "JacobiParams",
    "K_to_moments",
    "MeasureRep",
    "TailSeries",
    "WignerTail",
    "bernoulli_symmetric",
    "boolean",
    "eval_F",
    "eval_G",
    "eval_K",
    "free",
    "free_cumulant_oracle",
    "jacobi_chain_decomposition",
    "jacobi_to_moments",
    "make_jacobi",
    "moments_to_K",
    "moments_to_jacobi",
    "monotone",
    "orthogonal",
    "orthogonal_iterated",
    "point_mass",
    "sfree",
    "stieltjes_density",
    "subordination_eval",
    "substitute_into_shifted",
    "two_point",
    "wigner",
]

__version__ = "0.1.0"
