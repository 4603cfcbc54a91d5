"""Groupoid-graded linear algebra for restricted height models: the elliptic
dynamical R-matrix, graded tensor categories, convolution rings as difference
operators, commuting transfer matrices, and the rank-2 fusion ring."""

from .convolution import (ConvolutionElement, DifferenceOperator, character,
                          chi, conv_mul, involution, to_difference_operator)
from .elliptic import (EllipticParams, bracket, dynamical_ybe_residual,
                       pair_index, r_matrix, r_minus1, r_reg1, r_table, theta,
                       unitarity_residual)
from .graded import (DualityData, GradedMorphism, GradedSpace, align,
                     dual_space, identity_morphism, tensor_morphism,
                     tensor_space, unit_space)
from .groupoid import (Arrow, ModelKind, WeightPoint, eps, identity_arrow,
                       inverse, rsos_alcove)
from .fusion import (FusionBases, exterior_character, fusion_bases,
                     fusion_coeff, psi_table, sym_power_character_n2,
                     sym_square_character, verify_fusion_rules, verify_spectrum)
from .rsos import build_vector_space, restricted_r, star_triangle_residual
from .transfer import (LOperator, commutator_residual, partial_trace,
                       partition_enumerate, partition_via_transfer,
                       rll_residual, transfer_matrix, vector_chain)

__version__ = "0.1.0"
