"""Remez-type inequalities and extension operators on fractal sets, at desk scale."""

__version__ = "0.1.0"

from .polynomials import Polynomial, chebyshev
from .fractals import (FractalSet, IFS, Similarity, build_set, build_preset,
                       ball_measure, estimate_regularity, product_set,
                       transform)
from .geometry import Ball, Cube
from .remez import (bg_bound, simple_bound, sup_norm, empirical_remez,
                    markov_check, bmo_oscillation, reverse_holder, RemezReport)
from .covering import (DiscreteMeasureSpace, MajorantFn, CoverOutput,
                       greedy_ball_cover, potential_bound_verify,
                       cartan_exclusion_disks)
from .campanato import (CubeFamily, Majorant, build_cube_family,
                        local_best_approx, campanato_seminorm,
                        quasipower_check, majorant_sum_check,
                        lipschitz_seminorm)
from .extension import (Chain, GridSpec, ExtensionField, trace_tilde,
                        build_chain, chain_seminorm, whitney_extend,
                        verify_extension)
