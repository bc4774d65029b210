"""Numerical laboratory for Cantor-slit domains.

Distance queries on self-similar Cantor sets, slit-tent region geometry,
certified truncated Whitney decompositions with reflected-cube chains, a
Whitney-type extension operator with empirical norm ratios, separated-net
dimension estimators, and Monte Carlo measure-density checks.
"""

__version__ = "0.1.0"

from .cantor import (CantorSpec, cantor_dim, fat_thin_cantor, k_distance,
                     k_distance_many)
from .regions import RegionSpec, component_label, region_membership, region_spec
from .dyadic import DyadicCube
from .whitney import (WhitneyDecomposition, chain, claim_count, reflect_assign,
                      verify_whitney, whitney_decompose)
from .fields import (BoxUnion, GridField, gradient, grid_sample,
                     poincare_energy_check, projection_measure, seminorm_p)
from .extension import (assemble, bound_report, extend, jump_test_function,
                        norm_factor, ratio_p)
from .dimension import (build_net_hierarchy, dim_upper_estimate,
                        measure_density_check, measure_density_sides,
                        separated_net)

__all__ = [
    "CantorSpec", "RegionSpec", "DyadicCube", "GridField", "BoxUnion",
    "WhitneyDecomposition", "__version__", "assemble", "bound_report",
    "build_net_hierarchy", "cantor_dim", "chain", "claim_count",
    "component_label", "dim_upper_estimate", "extend",
    "fat_thin_cantor", "gradient", "grid_sample", "jump_test_function",
    "k_distance", "k_distance_many", "measure_density_check",
    "measure_density_sides", "norm_factor",
    "poincare_energy_check", "projection_measure", "ratio_p",
    "reflect_assign", "region_membership", "region_spec", "separated_net",
    "seminorm_p", "verify_whitney", "whitney_decompose",
]
