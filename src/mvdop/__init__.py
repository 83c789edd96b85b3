"""Exact-arithmetic multivariate Meixner, Charlier and Krawtchouk
polynomials on partitions for arbitrary rational multiplicity d > 0, and a
verification harness for their identities."""

from .conearith import (
    ConeParams,
    binomial,
    binomial_row,
    box_binomial,
    cone_params,
    dim_partition,
    falling_row,
    gen_pochhammer,
    generalized_falling,
    lower_coefficient,
    raise_coefficient,
)
from .dpolys import (
    FamilyParams,
    charlier,
    determinant_formula,
    krawtchouk,
    laguerre,
    meixner,
    univariate,
)
from .errors import (
    DomainError,
    MvdopError,
    ParameterError,
    PoleError,
    SingularArgumentError,
    TableDegreeError,
)
from .jack import JackTable, jack_table
from .partitions import (
    box_move,
    contains,
    enumerate_up_to,
    format_partition,
    parse_partition,
    sub_partitions,
    weight,
)
from .symfun import SymPoly

__version__ = "0.1.0"

__all__ = [
    "ConeParams",
    "DomainError",
    "FamilyParams",
    "JackTable",
    "MvdopError",
    "ParameterError",
    "PoleError",
    "SingularArgumentError",
    "SymPoly",
    "TableDegreeError",
    "binomial",
    "binomial_row",
    "box_binomial",
    "box_move",
    "charlier",
    "cone_params",
    "contains",
    "determinant_formula",
    "dim_partition",
    "enumerate_up_to",
    "falling_row",
    "format_partition",
    "gen_pochhammer",
    "generalized_falling",
    "jack_table",
    "krawtchouk",
    "laguerre",
    "lower_coefficient",
    "meixner",
    "parse_partition",
    "raise_coefficient",
    "sub_partitions",
    "univariate",
    "weight",
]
