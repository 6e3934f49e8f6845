"""Exact kernel ranks of prime-field hypergeometric operators and the
fusion-rule counts of dormant opers."""

from .fp import Generic
from .hyperg import (
    GenericParameterError,
    HGOperator,
    apply,
    gauss,
    has_full_solutions,
    kernel_rank,
    matrix,
    new_operator,
    oracle_rank,
    pcurvature_sum_test,
    root_basis,
    t_set,
)
from .radii import (
    RadiusClass,
    canonical,
    comp_dual,
    exponents,
    hyp_set,
    interleavings,
    is_hyp_type,
    neg_dual,
    radii_triple,
    xi,
    xi_size,
)
from .tables import published_counts, published_pairs, published_xi
from .fusion import (
    AxiomReport,
    BaseTable,
    Cobordism,
    FusionEngine,
    check_axioms,
    count,
    evaluate,
)
from .verlinde import poly_n3_g2, verlinde_count, verlinde_sum

__version__ = "0.1.0"
