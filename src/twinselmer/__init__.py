"""Descent Selmer groups of twin-prime elliptic curve families.

Two independent engines decide local solvability of the descent quartics:
a generic real/p-adic oracle (localsolve) and closed-form congruence
criteria (criteria).  On top sit group computation (selmer), claim
verification (theorems), constructive search (search) and a CLI (cli).
"""

from . import arith
from .criteria import (
    ClosedFormVerdict,
    audit_params,
    closed_form_local,
    membership_closed_form,
)
from .family import (
    INF_PLACE,
    PHI,
    PHI_HAT,
    FamilyParams,
    HomogeneousSpace,
    InvalidParamsError,
    build_space,
    class_of_integer,
    enumerate_square_classes,
    validate_params,
)
from .localsolve import (
    LocalVerdict,
    OracleUndecidedError,
    local_class,
    local_verdict,
    padic_solvable,
    real_solvable,
)
from .search import demonstrate_large_selmer, find_family
from .selmer import (
    SelmerGroup,
    compute_selmer,
    to_jsonable,
)
from .theorems import (
    THEOREM_IDS,
    ConstraintSet,
    TheoremReport,
    alpha_minus_pq,
    beta_minus_D,
    index_set_I,
    pi_minus,
    pi_plus,
    pi_prime,
    rho_minus,
    rho_plus,
    rho_prime,
    verify_theorem,
)

__version__ = "0.1.0"
