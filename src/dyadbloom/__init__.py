"""dyadbloom: a desk-scale testbed for two-weight dyadic Haar analysis.

Step functions on the dyadic grid of [0,1), Haar transforms, A2 weights,
Bloom-type BMO functionals, paraproducts, the dyadic shift, commutators and
their exact six-term expansion, weighted operator norms, Carleson embedding
checks, and stopping-time/corona constructions -- with randomized seeded
verification suites over all of it.
"""

from .bmo import (
    BmoReport,
    bloom_b2,
    bloom_b2_dual,
    bloom_b2_l2form,
    bmo_report,
    bmo_rho,
    bmo_rho_l1,
    neccon_functional,
)
from .config import SUITE_NAMES, ExperimentConfig, derive_seed
from .errors import (
    ConfigError,
    DyadBloomError,
    EnsembleTargetError,
    GridMismatchError,
    InadmissibleLevelError,
    PackingSearchError,
)
from .grid import (
    DyadicGrid,
    DyadicInterval,
    StepFunction,
    haar_function,
)
from .normest import (
    CarlesonSequence,
    NormReport,
    adjoint_paraproduct_carleson_sequence,
    carleson_constant,
    compute_norm_report,
    necessity_test_function_bound,
    paraproduct_carleson_sequence,
)
from .operators import (
    ExpansionTerms,
    LeafOperator,
    commutator_operator,
    expansion_terms,
    is_admissible,
    paraproduct_adjoint_operator,
    paraproduct_operator,
    project_admissible,
    remainder_closed_form,
    shift_operator,
)
from .stopping import (
    StoppingFamily,
    corona_generations,
    deviation_factory,
    maximal_stopping_intervals,
    minimal_corona_constant,
    minimal_packing_constant,
    packing_ratio,
    square_sum_factories,
    three_condition_factory,
    threshold_factory,
)
from .suites import Assertion, Finding, SuiteResult, run_suites
from .weights import (
    EnsembleSpec,
    Weight,
    a2_characteristic,
    generate,
    rho_weight,
)

__version__ = "0.1.0"
