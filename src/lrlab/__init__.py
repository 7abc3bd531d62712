"""Exact engine for the partition product ring: dominance order, two
independent Littlewood-Richardson product algorithms, truncated quotients,
cone generators, and bounded verification suites for the identities that
relate them.
"""

from .elements import LRElement
from .errors import (
    BudgetExceeded,
    CapMismatch,
    HypothesisFails,
    IndexOutOfRange,
    InternalCheckError,
    InvalidPartition,
    LRLabError,
    NoDecomposition,
    NotComparable,
    NotFoundWithin,
    NotWeaklyDecreasing,
    UnknownLemma,
    UnsupportedLength,
)
from .cones import cone_generator_decomposition, cone_membership, theorem_bound
from .partitions import (
    EMPTY,
    Cell,
    Dominance,
    Partition,
    column_decomposition,
    diagram_difference,
    diagram_distance,
    dominance_compare,
    dominated_partitions,
    dominates,
    interpolating_sequence,
    lcm_upto,
    partitions_of,
    partitions_up_to,
    single_column,
)
from .powercache import PowerCache
from .product import (
    DEFAULT_TERM_BUDGET,
    clear_caches,
    gl_dimension,
    lr_coefficient,
    mul,
    mul_by_column,
    mul_element,
    mul_tableau,
    tensor_power,
    term_budget,
)
from .reports import ConeCertificate, ExponentSearch, TransferWitness, VerificationReport
from .search import minimal_uniform_exponent, property_holds, transfer_witness
from .subdivisions import (
    Subdivision,
    all_subdivisions,
    blockwise_reversed_negation,
    cone_generator,
    perturbed_generator,
    perturbed_generator_raw,
    restrict,
    reversed_negation,
)
from .verify import LEMMA_IDS, default_bounds, verify_all, verify_lemma

__version__ = "0.1.0"
