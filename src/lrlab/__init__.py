"""Exact engine for the partition product ring: dominance order, two
independent Littlewood-Richardson product algorithms, truncated quotients,
cone generators, and bounded verification suites for the identities that
relate them.

The names below resolve on first use (PEP 562): `import lrlab` loads no
layer, and `lrlab.mul` or `from lrlab import mul` imports only the module
that defines it. Submodules such as `lrlab.product` resolve the same way.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "elements": ("LRElement",),
    "errors": (
        "BudgetExceeded",
        "CapMismatch",
        "HypothesisFails",
        "IndexOutOfRange",
        "InternalCheckError",
        "InvalidPartition",
        "LRLabError",
        "NoDecomposition",
        "NotComparable",
        "NotFoundWithin",
        "NotWeaklyDecreasing",
        "UnknownLemma",
        "UnsupportedLength",
    ),
    "cones": ("cone_generator_decomposition", "cone_membership", "theorem_bound"),
    "partitions": (
        "EMPTY",
        "Cell",
        "Dominance",
        "Partition",
        "column_decomposition",
        "diagram_difference",
        "diagram_distance",
        "dominance_compare",
        "dominated_partitions",
        "dominates",
        "interpolating_sequence",
        "lcm_upto",
        "partitions_of",
        "partitions_up_to",
        "single_column",
    ),
    "powercache": ("PowerCache",),
    "product": (
        "DEFAULT_TERM_BUDGET",
        "clear_caches",
        "gl_dimension",
        "lr_coefficient",
        "mul",
        "mul_element",
        "mul_tableau",
        "tensor_power",
        "term_budget",
    ),
    "reports": ("ConeCertificate", "ExponentSearch", "TransferWitness", "VerificationReport"),
    "search": ("minimal_uniform_exponent", "property_holds", "transfer_witness"),
    "subdivisions": (
        "Subdivision",
        "all_subdivisions",
        "blockwise_reversed_negation",
        "cone_generator",
        "perturbed_generator",
        "perturbed_generator_raw",
        "restrict",
        "reversed_negation",
    ),
    "verify": ("LEMMA_IDS", "default_bounds", "verify_all", "verify_lemma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
