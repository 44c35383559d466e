"""Achievable dimensions of automorphism groups of hyperbolic Reinhardt domains.

The achievable values for domains in complex dimension n are sums of
squared block sizes over partitions of n, plus twice each marked block
size.  This package builds the full family of achievable sets with a
bit-packed recurrence, derives the compact ("bad") and noncompact
("good") dimension counts, classifies individual (n, dim) queries into
the structural families, emits symbolic witness domains, and
machine-checks the finite-range claims behind the asymptotics.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# every public name, in the order of __all__, and the submodule that defines it
_EXPORTS = {
    "Classification": "classify",
    "CheckReport": "verifiers",
    "DegenerateInputWarning": "partitions",
    "DimSet": "dimsets",
    "DimTable": "dimsets",
    "DomainFamily": "classify",
    "GrowthRow": "sequences",
    "MarkedPartition": "partitions",
    "Partition": "partitions",
    "RatioRow": "sequences",
    "Realization": "classify",
    "TableCorruptionError": "storage",
    "UnsupportedFormatError": "storage",
    "WitnessDomain": "classify",
    "arm_count": "partitions",
    "build_table": "dimsets",
    "classify_dimension": "classify",
    "compact_count": "dimsets",
    "dimension_value": "partitions",
    "dimensions_bruteforce": "dimsets",
    "distinct_arm_values": "partitions",
    "enumerate_partitions": "partitions",
    "enumerate_partitions_with_length": "partitions",
    "format_ratio": "sequences",
    "growth_sequence": "sequences",
    "is_realizable": "classify",
    "load_table": "storage",
    "make_witness": "classify",
    "n_squared_families": "classify",
    "noncompact_count": "dimsets",
    "noncompact_set": "dimsets",
    "partition_count": "partitions",
    "ratio_table": "sequences",
    "realizations": "classify",
    "save_table": "storage",
    "smooth_bounded_sets": "dimsets",
    "square_sums_bruteforce": "dimsets",
    "sum_of_squares": "partitions",
    "two_block_dimensions": "dimsets",
    "verify_arms": "verifiers",
    "verify_bounds": "verifiers",
    "verify_dp_oracle": "verifiers",
    "verify_growth_sequence": "verifiers",
    "verify_largest_part": "verifiers",
    "verify_noncompact_growth": "verifiers",
    "verify_two_block_closed_form": "verifiers",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` on first use (PEP 562)."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
