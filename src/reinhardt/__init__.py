"""Achievable dimensions of automorphism groups of hyperbolic Reinhardt domains.

The achievable values for domains in complex dimension n are sums of
squared block sizes over partitions of n, plus twice each marked block
size.  This package builds the full family of achievable sets with a
bit-packed recurrence, derives the compact ("bad") and noncompact
("good") dimension counts, classifies individual (n, dim) queries into
the structural families, emits symbolic witness domains, and
machine-checks the finite-range claims behind the asymptotics.
"""

from .classify import (
    Classification,
    DomainFamily,
    Realization,
    WitnessDomain,
    classify_dimension,
    make_witness,
    n_squared_families,
    realizations,
)
from .dimsets import (
    DimSet,
    DimTable,
    build_table,
    compact_count,
    dimensions_bruteforce,
    is_realizable,
    noncompact_count,
    noncompact_set,
    smooth_bounded_sets,
    square_sums_bruteforce,
    two_block_dimensions,
)
from .partitions import (
    DegenerateInputWarning,
    MarkedPartition,
    Partition,
    arm_count,
    dimension_value,
    distinct_arm_values,
    enumerate_partitions,
    enumerate_partitions_with_length,
    partition_count,
    sum_of_squares,
)
from .sequences import GrowthRow, RatioRow, format_ratio, growth_sequence, ratio_table
from .storage import TableCorruptionError, UnsupportedFormatError, load_table, save_table
from .verifiers import (
    CheckReport,
    verify_arms,
    verify_bounds,
    verify_dp_oracle,
    verify_growth_sequence,
    verify_largest_part,
    verify_noncompact_growth,
    verify_two_block_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CheckReport",
    "DegenerateInputWarning",
    "DimSet",
    "DimTable",
    "DomainFamily",
    "GrowthRow",
    "MarkedPartition",
    "Partition",
    "RatioRow",
    "Realization",
    "TableCorruptionError",
    "UnsupportedFormatError",
    "WitnessDomain",
    "arm_count",
    "build_table",
    "classify_dimension",
    "compact_count",
    "dimension_value",
    "dimensions_bruteforce",
    "distinct_arm_values",
    "enumerate_partitions",
    "enumerate_partitions_with_length",
    "format_ratio",
    "growth_sequence",
    "is_realizable",
    "load_table",
    "make_witness",
    "n_squared_families",
    "noncompact_count",
    "noncompact_set",
    "partition_count",
    "ratio_table",
    "realizations",
    "save_table",
    "smooth_bounded_sets",
    "square_sums_bruteforce",
    "sum_of_squares",
    "two_block_dimensions",
    "verify_arms",
    "verify_bounds",
    "verify_dp_oracle",
    "verify_growth_sequence",
    "verify_largest_part",
    "verify_noncompact_growth",
    "verify_two_block_closed_form",
]
