"""The value types stay immutable, compare and hash by value, and keep the
``Name(field=value, ...)`` repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from reinhardt import (
    CheckReport,
    Classification,
    DimSet,
    DimTable,
    DomainFamily,
    GrowthRow,
    MarkedPartition,
    Partition,
    RatioRow,
    Realization,
    WitnessDomain,
    build_table,
    classify_dimension,
    growth_sequence,
    make_witness,
    ratio_table,
    realizations,
    verify_arms,
)


def _realization():
    return realizations(4, 12, mode="smooth_bounded")[0]


# (make a value, make an equal value built another way, make an unequal
# value, the field names in repr order)
CASES = {
    "DimSet": (
        lambda: DimSet(4, 0b1001111),
        lambda: DimSet.from_prefix_tail(4, 4, 0b100),
        lambda: DimSet(4, 0b1001110),
        ("n", "low", "tail"),
    ),
    "DimTable": (
        lambda: build_table(3),
        lambda: DimTable([1, 1, 2, 2], [1, 1, 2, 3]),
        lambda: build_table(4),
        ("low", "count", "sets"),
    ),
    "Partition": (
        lambda: Partition((3, 1)),
        lambda: Partition([3, 1]),
        lambda: Partition((2, 2)),
        ("parts", "n"),
    ),
    "MarkedPartition": (
        lambda: MarkedPartition(Partition((2, 2, 1)), ((1, 1), (2, 1))),
        lambda: MarkedPartition.from_values(Partition((2, 2, 1)), [2, 1]),
        lambda: MarkedPartition(Partition((2, 2, 1)), ((2, 2),)),
        ("partition", "marks"),
    ),
    "RatioRow": (
        lambda: ratio_table(build_table(6), [4])[0],
        lambda: RatioRow(4, 4, "0.2500", 1, "0.2500"),
        lambda: RatioRow(4, 4, "0.2500", None, None),
        ("n", "compact", "compact_ratio", "noncompact", "noncompact_ratio"),
    ),
    "GrowthRow": (
        lambda: growth_sequence(18)[18],
        lambda: GrowthRow(18, 142, Fraction(164, 2), 7),
        lambda: GrowthRow(18, 142, Fraction(164, 2), 6),
        ("n", "reach", "threshold", "anchor"),
    ),
    "CheckReport": (
        lambda: CheckReport("arms", 1, 4, "pass", ((4, 1, "x"),), 0.5, "note"),
        lambda: CheckReport("arms", 1, 4, "pass", ((4, 1, "x"),), 0.5, "note"),
        lambda: verify_arms(1, 4),
        ("suite", "n_lo", "n_hi", "status", "counterexamples", "elapsed", "notes"),
    ),
    "Realization": (
        _realization,
        lambda: Realization(MarkedPartition(Partition((2, 2)), ((2, 1),)), 2, 1),
        lambda: Realization(MarkedPartition(Partition((3, 1)), ((1, 1),)), 2, 1),
        ("marked", "length", "mark_count"),
    ),
    "DomainFamily": (
        lambda: DomainFamily("Polydisc3", "Δ³", ("n = 3",)),
        lambda: DomainFamily("Polydisc3", "Δ³", ("n = 3",)),
        lambda: DomainFamily("Polydisc3", "Δ³"),
        ("tag", "description", "parameters"),
    ),
    "Classification": (
        lambda: classify_dimension(4, 12),
        lambda: classify_dimension(4, 12),
        lambda: classify_dimension(4, 10),
        ("n", "dim", "status", "families", "realizations", "notes"),
    ),
    "WitnessDomain": (
        lambda: make_witness(_realization()),
        lambda: make_witness(_realization()),
        lambda: make_witness(realizations(4, 10, mode="smooth_bounded")[0]),
        ("blocks", "inequality", "claimed_dimension", "construction", "label"),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, make_equal, make_other, fields = CASES[request.param]
    return request.param, make(), make_equal(), make_other(), fields


def test_fields_cannot_be_assigned_or_deleted(case):
    _, value, _, _, fields = case
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == case[2]  # unchanged


def test_equal_values_compare_and_hash_equal(case):
    _, value, equal, other, _ = case
    assert value is not equal
    assert value == equal and not value != equal
    assert hash(value) == hash(equal)
    assert value != other and len({value, equal, other}) == 2


def test_repr_lists_every_field(case):
    name, value, _, _, fields = case
    shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in fields)
    assert repr(value) == f"{name}({shown})"


def test_repr_of_a_large_set_shows_its_tail_in_hex():
    # the tail of S(1000) has about 16 400 decimal digits, past the default
    # limit of int-to-str conversion
    dimset = build_table(1000).sets[1000]
    assert repr(dimset) == f"DimSet(n=1000, low={dimset.low}, tail={dimset.tail:#x})"


def test_copy_and_pickle_keep_the_value(case):
    _, value, _, _, _ = case
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_partition_n_is_left_out_of_comparison():
    odd = Partition((3, 1))
    object.__setattr__(odd, "n", 99)  # bypasses the immutability on purpose
    assert odd == Partition((3, 1)) and hash(odd) == hash(Partition((3, 1)))


def test_values_of_different_types_differ():
    assert DimSet(0, 1) != DimTable((1,), (1,))
    assert Partition((1,)) != MarkedPartition(Partition((1,)))
