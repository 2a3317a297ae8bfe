"""The value types keep the behaviour of the dataclasses they once were: the
frozen ones compare, hash and print by their fields and refuse assignment,
and every constructor takes its fields by position or keyword, with the
same defaults."""

import pytest

from betawords import (
    BranchSpec,
    QuadraticParams,
    RenyiExpansion,
    Substitution,
    Table,
    UVTower,
    quadratic_substitution,
)

# repr -> (a new value, its fields in order)
FROZEN = {
    "QuadraticParams(a=3, b=1)": (lambda: QuadraticParams(3, 1), (3, 1)),
    "RenyiExpansion(preperiod=(3, 1), period=(2,))": (
        lambda: RenyiExpansion([3, "1"], (2,)), ((3, 1), (2,))),
    "Substitution(runs=((('0', 3), ('1', 1)), (('0', 1), ('1', 1))))": (
        lambda: quadratic_substitution(QuadraticParams(3, 1)),
        (((("0", 3), ("1", 1)), (("0", 1), ("1", 1))),)),
}


@pytest.mark.parametrize("shown", FROZEN)
def test_frozen_types_compare_hash_and_print_by_fields(shown):
    make, fields = FROZEN[shown]
    one, two = make(), make()
    assert one is not two and one == two and not one != two
    assert hash(one) == hash(two) == hash(fields) and len({one, two}) == 1
    assert repr(one) == shown
    assert one != fields  # another class never compares equal


@pytest.mark.parametrize("shown", FROZEN)
def test_frozen_types_refuse_assignment(shown):
    value = FROZEN[shown][0]()
    name = shown[shown.index("(") + 1 : shown.index("=")]  # the first field
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1
    assert getattr(value, name) == before


def test_fields_differ_by_value():
    assert QuadraticParams(3, 1) != QuadraticParams(4, 1)
    assert RenyiExpansion((3,), (1,)) != RenyiExpansion((3,), (2,))
    assert Substitution(((("0", 2), ("1", 1)), (("1", 2),))) != \
        Substitution(((("0", 2), ("1", 1)), (("0", 1), ("1", 1))))


def test_constructors_take_keywords_and_defaults():
    sub = Substitution(runs=((("0", 3), ("1", 1)), (("0", 1), ("1", 1))))
    assert sub == quadratic_substitution(QuadraticParams(3, 1))
    tower = UVTower(params=QuadraticParams(3, 1), depth=2)
    assert tower.u_words == ["00", "01000100010"]
    assert Table(fields=("n",), rows=[{"n": 1}]).column("n") == [1]


def test_branch_specs_get_their_own_empty_factor_list():
    one, two = BranchSpec("0", ("W",)), BranchSpec(center="1", generator=("W",))
    assert one.central_factors == two.central_factors == []
    assert one.central_factors is not two.central_factors
    assert one.verified is False
    one.verified = True  # the mutable types take assignment
    assert one.verified
