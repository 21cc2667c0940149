"""The value-record decorator: the semantics the package's records rely on."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from phasorstab.components import VsgComponent
from phasorstab.records import asdict, field, recordclass, replace
from phasorstab.simulator import ScenarioError, SolverConfig

SRC = Path(__file__).resolve().parents[1] / "src"


@recordclass(frozen=True)
class Point:
    x: float
    y: float = 0.0
    tag: str = field(default="", repr=False)


@recordclass
class Bag:
    name: str
    items: list = field(default_factory=list)
    size: int = field(init=False)

    def __post_init__(self) -> None:
        self.size = len(self.items)


def test_positional_and_keyword_arguments_in_field_order():
    assert Point(1.0, 2.0) == Point(y=2.0, x=1.0)
    assert Point(1.0).y == 0.0


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing required argument 'x'"),
        ((1.0,), {"z": 3.0}, "unexpected keyword argument 'z'"),
        ((1.0,), {"x": 2.0}, "multiple values for argument 'x'"),
        ((1.0, 2.0, "a", 4.0), {}, "takes 3 positional arguments but 4 were given"),
    ],
    ids=["missing", "unexpected", "duplicate", "too-many"],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_factories_give_each_instance_its_own_value():
    a, b = Bag("a"), Bag("b")
    a.items.append(1)
    assert b.items == []


def test_init_false_fields_are_set_by_post_init():
    bag = Bag("a", [1, 2])
    assert bag.size == 2
    with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
        Bag("a", size=3)
    with pytest.raises(ValueError, match="init=False"):
        replace(bag, size=3)
    assert replace(bag, items=[1]).size == 1


def test_frozen_instances_refuse_assignment_and_deletion():
    p = Point(1.0)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        p.x = 2.0
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        p.other = 2.0
    with pytest.raises(AttributeError, match="cannot delete field 'x'"):
        del p.x
    assert p.x == 1.0


def test_frozen_instances_hash_by_value_and_equal_only_their_own_class():
    @recordclass(frozen=True)
    class Other:
        x: float
        y: float = 0.0
        tag: str = ""

    assert hash(Point(1.0, 2.0)) == hash(Point(1.0, 2.0))
    assert {Point(1.0), Point(1.0)} == {Point(1.0)}
    assert Point(1.0) != Point(1.0, 2.0)
    assert Point(1.0) != Other(1.0)
    assert Point(1.0) != (1.0, 0.0, "")


def test_plain_instances_are_unhashable_and_mutable():
    bag = Bag("a")
    with pytest.raises(TypeError):
        hash(bag)
    bag.name = "b"
    assert bag == Bag("b")


def test_repr_omits_repr_false_fields():
    assert repr(Point(1.0, 2.0, tag="hidden")) == "Point(x=1.0, y=2.0)"
    assert repr(Bag("a", [1])) == "Bag(name='a', items=[1], size=1)"


def test_replace_runs_validation_again():
    assert replace(SolverConfig(), step_size=2e-3).step_size == 2e-3
    with pytest.raises(ScenarioError, match="step size must be positive"):
        replace(SolverConfig(), step_size=-1)


def test_asdict_maps_every_field():
    assert asdict(Point(1.0, 2.0, "t")) == {"x": 1.0, "y": 2.0, "tag": "t"}
    assert asdict(Bag("a")) == {"name": "a", "items": [], "size": 0}


def test_a_plain_base_contributes_no_fields():
    # Component annotates positive_params; it must stay a class attribute so
    # that Component.__post_init__ can read the subclass's value
    names = [f.name for f in VsgComponent.__record_fields__]
    assert "positive_params" not in names
    with pytest.raises(ValueError, match="parameter M must be positive"):
        VsgComponent("g", "b", M=0.0, Dp=1.0, Dq=1.0, tau_q=1.0)


def test_a_record_base_contributes_its_fields_first():
    @recordclass
    class Tagged(Bag):
        tag: str = "t"

    assert [f.name for f in Tagged.__record_fields__] == ["name", "items", "size", "tag"]
    assert Tagged("a", [1, 2]).size == 2


def test_cli_import_does_not_load_dataclasses():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    code = "import sys, phasorstab.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
