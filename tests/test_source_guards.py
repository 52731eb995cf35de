"""Guards on the library source itself."""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from tauword import free_words as fw
from tauword import james_monoid as jm
from tauword import orders, specker
from tauword import rearrange as ra
from tauword import word_expr as we
from tauword._frozen import Frozen

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tauword"


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_runtime_asserts(path):
    # python -O strips assert statements, so a check written as one vanishes
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}: raise an error instead"


def test_cli_import_leaves_out_dataclasses_inspect_and_typing():
    # -S skips site, whose .pth files may import typing on their own
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    code = "import sys, tauword.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


_MODEL = jm.model(("e", "a"), "e", [("e", "a")])
_WORD = fw.word((1, 1), (2, -1))

# every value class with keyword arguments naming all of its fields, in order
VALUES = [
    (fw.ReducedWord, {"syllables": ((1, 1), (2, -1))}),
    (jm.FiniteSpaceModel, {"points": _MODEL.points, "base": _MODEL.base, "le": _MODEL.le}),
    (jm.TopologyReport, {"n": 2, "agree": True, "stable": True, "certificate": None, "stage_t1": False,
                         "base_closed": True, "model_t1": False, "closed_in_next": True}),
    (jm.Stage, {"model": _MODEL, "n": 1, "opens": [frozenset("a")], "base_opens": [], "tuples": [("a",)],
                "fiber_mask": {("a",): 1}, "slot_masks": [{frozenset("a"): 1}]}),
    (orders.CantorComponent, {"level": 3, "slot": 2}),
    (ra.EventualStructure, {"bound": 4, "period": 2, "offsets": (1, -1)}),
    (ra.FiniteSupport, {"cycles": ((1, 3), (2, 5, 4))}),
    (ra.BlockPermute, {"period": 4, "perm": (0, 2, 1, 3)}),
    (ra.Compose, {"parts": (ra.transposition(1, 2), ra.eh_shuffle())}),
    (specker.SpeckerVector, {"prefix": (1, 2), "cycle": (0,)}),
    (we.Letter, {"index": 2, "exp": -1}),
    (we.SymLetter, {"base": 1, "coef": 2, "exp": 3}),
    (we.Concat, {"factors": (we.Letter(1), we.Letter(2))}),
    (we.Inverse, {"of": we.Letter(1)}),
    (we.Trivial, {}),
    (we.Template, {"bodies": (we.SymLetter(1, 1),)}),
    (we.SeqSpec, {"prefix": (we.Letter(1),), "tail": we.Trivial()}),
    (we.OmegaProd, {"spec": we.SeqSpec((we.Letter(1),), we.Trivial())}),
    (we.TauProd, {"spec": we.SeqSpec((), we.Template((we.SymLetter(1, 1),)))}),
    (we.EqualityResult, {"equal": False, "witness_level": 2, "left": _WORD, "right": fw.IDENTITY}),
]
HAND_WRITTEN_REPR = {
    fw.ReducedWord: "ReducedWord('l1 l2^-1')",
    specker.SpeckerVector: "SpeckerVector('1 2; 0')",
}


def test_every_value_class_is_listed():
    bases = {we.WordExpr, we.Product, ra.BijectionSpec}
    defined = {
        v for mod in (fw, jm, orders, ra, specker, we) for v in vars(mod).values()
        if isinstance(v, type) and issubclass(v, Frozen) and v.__module__ == mod.__name__
    }
    assert defined - bases == {cls for cls, _ in VALUES}


def _hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_class_behaves_as_a_frozen_dataclass(cls, kwargs):
    x = cls(**kwargs)
    values = tuple(kwargs.values())
    assert cls._fields == tuple(kwargs)
    assert tuple(getattr(x, name) for name in kwargs) == values
    assert x == cls(**kwargs) and not x != cls(**kwargs)
    twin = type(cls.__name__, (cls,), {})  # same name, same fields, another class
    assert x != twin(**kwargs) and twin(**kwargs) != x
    assert _hash_or_type_error(x) == _hash_or_type_error(values)  # lists in a Stage raise, as in a tuple
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.unknown = 1
    assert copy.copy(x) == x == copy.deepcopy(x) == pickle.loads(pickle.dumps(x))
    default = f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"
    assert repr(x) == HAND_WRITTEN_REPR.get(cls, default)


def test_value_class_defaults():
    assert we.Letter(5) == we.Letter(index=5, exp=1)
    assert we.SymLetter(1, 2) == we.SymLetter(base=1, coef=2, exp=1)
    assert we.Concat() == we.Concat(factors=())
    assert fw.ReducedWord() == fw.IDENTITY == fw.ReducedWord(syllables=())
    assert we.EqualityResult(True) == we.EqualityResult(equal=True, witness_level=None, left=None, right=None)


# the constructor defaults each class had when it wrote its own __init__
DEFAULTS = {
    fw.ReducedWord: {"syllables": ()},
    we.Letter: {"exp": 1},
    we.SymLetter: {"exp": 1},
    we.Concat: {"factors": ()},
    we.EqualityResult: {"witness_level": None, "left": None, "right": None},
}


@pytest.mark.parametrize("cls, kwargs", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_constructor_takes_the_fields_in_order(cls, kwargs):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    defaults = {name: p.default for name, p in params.items() if p.default is not p.empty}
    assert defaults == DEFAULTS.get(cls, {})
    assert cls(*kwargs.values()) == cls(**kwargs)
    for name in kwargs.keys() - defaults.keys():
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != name})
    with pytest.raises(TypeError):
        cls(*kwargs.values(), None)
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=None)


@pytest.mark.parametrize(
    "fields",
    [("a b",), ("x=0",), ("x):\n    pass\ndef f(y",), (1,), ("class",), ("a", "a"), ("self",)],
    ids=["space", "default", "injected", "not_str", "keyword", "repeated", "self"],
)
def test_fields_that_cannot_be_parameters_fail_at_class_creation(fields):
    with pytest.raises(TypeError):
        type("Bad", (Frozen,), {"_fields": fields, "__slots__": ()})
