"""The value types' contract: equality within one class, hashing, repr, immutability,
matching, ordering, copying and pickling; and what ``import cqlnet`` loads."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cqlnet import fixtures
from cqlnet.category import Loop
from cqlnet.formula import Atom, DualAtom, Literal, Plus, Tensor, Unit, Zero, parse_formula
from cqlnet.freecat import Wiring, denote
from cqlnet.net import (
    AxLink,
    CutLink,
    Plus1Link,
    Plus2Link,
    PlusLink,
    TimesLink,
    UnitLink,
    parse_net,
)
from cqlnet.rewrite import CanonicalSlice, NormalNet, Redex, normalize

SRC = str(Path(__file__).resolve().parent.parent / "src")
F = "((Q* x Q) + I)"


def _formulas():
    q, qs = Atom("Q"), DualAtom("Q")
    return [Zero(), Unit(), q, qs, Tensor(qs, q), Plus(qs, q), Tensor(q, qs), Plus(q, Unit())]


def _links():
    q = Atom("Q")
    return [AxLink("X"), AxLink("Z"), CutLink(arrow="id Q"), CutLink(formula=Tensor(q, q)),
            TimesLink(), UnitLink(), Plus1Link(Unit()), Plus2Link(Unit()), Plus1Link(q)]


def test_equal_only_within_one_class():
    for values in (_formulas(), _links()):
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert (a == b) is (i == j) and (a != b) is (i != j), (a, b)
    q, qs = Atom("Q"), DualAtom("Q")
    assert Atom("Q") != DualAtom("Q") and Tensor(q, qs) != Plus(q, qs) and Zero() != Unit()
    assert TimesLink() != UnitLink() and Plus1Link(q) != Plus2Link(q)
    assert Atom("Q") != "Q" and Unit() != () and AxLink("X") != ("X",)


def test_equal_values_hash_equal():
    for make in (_formulas, _links):
        for a, b in zip(make(), make()):
            assert a is not b and a == b and hash(a) == hash(b)
    f, g = parse_formula(F), parse_formula(F)
    assert f == g and hash(f) == hash(g) and len({f, g, Unit(), Unit()}) == 2
    assert hash(Unit()) == hash(()) and hash(Atom("Q")) == hash(("Q",))


def test_repr_is_pinned():
    f = parse_formula(F)
    assert repr(f) == (
        "Plus(left=Tensor(left=DualAtom(name='Q'), right=Atom(name='Q')), right=Unit())")
    assert [repr(link) for link in (
        AxLink("X"), CutLink(arrow="id Q"), CutLink(formula=f.left), TimesLink(),
        Plus1Link(Unit()), Plus2Link(Atom("Q")), UnitLink(),
    )] == [
        "AxLink(arrow='X')",
        "CutLink(arrow='id Q', formula=None)",
        "CutLink(arrow=None, formula=Tensor(left=DualAtom(name='Q'), right=Atom(name='Q')))",
        "TimesLink()",
        "Plus1Link(other=Unit())",
        "Plus2Link(other=Atom(name='Q'))",
        "UnitLink()",
    ]
    assert repr(Literal("Q", True)) == "Literal(name='Q', star=True)"
    assert repr(Literal("Q")) == "Literal(name='Q', star=False)"
    assert repr(Loop("Q", "X")) == "Loop(obj='Q', arrow='X')"
    w = Wiring((), (Literal("Q", True), Literal("Q")), ((0, 1, "X"),), (Loop("Q", "Z"),))
    assert repr(w) == (
        "Wiring(dom=(), cod=(Literal(name='Q', star=True), Literal(name='Q', star=False)), "
        "pairs=((0, 1, 'X'),), loops=(Loop(obj='Q', arrow='Z'),))"
    )


def test_keyword_construction_and_match_args():
    assert CutLink(arrow="X") == CutLink("X", None) and CutLink(formula=Unit()).arrow is None
    assert Literal(name="Q", star=True) == Literal("Q", True)
    assert (Atom.__match_args__, Tensor.__match_args__, Zero.__match_args__) == (
        ("name",), ("left", "right"), ())
    assert (AxLink.__match_args__, CutLink.__match_args__, PlusLink.__match_args__,
            TimesLink.__match_args__) == (("arrow",), ("arrow", "formula"), ("other",), ())


def _kind(x):
    match x:
        case Zero():
            return "0"
        case Unit():
            return "I"
        case Atom(name):
            return name
        case DualAtom(name):
            return name + "*"
        case Tensor(l, r):
            return f"{_kind(l)} x {_kind(r)}"
        case Plus(l, r):
            return f"{_kind(l)} + {_kind(r)}"
        case AxLink(arrow):
            return f"ax {arrow}"
        case CutLink(None, f):
            return f"cut id {_kind(f)}"
        case CutLink(g, None):
            return f"cut {g}"
        case TimesLink():
            return "times"
        case Plus1Link(other):
            return f"plus1 {_kind(other)}"
        case Plus2Link(other):
            return f"plus2 {_kind(other)}"
        case UnitLink():
            return "unit"


def test_match_on_every_formula_and_link_class():
    assert [_kind(f) for f in _formulas()] == [
        "0", "I", "Q", "Q*", "Q* x Q", "Q* + Q", "Q x Q*", "Q + I"]
    assert [_kind(link) for link in _links()] == [
        "ax X", "ax Z", "cut id Q", "cut id Q x Q", "times", "unit",
        "plus1 I", "plus2 I", "plus1 Q"]
    assert not isinstance(DualAtom("Q"), Atom) and not isinstance(Plus(Unit(), Unit()), Tensor)


def test_assignment_raises_attribute_error():
    for value, field in [(Atom("Q"), "name"), (parse_formula(F), "left"), (Unit(), "x"),
                         (AxLink("X"), "arrow"), (CutLink(arrow="X"), "formula"),
                         (Plus1Link(Unit()), "other"), (TimesLink(), "n_in"),
                         (Literal("Q"), "star"), (Loop("Q", "X"), "arrow"),
                         (Wiring((), (), (), ()), "loops"), (Redex("#c0", "unit"), "rule")]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        del Atom("Q").name


def test_ordering():
    lits = [Literal("Q", True), Literal("P"), Literal("Q"), Literal("P", True)]
    assert sorted(lits) == [Literal("P"), Literal("P", True), Literal("Q"), Literal("Q", True)]
    loops = [Loop("Q", "Z"), Loop("P", "Y"), Loop("Q", "X")]
    assert sorted(loops) == [Loop("P", "Y"), Loop("Q", "X"), Loop("Q", "Z")]
    slices = [CanonicalSlice((True,), (), ()), CanonicalSlice((False,), ((0, 1, "X"),), ()),
              CanonicalSlice((False,), ((0, 1, "I"),), (Loop("Q", "X"),))]
    assert sorted(slices) == [slices[2], slices[1], slices[0]]
    for unordered in (Unit(), parse_formula(F), AxLink("X"), TimesLink()):
        with pytest.raises(TypeError):
            unordered < unordered


def test_copy_and_pickle_round_trip(pauli8):
    net = parse_net(fixtures.SWAPPING_NET, pauli8)
    (row, col), wirings = next(iter(denote(net).entries.items()))
    nf = normalize(net)
    assert type(nf) is NormalNet and nf.slices
    values = [*_formulas(), parse_formula(F), *_links(), net.slices[0], next(iter(wirings)),
              nf, Literal("Q", True), Loop("Q", "X"), Redex("#c0", "ax-ax")]
    for v in values:
        for again in (copy.deepcopy(v), copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert type(again) is type(v) and again == v and repr(again) == repr(v)
    s = copy.deepcopy(net.slices[0])
    s.outs = s.outs[::-1]  # a slice stays mutable
    assert s != net.slices[0]


def _fresh_modules(code):
    out = subprocess.run([sys.executable, "-S", "-c", f"import sys\nsys.path.insert(0, {SRC!r})\n"
                          f"{code}\nprint(' '.join(sorted(sys.modules)))"],
                         capture_output=True, text=True, check=True, timeout=60)
    return set(out.stdout.split())


def test_import_loads_no_dataclasses_and_no_new_stdlib_module():
    # the stdlib modules cqlnet imported when its values were dataclasses, with
    # everything they load; measured here, as they differ between Python versions
    before = _fresh_modules("import __future__, collections, dataclasses, fractions, functools, "
                            "heapq, itertools, math, random, re, typing")
    loaded = _fresh_modules("import cqlnet")
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert {m for m in loaded if not m.startswith("cqlnet")} <= before
    assert "cqlnet.fixtures" not in _fresh_modules("import cqlnet.cli")
