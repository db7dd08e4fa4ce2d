"""Every ParseError the four loaders raise, pinned as its exact ``line N: message``.

One malformed input per error: category files (``load_category``), model
files (``load_model``), net files (``parse_net``) and arrow files
(``parse_arrow``), each read against ``C2`` (one object ``Q``, one arrow
``X``) unless a case needs another category.
"""

import pytest

from cqlnet import fixtures
from cqlnet.category import load_category
from cqlnet.errors import ParseError
from cqlnet.freecat import parse_arrow
from cqlnet.model import load_model
from cqlnet.net import _BAD_ID, parse_net

C2 = load_category(fixtures.C2_CAT)
# two objects, so that a loop can name an arrow that is not an endo
TWO = load_category(
    "category two\nobject A\nobject B\narrow f : A -> B\narrow g : B -> A\n"
    "compose f ; g = id A\ncompose g ; f = id B\ndagger f = g\ndagger g = f\n"
)

CAT = "category c\nobject Q\narrow X : Q -> Q\n"
MOD = "model m over c2\n"
NET = "net n\nconclusions Q* , Q\nslice\n"
ARROW = "arrow : Q -> Q\n"


def entry(wiring):
    return ARROW + "entry (0,0): { " + wiring + " }\n"


CATEGORY_CASES = [
    ("category a\ncategory b\n", "line 2: duplicate category line"),
    ("category 1a\n", "line 1: bad identifier '1a'"),
    (CAT + "arrow id : Q -> Q\n", "line 4: arrow names starting with 'id' are reserved"),
    (CAT + "arrow Y : Q\n", "line 4: expected 'arrow f : A -> B'"),
    (CAT + "arrow X : Q -> Q\n", "line 4: duplicate arrow 'X'"),
    (CAT + "compose X ; X id Q\n", "line 4: expected 'compose f ; g = h'"),
    (CAT + "compose X X = id Q\n", "line 4: expected 'compose f ; g = h'"),
    (CAT + "compose X ; X = id Q\ncompose X ; X = id Q\n",
     "line 5: duplicate compose line for X ; X"),
    (CAT + "compose id ; X = X\n", "line 4: arrow name 'id' is reserved"),
    (CAT + "dagger X X\n", "line 4: expected 'dagger f = g'"),
    (CAT + "dagger X = X\n# a comment\n\ndagger X = X\n", "line 7: duplicate dagger line for X"),
    (CAT + "frob X\n", "line 4: unknown directive 'frob'"),
]

MODEL_CASES = [
    (MOD + "model m over c2\n", "line 2: duplicate model line"),
    ("model m\n", "line 1: expected 'model name over category'"),
    ("model m over c3\n", "line 1: model is over 'c3', category is 'c2'"),
    (MOD + "scalars exact\nscalars exact\n", "line 3: duplicate scalars line"),
    (MOD + "scalars real\n", "line 2: unknown scalar kind 'real'"),
    (MOD + "dim Q 2\n", "line 2: expected 'dim Obj = n'"),
    (MOD + "dim Q = x\n", "line 2: expected 'dim Obj = n'"),
    (MOD + "dim Q = +2\n", "line 2: expected 'dim Obj = n'"),
    (MOD + "dim Q = \u0662\n", "line 2: expected 'dim Obj = n'"),
    (MOD + "dim Q = 2\ndim Q = 2\n", "line 3: duplicate dim for Q"),
    (MOD + "dim R = 2\n", "line 2: unknown object 'R'"),
    (MOD + "mat X [ [1] ]\n", "line 2: expected 'mat f = [ ... ]'"),
    (MOD + "mat Y = [ [1] ]\n", "line 2: unknown arrow 'Y'"),
    (MOD + "mat X = [ [1] ]\nmat X = [ [1] ]\n", "line 3: duplicate mat for X"),
    (MOD + "frob\n", "line 2: unknown directive 'frob'"),
    (MOD + "dim Q = 2\nmat X = 1\n", "line 3: matrix wants [ [ ... ] ; [ ... ] ]"),
    (MOD + "dim Q = 2\nmat X = [ ]\n", "line 3: empty matrix literal"),
    (MOD + "dim Q = 2\nmat X = [ 1 ; 2 ]\n", "line 3: matrix row wants [ ... ]: '1'"),
    (MOD + "dim Q = 2\nmat X = [ [0, 1] ; [1] ]\n", "line 3: ragged matrix rows"),
    (MOD + "dim Q = 2\nmat X = [ [0, 1] ; [1, 0 ]\n", "line 3: unbalanced brackets"),
    (MOD + "dim Q = 2\nmat X = [ [0, 1] ] ; [1, 0] ]\n", "line 3: unbalanced brackets"),
    (MOD + "dim Q = 2\nmat X = [ [0, x] ; [1, 0] ]\n", "line 3: bad scalar 'x'"),
    (MOD + "dim Q = 2\nmat X = [ [0, (1, 0, 0, 0)x] ; [1, 0] ]\n",
     "line 3: bad scalar '(1, 0, 0, 0)x'"),
]

NET_CASES = [
    ("net a\nnet b\n", "line 2: duplicate net line"),
    ("net a\nconclusions\nconclusions\n", "line 3: duplicate conclusions line"),
    ("net a\nslice\n", "line 2: slice before conclusions"),
    ("net a\nconclusions\nslice\nslice\n", "line 4: nested slice"),
    ("net a\nconclusions\nend\n", "line 3: end outside slice"),
    ("net a\nconclusions\nslice\nend\n", "line 4: slice has no out line"),
    ("net a\nconclusions\nax a : X\n", "line 3: ax outside slice"),
    ("net a\nconclusions\nout\n", "line 3: out outside slice"),
    ("net a\nconclusions\nslice x\n", "line 3: unknown directive 'slice'"),
    (NET + "  ax a X\n", "line 4: expected 'ax id : f'"),
    (NET + "  ax a : Y\n", "line 4: unknown arrow 'Y'"),
    (NET + "  times t a.0 a.1\n", "line 4: expected 'times id = p q'"),
    (NET + "  times t = a.0\n", "line 4: times takes exactly two ports"),
    (NET + "  plus1 p = a.0\n", "line 4: expected 'plus1 id = ... | ...'"),
    (NET + "  plus2 p | a.0\n", "line 4: expected 'plus2 id = ... | ...'"),
    (NET + "  cut a.0 , a.1\n", "line 4: expected 'cut p , q : label'"),
    (NET + "  cut a.0 : id\n", "line 4: cut takes exactly two ports"),
    (NET + "  cut a.0 , a.1 : Y\n", "line 4: unknown cut label 'Y'"),
    (NET + "  out\n  out\n", "line 5: duplicate out line"),
    (NET + "  frob\n", "line 4: unknown directive 'frob'"),
    (NET + "  ax a : X\n# a comment\n\n", "line 6: unterminated slice"),
    ("conclusions\n", "line 1: missing net line"),
    ("# a comment\nnet a\n", "line 1: missing conclusions line"),
    (NET + "  ax a.b : X\n", "line 4: bad link id 'a.b'"),
    # a bracket in an id would split a port list in the wrong place
    (NET + "  ax a[ : X\n", "line 4: bad link id 'a['"),
    (NET + "  unit u(\n", "line 4: bad link id 'u('"),
    (NET + "  times )t = a.0 a.1\n", "line 4: bad link id ')t'"),
    (NET + "  plus1 p] = a.0 | I\n", "line 4: bad link id 'p]'"),
    (NET + "  unit\n", "line 4: bad link id ''"),
    (NET + "  ax a : X\n  unit a\n", "line 5: duplicate link id 'a'"),
    (NET + "  ax a : X\n  ax  a  : X\n", "line 5: duplicate link id 'a'"),
    (NET + "  ax a : X\n  times a = a.0 a.1\n", "line 5: duplicate link id 'a'"),
    (NET + "  ax a : X\n  plus2 a = I | a.0\n", "line 5: duplicate link id 'a'"),
    (NET + "  ax a : X\n  out a.x , a.1\nend\n", "line 5: bad port 'a.x'"),
    (NET + "  ax a : X\n  out a , a.1\nend\n", "line 5: bad port 'a'"),
    (NET + "  ax a : X\n  out a.0 , a.+1\nend\n", "line 5: bad port 'a.+1'"),
    (NET + "  ax a : X\n  out a.0 , a.\u0661\nend\n", "line 5: bad port 'a.\u0661'"),
    ("net n\nconclusions ((I + I) + (I + I) , Q* , Q\n", "line 2: unbalanced brackets"),
    (NET + "  ax a : X\n  cut a.0 , a.[1 : id\n", "line 5: unbalanced brackets"),
    (NET + "  ax a : X\n  out a.0 , a.1)\nend\n", "line 5: unbalanced brackets"),
    (NET + "  ax a : X\n  times t = a.0 b.1\n  out t.0\nend\n", "line 5: unknown link 'b'"),
    (NET + "  ax a : X\n  out a.0 , b.1\nend\n", "line 5: unknown link 'b'"),
    (NET + "  ax a : X\n  times t = a.0 a.2\n  out t.0\nend\n", "line 5: link a has no output 2"),
    # an out naming a missing output is reported as an input that does
    (NET + "  ax a : X\n  out a.0 , a.2\nend\n", "line 5: link a has no output 2"),
    # formula texts are parsed once per net: a new text still names its own line
    (NET + "  ax a : X\n  plus1 p = a.0 | (Q + I)\n  plus2 q = (Q + I) | p.0\n"
     "  plus1 r = q.0 | (Q + R)\n", "line 7: unknown atom 'R'"),
    ("net n\nconclusions\nslice\n  ax a : X\n  ax b : X\n  cut a.1 , b.1 : id\n"
     "  out a.0 , b.0\nend\n", "line 6: id cut inputs Q, Q are not dual"),
    # a plus link's other side obeys the rules of a formula under +
    (NET + "  ax a : X\n  plus1 p = a.1 | Nope\n", "line 5: unknown atom 'Nope'"),
    (NET + "  ax a : X\n  plus2 p = (I x Q) | a.1\n", "line 5: I may not appear under x"),
    (NET + "  ax a : X\n  plus1 p = a.1 | 0\n", "line 5: 0 may only appear as a whole formula"),
    (NET + "  ax a : X\n  plus2 p = 0 | a.1\n", "line 5: 0 may only appear as a whole formula"),
]

ARROW_CASES = [
    (ARROW + ARROW, "line 2: duplicate arrow line"),
    ("arrow Q -> Q\n", "line 1: expected 'arrow : dom -> cod'"),
    ("arrow : Q\n", "line 1: expected 'arrow : dom -> cod'"),
    ("entry (0,0): { }\n", "line 1: entry before arrow line"),
    (ARROW + "entry 0,0: { }\n", "line 2: expected 'entry (i,j): { ... }'"),
    (ARROW + "entry (0,0): ( )\n", "line 2: expected 'entry (i,j): { ... }'"),
    (ARROW + "entry (0,x): { }\n", "line 2: bad entry index '(0,x)'"),
    (ARROW + "entry (0,0,0): { }\n", "line 2: bad entry index '(0,0,0)'"),
    (ARROW + "entry (1,0): { }\n", "line 2: entry index (1,0) out of range"),
    (ARROW + "entry (\u0660,0): { }\n", "line 2: bad entry index '(\u0660,0)'"),
    (ARROW + "entry (0,0_0): { }\n", "line 2: bad entry index '(0,0_0)'"),
    (ARROW + "entry (0,-0): { }\n", "line 2: bad entry index '(0,-0)'"),
    (ARROW + "frob\n", "line 2: unknown directive 'frob'"),
    ("# only a comment\n", "line 1: missing arrow line"),
    (entry("pairs"), "line 2: bad wiring 'pairs'"),
    (entry("(pairs: 0<->1 : X)"), "line 2: wiring wants '(pairs: ...; loops: ...)'"),
    (entry("(pairs: 0-1 : X; loops:)"), "line 2: bad pair '0-1 : X'"),
    (entry("(pairs: 0<->1 : Y; loops:)"), "line 2: unknown arrow 'Y'"),
    (entry("(pairs: 0<->x : X; loops:)"), "line 2: bad pair '0<->x : X'"),
    (entry("(pairs: 0<->+1 : X; loops:)"), "line 2: bad pair '0<->+1 : X'"),
    (entry("(pairs: 0<->1 : X; loops:) , (pairs: 0<->1 : X; loops:"),
     "line 2: unbalanced brackets"),
    (entry("(pairs: 0<->1 : X; loops: [Q X])"), "line 2: bad loop '[Q X]'"),
    # the pairs and loops lists split outside brackets too
    (entry("(pairs: 0<->1 : X; loops: [Q , X])"), "line 2: bad loop '[Q , X]'"),
    (entry("(pairs: 0<->1 : X; loops: [Q : X , Q : X])"), "line 2: bad loop '[Q : X , Q : X]'"),
    (entry("(pairs: [0<->1 : X; loops: ])"), "line 2: unbalanced brackets"),
    (entry("(pairs: 0<->1 : X; loops: Q : X)"), "line 2: bad loop 'Q : X'"),
    (entry("(pairs: 0<->5 : X; loops:)"), "line 2: pair (0, 5) out of range"),
    (entry("(pairs: 1<->0 : X; loops:)"), "line 2: pair (1, 0) has wrong polarity"),
]


@pytest.mark.parametrize("text, message", CATEGORY_CASES)
def test_category_parse_errors(text, message):
    with pytest.raises(ParseError) as exc:
        load_category(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", MODEL_CASES)
def test_model_parse_errors(text, message):
    with pytest.raises(ParseError) as exc:
        load_model(text, C2)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", NET_CASES)
def test_net_parse_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_net(text, C2)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, message", ARROW_CASES)
def test_arrow_parse_errors(text, message):
    with pytest.raises(ParseError) as exc:
        parse_arrow(text, C2)
    assert str(exc.value) == message


def test_loop_on_a_non_endo_is_a_parse_error():
    text = "arrow : A -> A\nentry (0,0): { (pairs: 0<->1 : id A; loops: [A : f]) }\n"
    with pytest.raises(ParseError) as exc:
        parse_arrow(text, TWO)
    assert str(exc.value) == "line 2: loop arrow f is not an endo of A"


def test_the_parser_checks_the_characters_of_an_id_only_when_it_is_no_identifier():
    # no character an identifier may hold is one the link id check rejects
    held = [chr(i) for i in range(0x110000) if ("a" + chr(i)).isidentifier()]
    assert not [c for c in held if _BAD_ID.search(c)]
    # and an id that is no identifier parses when its characters are allowed
    net = parse_net(NET + "  ax 1 : X\n  ax a-b' : X\n  cut 1.1 , a-b'.0 : X\n  out 1.0 , a-b'.1\nend\n", C2)
    assert list(net.slices[0].links) == ["1", "a-b'", "#c0"]
