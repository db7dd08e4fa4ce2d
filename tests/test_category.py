import pytest

from cqlnet.category import Category, Loop, load_category
from cqlnet.errors import CategoryError, ParseError
from cqlnet import fixtures


def test_c2_basics(c2):
    assert c2.name == "c2"
    assert set(c2.arrows) == {"id Q", "X"}
    assert c2.dom("X") == "Q" and c2.cod("X") == "Q"
    assert c2.compose("X", "X") == "id Q"
    assert c2.compose("id Q", "X") == "X"
    assert c2.compose("X", "id Q") == "X"
    assert c2.dagger("X") == "X"
    assert c2.dagger("id Q") == "id Q"
    assert c2.is_identity("id Q")
    assert not c2.is_identity("X")


def test_pauli8_table_matches_matrices(pauli8):
    # the composition table was generated from 2x2 integer matrices; spot
    # check a few products recomputed here by hand
    assert pauli8.compose("X", "Z") == "mXZ"  # Z.X = -XZ
    assert pauli8.compose("Z", "X") == "XZ"  # X.Z = XZ
    assert pauli8.compose("XZ", "XZ") == "m1"
    assert pauli8.compose("mX", "mX") == "id Q"
    assert pauli8.dagger("XZ") == "mXZ"
    assert pauli8.dagger("X") == "X"


def _loop_classes(cat):
    """All loop classes, as a sorted tuple of representatives."""
    return tuple(sorted({cat.loop_of(e) for e in cat.endos()}))


def test_c2_loop_classes(c2):
    reps = _loop_classes(c2)
    assert reps == (Loop("Q", "X"), Loop("Q", "id Q"))
    assert c2.loop_of("X") == Loop("Q", "X")
    assert c2.loop_of("id Q") == Loop("Q", "id Q")


def test_pauli8_loop_classes(pauli8):
    reps = _loop_classes(pauli8)
    assert len(reps) == 5
    # mZ and Z are cyclic rotations of each other: Z = X.(XZ), mZ = (XZ).X
    assert pauli8.loop_of("mZ") == pauli8.loop_of("Z")
    assert pauli8.loop_of("mX") == pauli8.loop_of("X")
    assert pauli8.loop_of("mXZ") == pauli8.loop_of("XZ")
    assert pauli8.loop_of("m1") != pauli8.loop_of("id Q")


def test_loop_quotient_against_brute_force(pauli8):
    # independent oracle: saturate g.f ~ f.g as a relation, no union-find
    endos = set(pauli8.endos())
    related = {(e, e) for e in endos}
    for f in pauli8.arrows:
        for g in pauli8.arrows:
            if pauli8.cod(f) == pauli8.dom(g) and pauli8.cod(g) == pauli8.dom(f):
                related.add((pauli8.compose(f, g), pauli8.compose(g, f)))
    changed = True
    while changed:
        changed = False
        for a, b in list(related):
            if (b, a) not in related:
                related.add((b, a))
                changed = True
            for c, d in list(related):
                if b == c and (a, d) not in related:
                    related.add((a, d))
                    changed = True
    for a in endos:
        for b in endos:
            same = pauli8.loop_of(a) == pauli8.loop_of(b)
            assert same == ((a, b) in related), (a, b)


def test_loop_of_word(pauli8):
    # the class of a cyclic word f1, ..., fn is that of its composite
    assert pauli8.loop_of(pauli8.identity("Q")) == pauli8.loop_of("id Q")
    assert pauli8.loop_of(pauli8.compose("X", "XZ")) == pauli8.loop_of("mZ")
    assert pauli8.loop_of(pauli8.compose("XZ", "X")) == pauli8.loop_of("Z")
    # the two orders land in the same class
    assert pauli8.loop_of(pauli8.compose("X", "XZ")) == pauli8.loop_of(
        pauli8.compose("XZ", "X")
    )


def test_loop_dagger(pauli8):
    lp = pauli8.loop_of("XZ")
    assert pauli8.loop_dagger(lp) == pauli8.loop_of("mXZ")
    assert pauli8.loop_dagger(pauli8.loop_dagger(lp)) == lp


def test_loop_of_rejects_non_endo():
    cat = load_category(
        "category two\n"
        "object A\n"
        "object B\n"
        "arrow f : A -> B\n"
        "arrow g : B -> A\n"
        "compose f ; g = id A\n"
        "compose g ; f = id B\n"
        "dagger f = g\n"
        "dagger g = f\n"
    )
    with pytest.raises(CategoryError):
        cat.loop_of("f")
    assert cat.loop_of(cat.compose("f", "g")) == Loop("A", "id A")


def test_missing_composition_rejected():
    text = (
        "category bad\n"
        "object Q\n"
        "arrow X : Q -> Q\n"
        "dagger X = X\n"
    )
    with pytest.raises(CategoryError, match="not total"):
        load_category(text)


def test_broken_associativity_rejected():
    # X;X = Y, X;Y = X, Y;X = id forces (X;X);X != X;(X;X)
    text = (
        "category bad\n"
        "object Q\n"
        "arrow X : Q -> Q\n"
        "arrow Y : Q -> Q\n"
        "compose X ; X = Y\n"
        "compose X ; Y = X\n"
        "compose Y ; X = id Q\n"
        "compose Y ; Y = Y\n"
        "dagger X = X\n"
        "dagger Y = Y\n"
    )
    with pytest.raises(CategoryError, match="associativity"):
        load_category(text)


def test_non_involutive_dagger_rejected():
    text = (
        "category bad\n"
        "object Q\n"
        "arrow X : Q -> Q\n"
        "compose X ; X = id Q\n"
        "dagger X = id Q\n"
    )
    with pytest.raises(CategoryError, match="involutive"):
        load_category(text)


def test_one_way_dagger_rejected():
    # XZ names mXZ as its dagger, but mXZ names none
    text = fixtures.PAULI8_CAT.replace("dagger mXZ = XZ\n", "")
    assert text != fixtures.PAULI8_CAT
    with pytest.raises(CategoryError, match="^dagger undefined for mXZ$"):
        load_category(text)


def test_reserved_names_rejected():
    with pytest.raises(CategoryError):
        load_category("category bad\nobject I\n")
    with pytest.raises(ParseError):
        load_category("category bad\nobject Q\narrow id : Q -> Q\n")


def test_duplicate_lines_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        load_category(
            "category bad\nobject Q\narrow X : Q -> Q\narrow X : Q -> Q\n"
        )
    with pytest.raises(ParseError, match="duplicate"):
        load_category(fixtures.C2_CAT + "compose X ; X = id Q\n")


def test_unknown_object_rejected():
    with pytest.raises(CategoryError, match="unknown object"):
        load_category("category bad\nobject Q\narrow f : Q -> R\n")


# two objects and two arrows between them, before any compose or dagger line
TWO_ARROWS = "category two\nobject A\nobject B\narrow f : A -> B\narrow g : B -> A\n"
# the cyclic group of order 4, generated by r, with a dagger that is an
# involution of the right types but reverses no composite: (r ; r)† = s† = r,
# while r† ; r† = s ; s = id Q
Z4_BAD_DAGGER = (
    "category z4\nobject Q\narrow r : Q -> Q\narrow s : Q -> Q\narrow t : Q -> Q\n"
    "compose r ; r = s\ncompose r ; s = t\ncompose r ; t = id Q\n"
    "compose s ; r = t\ncompose s ; s = id Q\ncompose s ; t = r\n"
    "compose t ; r = id Q\ncompose t ; s = r\ncompose t ; t = s\n"
    "dagger r = s\ndagger s = r\ndagger t = t\n"
)
CATEGORY_ERROR_CASES = [
    (TWO_ARROWS + "compose f ; f = f\n", "compose f ; f: not composable"),
    (TWO_ARROWS + "compose f ; g = f\n", "compose f ; g = f: composite has wrong type"),
    (fixtures.C2_CAT + "compose id Q ; X = id Q\n",
     "compose id Q ; X: conflicts with identity law"),
    (fixtures.C2_CAT + "dagger id Q = X\n", "dagger id Q: conflicting declaration"),
    (TWO_ARROWS + "compose f ; g = id A\ncompose g ; f = id B\ndagger f = f\ndagger g = g\n",
     "dagger f = f: wrong type"),
    (Z4_BAD_DAGGER, "dagger not contravariant on r ; r"),
]


@pytest.mark.parametrize("text, message", CATEGORY_ERROR_CASES)
def test_category_errors_pinned(text, message):
    with pytest.raises(CategoryError) as exc:
        load_category(text)
    assert str(exc.value) == message


def test_constructor_rejects_a_reserved_arrow_name():
    # the file parser rejects such a name first; the constructor checks it too
    with pytest.raises(CategoryError) as exc:
        Category("c", ["Q"], {"id Q": ("Q", "Q")}, {}, {})
    assert str(exc.value) == "duplicate or reserved arrow name 'id Q'"


def test_z4_is_a_category_under_its_inverse_dagger():
    # so Z4_BAD_DAGGER fails on its dagger alone
    daggers = "dagger r = s\ndagger s = r\ndagger t = t\n"
    z4 = load_category(Z4_BAD_DAGGER.replace(daggers, "dagger r = t\ndagger s = s\ndagger t = r\n"))
    assert (z4.compose("r", "r"), z4.dagger("r"), z4.dagger("s")) == ("s", "t", "s")


def test_comments_and_blank_lines():
    cat = load_category("# header\n\ncategory c\nobject Q  # trailing\n")
    assert cat.objects == ("Q",)
    assert set(cat.arrows) == {"id Q"}


def test_lookup_errors_pinned():
    cat = load_category(
        "category two\nobject A\nobject B\narrow f : A -> B\narrow g : B -> A\n"
        "compose f ; g = id A\ncompose g ; f = id B\ndagger f = g\ndagger g = f\n"
    )
    assert (cat.dom("f"), cat.cod("f"), cat.compose("f", "g")) == ("A", "B", "id A")
    cases = [
        (lambda: cat.dom("h"), "unknown arrow 'h'"),
        (lambda: cat.cod("h"), "unknown arrow 'h'"),
        (lambda: cat.dagger("h"), "unknown arrow 'h'"),
        (lambda: cat.compose("h", "f"), "unknown arrow 'h'"),
        (lambda: cat.compose("f", "h"), "unknown arrow 'h'"),
        (lambda: cat.compose("h", "k"), "unknown arrow 'h'"),
        (lambda: cat.compose("f", "f"), "compose f ; f: not composable"),
        (lambda: cat.compose("id A", "g"), "compose id A ; g: not composable"),
    ]
    for call, message in cases:
        with pytest.raises(CategoryError) as exc:
            call()
        assert str(exc.value) == message
