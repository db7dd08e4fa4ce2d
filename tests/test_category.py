import random
from collections import Counter
from fractions import Fraction

import pytest

from cqlnet.category import Category, Loop, load_category
from cqlnet.errors import CategoryError, ModelError, ParseError
from cqlnet.model import ExactRing, Interpretation, Matrix
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


def _arguments(cat):
    """``Category``'s arguments that make ``cat``: objects, arrows, every composite, daggers."""
    arrows = {f: t for f, t in cat.arrows.items() if not cat.is_identity(f)}
    table = {(f, g): cat.compose(f, g)
             for f in cat.arrows for g in cat.arrows if cat.cod(f) == cat.dom(g)}
    return cat.objects, arrows, table, {f: cat.dagger(f) for f in arrows}


def _pauli8_copies(pauli8, n):
    """The arguments of n disjoint copies of pauli8, copy k on object Q_k with arrows f_k."""
    objects, arrows, table, dagger = _arguments(pauli8)

    def name(f, k):
        return f"id Q_{k}" if f == "id Q" else f"{f}_{k}"

    return ([f"Q_{k}" for k in range(n)],
            {name(f, k): (f"Q_{k}", f"Q_{k}") for k in range(n) for f in arrows},
            {(name(f, k), name(g, k)): name(h, k) for k in range(n) for (f, g), h in table.items()},
            {name(f, k): name(g, k) for k in range(n) for f, g in dagger.items()})


def _indiscrete(n):
    """The arguments of the category with one arrow ``aij`` from each object Oi to each other
    Oj, for n at most 10."""
    def arrow(i, j):
        return f"id O{i}" if i == j else f"a{i}{j}"

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return ([f"O{i}" for i in range(n)], {arrow(i, j): (f"O{i}", f"O{j}") for i, j in pairs},
            {(arrow(i, j), arrow(j, k)): arrow(i, k) for i, j in pairs for k in range(n) if k != j},
            {arrow(i, j): arrow(j, i) for i, j in pairs})


def _reference(objects, arrows, table, dagger):
    """What the full scans over every pair, and triple, of arrows make of ``Category``'s
    arguments, each arrow known and typed: the first failure's text, else the composable
    pairs and each endo's loop class."""
    arrows = {**{f"id {a}": (a, a) for a in objects}, **arrows}
    comp = {}
    for f, (a, b) in arrows.items():
        comp[(f"id {a}", f)] = comp[(f, f"id {b}")] = f
    for (f, g), h in table.items():
        if comp.get((f, g), h) != h:
            return f"compose {f} ; {g}: conflicts with identity law"
        comp[(f, g)] = h
    pairs = [(f, g) for f in arrows for g in arrows if arrows[f][1] == arrows[g][0]]
    for f, g in pairs:
        if (f, g) not in comp:
            return f"composition not total: {f} ; {g} undefined"
    for f, g in pairs:
        for h in arrows:
            if arrows[h][0] == arrows[g][1]:
                left, right = comp[(comp[(f, g)], h)], comp[(f, comp[(g, h)])]
                if left != right:
                    return f"associativity fails on {f} ; {g} ; {h}: {left} != {right}"
    dag = {f"id {a}": f"id {a}" for a in objects}
    for f, g in dagger.items():
        if dag.get(f, g) != g:
            return f"dagger {f}: conflicting declaration"
        dag[f] = g
    for f in arrows:
        if f not in dag:
            return f"dagger undefined for {f}"
    for f, (a, b) in arrows.items():
        if arrows[dag[f]] != (b, a):
            return f"dagger {f} = {dag[f]}: wrong type"
        if dag[dag[f]] != f:
            return f"dagger not involutive on {f}"
    for f, g in pairs:
        if dag[comp[(f, g)]] != comp[(dag[g], dag[f])]:
            return f"dagger not contravariant on {f} ; {g}"
    endos = [f for f, (a, b) in arrows.items() if a == b]
    classes = {e: {e} for e in endos}  # merged whole, with no union-find
    for f, g in pairs:
        if arrows[g][1] == arrows[f][0]:
            merged = classes[comp[(f, g)]] | classes[comp[(g, f)]]
            for e in merged:
                classes[e] = merged
    return pairs, {e: min(Loop(arrows[m][0], m) for m in classes[e]) for e in endos}


def _reference_functor(cat, ring, dims, mats):
    """The first failure of the functor check's full scans over every pair of arrows."""
    mats = {**{cat.identity(a): Matrix.identity(ring, dims[a]) for a in cat.objects}, **mats}
    for f in cat.arrows:
        for g in cat.arrows:
            if cat.cod(f) == cat.dom(g):
                h = cat.compose(f, g)
                if mats[h] != mats[g].mul(mats[f]):
                    return f"matrices break composition on {f} ; {g} = {h}"
    for f in cat.arrows:
        if mats[cat.dagger(f)] != mats[f].dagger():
            return f"matrices break dagger on {f}"


def _mutants(args, rng, k):
    """``k`` seeded mutants of Category's arguments: a composite dropped, or changed to another
    arrow of its type; a dagger changed to another arrow of the reversed type, or the daggers
    with two arrows of one type swapped, which keeps them an involution."""
    objects, arrows, table, dagger = args
    typed = {**{f"id {a}": (a, a) for a in objects}, **arrows}
    plain = sorted(key for key in table if key[0] in arrows and key[1] in arrows)
    for _ in range(k):
        table2, dagger2 = dict(table), dict(dagger)
        kind = rng.randrange(4)
        if kind == 0:
            del table2[rng.choice(plain)]
        elif kind == 1:
            f, g = key = rng.choice(sorted(table))
            want = typed[f][0], typed[g][1]
            table2[key] = rng.choice([h for h, t in typed.items() if t == want])
        elif kind == 2:
            f = rng.choice(sorted(dagger))
            dagger2[f] = rng.choice([g for g, t in typed.items() if t == typed[f][::-1]])
        else:
            f = rng.choice(sorted(arrows))
            g = rng.choice([g for g in sorted(arrows) if arrows[g] == arrows[f]])
            swap = {f: g, g: f}
            dagger2 = {swap.get(x, x): swap.get(y, y) for x, y in dagger.items()}
        yield objects, arrows, table2, dagger2


FAULTS = ("identity law", "not total", "associativity", "not involutive", "not contravariant",
          "break composition", "break dagger")


def test_composable_pairs_give_what_the_full_scans_give(
    c2, c2_mod, pauli8, pauli8_mod, inclusion, inclusion_mod, hy, hy_mod
):
    # the laws, the loop classes and a model's functor check walk Category.composable;
    # the reference scans every pair of arrows, and every triple for associativity.  An
    # indiscrete category's models are 1 x 1: every arrow [1], or Oi -> Oj 2^(j - i), a
    # functor that keeps no dagger
    cases = [(_arguments(cat), mod) for cat, mod in
             ((c2, c2_mod), (pauli8, pauli8_mod), (inclusion, inclusion_mod), (hy, hy_mod))]
    cases += [(_pauli8_copies(pauli8, n), pauli8_mod) for n in range(2, 6)]
    cases += [(_indiscrete(n), scale) for n in range(2, 7) for scale in (1, 2)]
    rng = random.Random(34)
    seen = Counter()
    for args, mod in cases:
        for mutant in [args, *_mutants(args, rng, 24)]:
            want = _reference(*mutant)
            try:
                cat = Category("c", *mutant)
            except CategoryError as exc:
                assert str(exc) == want
                seen[next(k for k in FAULTS if k in want)] += 1
                continue
            pairs, loops = want
            assert cat.composable == pairs
            assert {e: cat.loop_of(e) for e in cat.endos()} == loops
            seen["loaded"] += 1
            if mutant is not args:
                continue
            # the model, the same on each copy, then with one entry of one matrix changed
            if isinstance(mod, int):  # aij, Oi -> Oj, is mod^(j - i)
                ring, dims = ExactRing, dict.fromkeys(cat.objects, 1)
                powers = {f: Fraction(mod) ** (int(f[2]) - int(f[1])) for f in cat.arrows
                          if not cat.is_identity(f)}
                base = {f: Matrix(ring, [[ring.parse(str(x), 0)]]) for f, x in powers.items()}
            else:
                ring = mod.ring
                dims = {a: mod.dims[a.partition("_")[0]] for a in cat.objects}
                base = {f: mod.mats[f.partition("_")[0]]
                        for f in cat.arrows if not cat.is_identity(f)}
            for changed in [None, *rng.sample(sorted(base), min(6, len(base)))]:
                mats = dict(base)
                if changed is not None:
                    m = mats[changed]
                    i, j = rng.randrange(m.nrows), rng.randrange(m.ncols)
                    rows = [list(r) for r in m.rows]
                    rows[i][j] = ring.add(rows[i][j], ring.one)
                    mats[changed] = Matrix(ring, rows)
                fault = _reference_functor(cat, ring, dims, mats)
                try:
                    Interpretation("m", cat, ring, dims, mats)
                except ModelError as exc:
                    assert str(exc) == fault
                    seen[next(k for k in FAULTS if k in fault)] += 1
                else:
                    assert fault is None
                    seen["model loaded"] += 1
    assert len(seen) == len(FAULTS) + 2, seen
