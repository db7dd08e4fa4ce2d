import copy
import pickle
import random
import time
from fractions import Fraction

import pytest

from cqlnet import fixtures
from cqlnet.errors import ModelError, NetError, ParseError
from cqlnet.formula import Literal, anf, parse_formula
from cqlnet.freecat import (
    UNIT,
    complete,
    denote,
    embed,
    eta,
    identity,
    name_of,
    scalar,
    wiring,
    zero,
)
from cqlnet.model import (
    BoolRing,
    ExactRing,
    Interpretation,
    Matrix,
    Qi2,
    eval_free,
    eval_net,
    eval_wiring,
    load_model,
)
from cqlnet.net import AxLink, Net, Slice, TimesLink, parse_net, print_net, validate_net
from cqlnet.randgen import random_anf, random_free_arrow, random_net, random_wiring


def _q(n):
    return Qi2(Fraction(n))


def _qm(rows):
    return Matrix(ExactRing, [[_q(x) for x in r] for r in rows])


def _qcol(vals):
    return [_q(v) for v in vals]


def _kron(a, b):
    """The Kronecker product, row-major: the reference for ``eval_free(f @ g)``."""
    rows = [[a.ring.mul(x, y) for x in ra for y in rb] for ra in a.rows for rb in b.rows]
    return Matrix(a.ring, rows, a.ncols * b.ncols)


def _add(a, b):
    """The entrywise sum: the reference for ``eval_free(f + g)``."""
    assert a.shape == b.shape
    rows = [[a.ring.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    return Matrix(a.ring, rows, a.ncols)


SQRT2 = Qi2(Fraction(0), Fraction(1))
I_UNIT = Qi2(Fraction(0), Fraction(0), Fraction(1))


def test_qi2_arithmetic():
    assert SQRT2 * SQRT2 == _q(2)
    assert Qi2(Fraction(1), Fraction(1)) * Qi2(Fraction(1), Fraction(-1)) == _q(-1)
    assert I_UNIT * I_UNIT == _q(-1)
    half_rt2 = Qi2(Fraction(0), Fraction(1, 2))
    assert half_rt2 * half_rt2 == Qi2(Fraction(1, 2))
    assert _q(2) + -_q(5) == _q(-3)
    x = Qi2(Fraction(1), Fraction(2), Fraction(3), Fraction(4))
    assert x.conj() == Qi2(Fraction(1), Fraction(2), Fraction(-3), Fraction(-4))
    assert x * x.conj() == (x.conj() * x)
    assert str(_q(Fraction(3, 2))) == "3/2"
    assert str(x) == "(1, 2, 3, 4)"
    # one canonical form: equal elements have equal fields and hashes
    half = Qi2(Fraction(1, 2))
    assert half + half == ExactRing.one
    assert hash(half + half) == hash(ExactRing.one)
    assert Qi2(2, 0, 0, 4) * Qi2(Fraction(1, 2)) == Qi2(1, 0, 0, 2)
    assert _q(1) + -_q(1) == ExactRing.zero
    assert hash(_q(1) + -_q(1)) == hash(Qi2())
    # mixed denominators
    y = Qi2(Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(-2))
    z = Qi2(Fraction(1, 6), Fraction(0), Fraction(3, 4), Fraction(1, 5))
    assert y + z == Qi2(Fraction(2, 3), Fraction(1, 3), Fraction(3, 4), Fraction(-9, 5))
    assert y * z == Qi2(
        Fraction(1, 12) + Fraction(4, 5),
        Fraction(1, 18) + Fraction(3, 2),
        Fraction(3, 8) + Fraction(2, 15),
        Fraction(1, 10) + Fraction(1, 4) - Fraction(1, 3),
    )
    assert (y + z).a.denominator == 3
    assert all(type(f) is Fraction for f in (y.a, y.b, y.c, y.d))
    assert (y.a, y.b, y.c, y.d) == (Fraction(1, 2), Fraction(1, 3), 0, -2)
    assert repr(y) == "Qi2(Fraction(1, 2), Fraction(1, 3), Fraction(0, 1), Fraction(-2, 1))"
    # comparisons with other types answer instead of raising
    assert Qi2() != 0
    assert not (ExactRing.one == 1)
    assert ExactRing.one != "1"
    assert ExactRing.one not in (None, Fraction(1))


def _qi2_sum(x, y):
    """The sum from the Fraction components: the reference for ``x + y``."""
    return Qi2(x.a + y.a, x.b + y.b, x.c + y.c, x.d + y.d)


def _qi2_product(x, y):
    """The general product from the Fraction components: the reference for ``x * y``."""
    return Qi2(
        x.a * y.a + 2 * x.b * y.b - x.c * y.c - 2 * x.d * y.d,
        x.a * y.b + x.b * y.a - x.c * y.d - x.d * y.c,
        x.a * y.c + 2 * x.b * y.d + x.c * y.a + 2 * x.d * y.b,
        x.a * y.d + x.b * y.c + x.c * y.b + x.d * y.a,
    )


def test_qi2_short_cuts_equal_the_general_formulas():
    # 0 + x, x * 1 and two rationals take short cuts: each result must be the
    # element the general formula gives, with the same tuple, hash and text
    h = Fraction(1, 2)
    special = [Qi2(), Qi2(1), Qi2(-1), Qi2(h), Qi2(-h), Qi2(0, 0, 1), Qi2(0, 0, -1),
               Qi2(0, h), Qi2(h, 0, h)]
    rng = random.Random(31)

    def draw():
        if rng.random() < 0.5:
            return rng.choice(special)
        den = rng.randint(1, 6)
        return Qi2(*(Fraction(rng.randint(-3, 3), den) for _ in range(4)))

    for _ in range(2000):
        x, y = draw(), draw()
        for got, want in ((x * y, _qi2_product(x, y)), (y * x, _qi2_product(y, x)),
                          (x + y, _qi2_sum(x, y)), (y + x, _qi2_sum(y, x))):
            assert got == want and hash(got) == hash(want) and str(got) == str(want)
            assert got._v == want._v
    # a sum with 0 and a product with 1 allocate nothing: they return the other operand
    zero, one = Qi2(), Qi2(1)
    for x in special + [draw() for _ in range(50)]:
        if x != one:
            assert x * one is x and one * x is x
        if x != zero:
            assert x + zero is x and zero + x is x


def test_exact_ring_parse():
    assert ExactRing.parse("-3/4", 0) == Qi2(Fraction(-3, 4))
    assert ExactRing.parse("(1, 1/2, 0, -2)", 0) == Qi2(
        Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-2)
    )
    assert ExactRing.parse(ExactRing.fmt(SQRT2), 0) == SQRT2
    y = Qi2(Fraction(1, 2), Fraction(1, 3), 0, -2)
    assert str(y) == "(1/2, 1/3, 0, -2)"
    assert ExactRing.parse(str(y), 0) == y
    with pytest.raises(ParseError):
        ExactRing.parse("(1, 2)", 0)
    with pytest.raises(ParseError):
        ExactRing.parse("nope", 0)


def test_bool_ring():
    assert BoolRing.add(True, True) is True
    assert BoolRing.add(False, False) is False
    assert BoolRing.mul(True, False) is False
    assert BoolRing.conj(True) is True
    assert BoolRing.parse("1", 0) is True
    assert BoolRing.fmt(False) == "0"
    with pytest.raises(ParseError):
        BoolRing.parse("2", 0)


def test_matrix_mul():
    a = _qm([[1, 2], [3, 4]])
    b = _qm([[5, 6], [7, 8]])
    assert a.mul(b) == _qm([[19, 22], [43, 50]])


def test_matrix_kron_row_major():
    a = _qm([[1, 2], [3, 4]])
    x = _qm([[0, 1], [1, 0]])
    want = _qm(
        [
            [0, 1, 0, 2],
            [1, 0, 2, 0],
            [0, 3, 0, 4],
            [3, 0, 4, 0],
        ]
    )
    assert _kron(a, x) == want


def test_matrix_dagger_conjugates():
    m = Matrix(ExactRing, [[I_UNIT, _q(0)], [_q(1) + I_UNIT, _q(2)]])
    d = m.dagger()
    assert d.at(0, 0) == -I_UNIT
    assert d.at(0, 1) == _q(1) + -I_UNIT
    assert d.at(1, 0) == _q(0)
    assert d.at(1, 1) == _q(2)


def test_matrix_trace_column_str():
    m = _qm([[1, 2], [3, 4]])
    assert m.trace() == _q(5)
    assert m.column() == _qcol([1, 2, 3, 4])
    assert str(m) == "[ [1, 2] ; [3, 4] ]"
    assert m != m.rows  # a Matrix equals only a Matrix
    with pytest.raises(ValueError, match="non-square"):
        _qm([[1, 2]]).trace()


def test_matrix_shape_errors():
    with pytest.raises(ValueError, match="ragged"):
        _qm([[1, 2], [3]])
    with pytest.raises(ValueError, match="column count"):
        Matrix(ExactRing, [])
    empty = Matrix(ExactRing, [], 3)
    assert empty.shape == (0, 3)
    with pytest.raises(ValueError, match="compose"):
        _qm([[1, 2]]).mul(_qm([[1, 2]]))
    assert Matrix.zeros(ExactRing, 0, 0) != Matrix.zeros(BoolRing, 0, 0)


def test_matrix_copies_its_rows():
    rows = [[_q(1), _q(2)], [_q(3), _q(4)]]
    m = Matrix(ExactRing, rows)
    rows[0][0] = _q(9)
    rows.append([_q(5), _q(6)])
    assert m == _qm([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="^ragged matrix$"):
        Matrix(ExactRing, iter([[_q(1)], [_q(2), _q(3)]]))
    z = Matrix.zeros(ExactRing, 2, 2)  # its own rows, one list each
    z.put(0, 1, _q(7))
    assert z == _qm([[0, 7], [0, 0]])


def test_load_model_basics(c2, c2_mod):
    assert c2_mod.name == "flip"
    assert c2_mod.ring is ExactRing
    assert c2_mod.dims == {"Q": 2}
    assert c2_mod.mats["X"] == _qm([[0, 1], [1, 0]])
    assert c2_mod.mats["id Q"] == Matrix.identity(ExactRing, 2)


def test_load_model_defaults_to_exact(c2):
    m = load_model("model m over c2\ndim Q = 2\nmat X = [ [0, 1] ; [1, 0] ]\n", c2)
    assert m.ring is ExactRing


def test_dims_helpers(pauli8, pauli8_mod):
    w = (Literal("Q"), Literal("Q", True))
    assert pauli8_mod.dim_word(w) == 4
    a = anf(parse_formula("((Q x Q) + I)", pauli8))
    assert sum(pauli8_mod.dim_word(w) for w in a) == 5


def test_load_model_parse_errors(c2):
    good = "model m over c2\ndim Q = 2\nmat X = [ [0, 1] ; [1, 0] ]\n"
    with pytest.raises(ModelError, match="missing model"):
        load_model("dim Q = 2\n", c2)
    with pytest.raises(ParseError, match="duplicate model"):
        load_model("model a over c2\nmodel b over c2\n", c2)
    with pytest.raises(ParseError, match="category is"):
        load_model("model m over other\n", c2)
    with pytest.raises(ParseError, match="unknown scalar"):
        load_model("model m over c2\nscalars float\n", c2)
    with pytest.raises(ParseError, match="expected 'dim"):
        load_model("model m over c2\ndim Q\n", c2)
    with pytest.raises(ParseError, match="line 2: expected 'dim"):
        load_model("model m over c2\ndim Q = \u00b2\n", c2)
    with pytest.raises(ParseError, match="line 2: expected 'dim"):
        load_model("model m over c2\ndim Q = " + "2" * 5000 + "\n", c2)
    with pytest.raises(ParseError, match="line 3: bad scalar .*exponent"):
        load_model("model m over c2\ndim Q = 2\nmat X = [ [0, 1e1000000000] ; [1, 0] ]\n", c2)
    with pytest.raises(ParseError, match="duplicate dim"):
        load_model(good + "dim Q = 2\n", c2)
    with pytest.raises(ParseError, match="unknown object"):
        load_model("model m over c2\ndim R = 2\n", c2)
    with pytest.raises(ParseError, match="unknown arrow"):
        load_model(good + "mat Y = [ [1] ]\n", c2)
    with pytest.raises(ParseError, match="duplicate mat"):
        load_model(good + "mat X = [ [0, 1] ; [1, 0] ]\n", c2)
    with pytest.raises(ParseError, match="unknown directive"):
        load_model("model m over c2\nsize Q = 2\n", c2)
    with pytest.raises(ParseError, match="matrix row wants"):
        load_model("model m over c2\ndim Q = 2\nmat X = [ 0, 1 ]\n", c2)
    with pytest.raises(ParseError, match="ragged"):
        load_model("model m over c2\ndim Q = 2\nmat X = [ [0, 1] ; [1] ]\n", c2)


def test_load_model_functor_checks(c2):
    with pytest.raises(ModelError, match="no dimension"):
        load_model("model m over c2\nmat X = [ [0, 1] ; [1, 0] ]\n", c2)
    with pytest.raises(ModelError, match="no matrix"):
        load_model("model m over c2\ndim Q = 2\n", c2)
    with pytest.raises(ModelError, match="shape"):
        load_model("model m over c2\ndim Q = 2\nmat X = [ [1] ]\n", c2)
    with pytest.raises(ModelError, match="break composition"):
        load_model("model m over c2\ndim Q = 2\nmat X = [ [1, 0] ; [0, 2] ]\n", c2)
    with pytest.raises(ModelError, match="break dagger"):
        load_model("model m over c2\ndim Q = 2\nmat X = [ [1, 1] ; [0, -1] ]\n", c2)
    with pytest.raises(ModelError, match="must be the identity"):
        load_model(
            "model m over c2\ndim Q = 2\nmat X = [ [0, 1] ; [1, 0] ]\n"
            "mat id Q = [ [1, 1] ; [0, 1] ]\n",
            c2,
        )


def test_explicit_identity_matrix_is_accepted(c2, c2_mod):
    m = load_model(fixtures.C2_MOD + "mat id Q = [ [1, 0] ; [0, 1] ]\n", c2)
    assert m.mats == c2_mod.mats


def test_model_values_survive_copy_and_pickle(c2, c2_mod, c2_bool_mod):
    # a copied or unpickled matrix holds a copy of its ring, equal but not the
    # same object: so rings compare with ==, and hold no lambda, which would
    # not pickle
    nets = [parse_net(t, c2) for t in (fixtures.BELL_NET, fixtures.BELLX_NET)]
    values = [_q(3), Qi2(Fraction(-1, 2)), SQRT2, I_UNIT, Qi2(Fraction(1, 3), 1, Fraction(-2, 5), 7),
              ExactRing, BoolRing]
    values += [eval_net(net, mod) for net in nets for mod in (c2_mod, c2_bool_mod)]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x
            if type(x) is Qi2:
                assert hash(y) == hash(x)


def test_interpretation_rejects_bad_dims(c2):
    with pytest.raises(ModelError, match="bad dimension"):
        Interpretation("m", c2, ExactRing, {"Q": -1}, {})


def test_pauli_matrices(pauli8_mod):
    assert pauli8_mod.mats["Z"] == _qm([[1, 0], [0, -1]])
    assert pauli8_mod.mats["XZ"] == _qm([[0, -1], [1, 0]])
    assert pauli8_mod.mats["m1"] == _qm([[-1, 0], [0, -1]])


def test_eval_wiring_single_pair(pauli8, pauli8_mod):
    q = Literal("Q")
    t = wiring((q,), (q,), [(0, 1, "X")], (), pauli8)
    m = Matrix.zeros(ExactRing, 2, 2)
    for i, j, v in eval_wiring(t, pauli8_mod):
        m.put(i, j, v)
    assert m == pauli8_mod.mats["X"]


def test_eval_scalars(pauli8, pauli8_mod):
    assert eval_free(scalar(pauli8, [pauli8.loop_of("id Q")]), pauli8_mod).at(0, 0) == _q(2)
    assert eval_free(scalar(pauli8, [pauli8.loop_of("X")]), pauli8_mod).at(0, 0) == _q(0)
    assert eval_free(scalar(pauli8, [pauli8.loop_of("m1")]), pauli8_mod).at(0, 0) == _q(-2)
    two = scalar(pauli8, [], mult=2)
    assert eval_free(two, pauli8_mod).at(0, 0) == _q(2)


def test_eval_free_is_functorial(pauli8, pauli8_mod):
    from collections import Counter
    from cqlnet.freecat import FreeArrow

    rng = random.Random(67)
    for _ in range(10):
        f = random_free_arrow(pauli8, rng)
        entries = {}
        cod = random_anf(pauli8, rng)
        for i in range(len(cod)):
            for j in range(len(f.cod)):
                if rng.random() < 0.4:
                    continue
                entries[(i, j)] = Counter(
                    {random_wiring(pauli8, rng, f.cod[j], cod[i]): 1}
                )
        g = FreeArrow(pauli8, f.cod, cod, entries)
        mf, mg = eval_free(f, pauli8_mod), eval_free(g, pauli8_mod)
        assert eval_free(f >> g, pauli8_mod) == mg.mul(mf)
        assert eval_free(f.dagger(), pauli8_mod) == mf.dagger()
        h = f + f
        assert eval_free(h, pauli8_mod) == _add(mf, mf)


def test_eval_free_kron_on_single_words(pauli8, pauli8_mod):
    # the tensor of multi-word arrows permutes blocks, so the plain kron law
    # is stated for one-word domains and codomains only
    from collections import Counter
    from cqlnet.freecat import FreeArrow

    def one_word(rng):
        dom = (random_anf(pauli8, rng)[0],)
        cod = (random_anf(pauli8, rng)[0],)
        t = random_wiring(pauli8, rng, dom[0], cod[0])
        return FreeArrow(pauli8, dom, cod, {(0, 0): Counter({t: 1})})

    rng = random.Random(71)
    for _ in range(10):
        f, g = one_word(rng), one_word(rng)
        mf, mg = eval_free(f, pauli8_mod), eval_free(g, pauli8_mod)
        assert eval_free(f @ g, pauli8_mod) == _kron(mf, mg)


def test_eval_free_units(pauli8, pauli8_mod):
    a = anf(parse_formula("((Q x Q) + I)", pauli8))
    assert eval_free(identity(pauli8, a), pauli8_mod) == Matrix.identity(ExactRing, 5)
    assert eval_free(zero(pauli8, a, UNIT), pauli8_mod) == Matrix.zeros(ExactRing, 1, 5)
    q = anf(parse_formula("Q", pauli8))
    assert eval_free(eta(pauli8, q), pauli8_mod).column() == _qcol([1, 0, 0, 1])
    assert eval_free(embed(pauli8, "XZ"), pauli8_mod) == _qm([[0, -1], [1, 0]])


def test_eval_free_size_limit(pauli8, pauli8_mod):
    def power(n):
        return anf(parse_formula("(Q x " * (n - 1) + "Q" + ")" * (n - 1), pauli8))

    wide, narrow = power(11), power(9)
    assert eval_free(zero(pauli8, narrow, wide), pauli8_mod).shape == (2**11, 2**9)
    with pytest.raises(ModelError, match=f"2048 x 2048: {2**22} entries, more than {2**20}"):
        eval_free(zero(pauli8, wide, wide), pauli8_mod)


def test_max_entries_bounds_dims_and_both_evaluators(c2, monkeypatch):
    # bell.net's vector and its arrow's matrix hold 4 entries, and so does dim Q = 2's
    # identity: at MAX_ENTRIES = 4 each passes, at 3 each is a ModelError
    from cqlnet import model

    net = parse_net(fixtures.BELL_NET, c2)
    fa = denote(net)
    monkeypatch.setattr(model, "MAX_ENTRIES", 4)
    mod = load_model(fixtures.C2_MOD, c2)
    assert eval_net(net, mod).shape == (4, 1)
    assert eval_free(fa, mod).shape == (4, 1)
    monkeypatch.setattr(model, "MAX_ENTRIES", 3)
    with pytest.raises(ModelError, match=r"^dim Q = 2: 4 matrix entries, more than 3$"):
        load_model(fixtures.C2_MOD, c2)
    with pytest.raises(ModelError, match=r"^net bell: 4 output entries, more than 3$"):
        eval_net(net, mod)
    with pytest.raises(ModelError, match=r"^arrow matrix is 4 x 1: 4 entries, more than 3$"):
        eval_free(fa, mod)


def test_eval_closed_tensor_net(pauli8, pauli8_mod, closed_tensor_net):
    # K axioms on one cycle through the formula cut: the value is the trace 2^K
    for k in (12, 16):
        net = parse_net(closed_tensor_net(k), pauli8)
        assert str(eval_net(net, pauli8_mod)) == f"[ [{2**k}] ]"
    big = parse_net(closed_tensor_net(256), pauli8)
    start = time.perf_counter()
    assert eval_net(big, pauli8_mod).column() == [_q(2**256)]
    assert time.perf_counter() - start < 1.0


def _parallel_net(n):
    """n axioms X side by side, conclusions Q* , Q repeated n times."""
    lines = ["net par", "conclusions " + " , ".join(["Q* , Q"] * n), "slice"]
    lines += [f"  ax a{k} : X" for k in range(n)]
    lines += ["  out " + " , ".join(f"a{k}.0 , a{k}.1" for k in range(n)), "end"]
    return "\n".join(lines) + "\n"


def test_eval_free_parallel_axioms_agrees_with_eval_net(pauli8, pauli8_mod):
    # 2^16 entries, 2^8 of them nonzero
    net = parse_net(_parallel_net(8), pauli8)
    fa = denote(net)
    start = time.perf_counter()
    free = eval_free(fa, pauli8_mod)
    assert time.perf_counter() - start < 1.0
    assert free == eval_net(net, pauli8_mod)
    assert sum(x != ExactRing.zero for x in free.column()) == 2**8


def test_validate_net_rejects_the_cyclic_wiring_eval_net_trusts(pauli8):
    # two times links feeding each other, once off to the side and once under an out:
    # eval_net does not check its net, so a hand-built one must pass validate_net
    links = {"a": AxLink("id Q"), "t": TimesLink(), "w": TimesLink()}
    wires = {("t", 0): ("w", 0), ("t", 1): ("a", 0), ("w", 0): ("t", 0), ("w", 1): ("a", 1)}
    for outs, concl in (((), ()), ((("t", 0),), (parse_formula("(Q* x Q)"),))):
        net = Net("cyc", concl, (Slice(links, wires, outs),), pauli8)
        with pytest.raises(NetError, match="cyclic wiring"):
            validate_net(net)


def test_eval_net_of_a_completed_net_is_eval_free_of_the_name(
    c2, c2_mod, pauli8, pauli8_mod, inclusion, inclusion_mod, hy, hy_mod
):
    # complete builds its net unchecked: eval_net must read it as it reads a parsed one
    rng = random.Random(11)
    for cat, mod in ((c2, c2_mod), (pauli8, pauli8_mod), (inclusion, inclusion_mod), (hy, hy_mod)):
        for _ in range(100):
            fa = random_free_arrow(cat, rng)
            assert eval_net(complete(fa), mod) == eval_free(name_of(fa), mod)


def test_eval_opposite_injections_under_a_formula_cut_are_zero(pauli8, pauli8_mod):
    slice_ = (
        "slice\n  ax a : id Q\n  unit u\n  unit v\n  plus1 p = u.0 | I\n"
        "  plus{} q = {}\n  cut p.0 , q.0 : id\n  out a.0 , a.1\nend\n"
    )
    head = "net n\nconclusions Q* , Q\n"
    opposite = parse_net(head + slice_.format(2, "I | v.0"), pauli8)
    assert eval_net(opposite, pauli8_mod) == Matrix.zeros(ExactRing, 4, 1)
    assert eval_free(denote(opposite), pauli8_mod) == Matrix.zeros(ExactRing, 4, 1)
    same = parse_net(head + slice_.format(1, "v.0 | I"), pauli8)
    assert eval_net(same, pauli8_mod).column() == _qcol([1, 0, 0, 1])


def test_eval_bell_states(pauli8, pauli8_mod):
    bell = parse_net(fixtures.BELL_NET, pauli8)
    assert eval_net(bell, pauli8_mod).column() == _qcol([1, 0, 0, 1])
    bellx = parse_net(fixtures.BELLX_NET, pauli8)
    assert eval_net(bellx, pauli8_mod).column() == _qcol([0, 1, 1, 0])
    chain = parse_net(fixtures.CHAIN_NET, pauli8)
    assert eval_net(chain, pauli8_mod).column() == _qcol([1, 0, 0, 1])


def test_eval_ring_scalar(pauli8, pauli8_mod):
    ring_net = parse_net(fixtures.RING_NET, pauli8)
    m = eval_net(ring_net, pauli8_mod)
    assert m.shape == (1, 1)
    assert m.at(0, 0) == _q(0)


def test_eval_swapping_vector(pauli8, pauli8_mod):
    swap = parse_net(fixtures.SWAPPING_NET, pauli8)
    want = [1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, -1, 0, 1, -1, 0]
    assert eval_net(swap, pauli8_mod).column() == _qcol(want)


def test_eval_empty_net_is_zero(pauli8, pauli8_mod):
    empty = parse_net("net e\nconclusions Q* , Q\n", pauli8)
    assert eval_net(empty, pauli8_mod) == Matrix.zeros(ExactRing, 4, 1)


def test_eval_bool_model(c2, c2_bool_mod):
    bell = parse_net(fixtures.BELL_NET, c2)
    assert eval_net(bell, c2_bool_mod).column() == [True, False, False, True]
    bellx = parse_net(fixtures.BELLX_NET, c2)
    assert eval_net(bellx, c2_bool_mod).column() == [False, True, True, False]


def test_eval_bool_model_agrees_with_free(c2, c2_bool_mod):
    rng = random.Random(17)
    for i in range(60):
        net = random_net(c2, rng, name=f"n{i}", max_links=24)
        assert eval_net(net, c2_bool_mod) == eval_free(denote(net), c2_bool_mod), print_net(net)


def test_eval_category_mismatch(c2, pauli8, pauli8_mod):
    bell_c2 = parse_net(fixtures.BELL_NET, c2)
    with pytest.raises(ValueError, match="different categories"):
        eval_net(bell_c2, pauli8_mod)
    with pytest.raises(ValueError, match="different categories"):
        eval_free(embed(c2, "X"), pauli8_mod)


def test_eval_cut_chain_contracts_each_cut_early(c2, c2_bool_mod, monkeypatch):
    # 14 X axioms joined by 13 X cuts compose X 27 times, which is X.
    # Following the one path multiplies each matrix into a 2 x 2 product,
    # so the multiplications grow linearly with n instead of as 2^n.
    n = 14
    lines = ["net chain", "conclusions Q* , Q", "slice"]
    lines += [f"  ax a{k} : X" for k in range(n)]
    lines += [f"  cut a{k}.1 , a{k + 1}.0 : X" for k in range(n - 1)]
    lines += [f"  out a0.0 , a{n - 1}.1", "end"]
    chain = parse_net("\n".join(lines) + "\n", c2)
    calls = []

    def mul(x, y):
        calls.append(None)
        return x and y

    monkeypatch.setattr(c2_bool_mod, "ring", BoolRing._replace(mul=mul))
    assert eval_net(chain, c2_bool_mod).column() == [False, True, True, False]
    assert len(calls) <= 16 * n


def test_eval_non_square_model_agrees_with_free(inclusion, inclusion_mod):
    assert inclusion_mod.mats["f"].shape == (3, 2)
    rng = random.Random(11)
    for i in range(40):
        net = random_net(inclusion, rng, name=f"n{i}", max_links=16)
        free = eval_free(denote(net), inclusion_mod)
        assert eval_net(net, inclusion_mod) == free, print_net(net)


def test_eval_irrational_model_agrees_with_free(hy, hy_mod):
    h = hy_mod.mats["H"].at(0, 0)
    assert h * h == Qi2(Fraction(1, 2))
    rng = random.Random(13)
    for i in range(40):
        net = random_net(hy, rng, name=f"n{i}", max_links=16)
        free = eval_free(denote(net), hy_mod)
        assert eval_net(net, hy_mod) == free, print_net(net)
