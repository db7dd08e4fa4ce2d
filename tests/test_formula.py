import random
from functools import reduce

import pytest

from cqlnet import fixtures
from cqlnet import formula as formula_module
from cqlnet.errors import FormulaError, ParseError
from cqlnet.formula import (
    MAX_DEPTH,
    MAX_WORDS,
    Atom,
    DualAtom,
    Literal,
    Plus,
    Tensor,
    Unit,
    Zero,
    anf,
    anf_formula,
    anf_kron,
    anf_star,
    fmt,
    fmt_anf,
    parse_anf,
    parse_formula,
    plus_path,
    split_top,
    star,
)
from cqlnet.net import PlusLink, parse_net
from cqlnet.randgen import random_anf, random_net


def test_parse_and_fmt_round_trip():
    for text in [
        "Q",
        "Q*",
        "I",
        "0",
        "(Q x Q)",
        "(Q* x Q)",
        "(Q + I)",
        "((Q x Q) + (Q* x Q*))",
        "((I + I) + (I + I))",
    ]:
        f = parse_formula(text)
        assert parse_formula(fmt(f)) == f


def test_star_pushes_to_atoms():
    f = parse_formula("((Q x Q) + I)")
    assert star(f) == parse_formula("((Q* x Q*) + I)")
    g = parse_formula("(Q + Q*)*")
    assert g == Plus(DualAtom("Q"), Atom("Q"))


def test_star_involution():
    f = parse_formula("((Q* x (Q + I)) + Q)")
    assert star(star(f)) == f


def test_anf_distributes():
    f = parse_formula("((Q + I) x Q*)")
    assert anf(f) == (
        (Literal("Q"), Literal("Q", True)),
        (Literal("Q", True),),
    )
    assert anf(parse_formula("0")) == ()
    assert anf(parse_formula("I")) == ((),)


def test_anf_nested_oracle():
    # ((A + B) x (C + D)) enumerates words in row-major order
    f = Tensor(Plus(Atom("A"), Atom("B")), Plus(Atom("C"), Atom("D")))
    assert anf(f) == (
        (Literal("A"), Literal("C")),
        (Literal("A"), Literal("D")),
        (Literal("B"), Literal("C")),
        (Literal("B"), Literal("D")),
    )


def _anf_by_recursion(f):
    """anf as a plain recursive walk, with no cache: the reference for the cached one."""
    match f:
        case Zero():
            return ()
        case Unit():
            return ((),)
        case Atom(name):
            return ((Literal(name, False),),)
        case DualAtom(name):
            return ((Literal(name, True),),)
        case Plus(l, r):
            return _anf_by_recursion(l) + _anf_by_recursion(r)
        case Tensor(l, r):
            return anf_kron(_anf_by_recursion(l), _anf_by_recursion(r))
    raise TypeError(f"not a formula: {f!r}")


def _star_by_recursion(f):
    """star as a plain recursive walk that shares no nodes: the reference for ``star``."""
    match f:
        case Zero() | Unit():
            return f
        case Atom(name):
            return DualAtom(name)
        case DualAtom(name):
            return Atom(name)
        case Tensor(l, r):
            return Tensor(_star_by_recursion(l), _star_by_recursion(r))
        case Plus(l, r):
            return Plus(_star_by_recursion(l), _star_by_recursion(r))
    raise TypeError(f"not a formula: {f!r}")


def _corpus_formulas(pauli8, c2, corpus, wide_corpus):
    """Over 2,000 formulas: the examples', the corpora's and random ANFs' rebuilt formulas."""
    rng = random.Random(47)
    texts = [text for name, text in fixtures.EXAMPLES.items() if name.endswith(".net")]
    nets = [parse_net(text, pauli8) for text in texts] + corpus + wide_corpus
    nets += [random_net(c2 if i % 2 else pauli8, rng, max_links=32) for i in range(60)]
    formulas = [f for net in nets for f in net.conclusions]
    formulas += [link.other for net in nets for s in net.slices for link in s.links.values()
                 if isinstance(link, PlusLink)]
    for i in range(200):
        a = random_anf(c2 if i % 2 else pauli8, rng)
        b = random_anf(c2 if i % 2 else pauli8, rng)
        formulas += [anf_formula(a), Tensor(anf_formula(a), anf_formula(b)),
                     Plus(anf_formula(b), anf_formula(a))]
    assert len(formulas) > 2000
    return formulas


def test_cached_anf_matches_a_recursive_walk(pauli8, c2, corpus, wide_corpus):
    for f in _corpus_formulas(pauli8, c2, corpus, wide_corpus):
        assert anf(f) == _anf_by_recursion(f)
        assert anf(f) is anf(f)


def test_star_matches_a_recursive_walk(pauli8, c2, corpus, wide_corpus):
    for f in _corpus_formulas(pauli8, c2, corpus, wide_corpus):
        assert star(f) == _star_by_recursion(f)
        assert star(star(f)) == f
    for bad in (None, "Q", Literal("Q")):
        with pytest.raises(TypeError, match="not a formula"):
            star(bad)


def _intern(f, cat=None):
    """``f``'s node from the one walk that checks a formula, as ``validate_net`` runs it on a
    conclusion, over a table of its own."""
    return formula_module._intern(f, None, 0, cat, {}, {})


def _too_deep(f):
    """Whether the walk refuses ``f`` as nested deeper than ``MAX_DEPTH``."""
    try:
        _intern(f)
    except FormulaError as exc:
        assert str(exc) == f"formula nested deeper than {MAX_DEPTH}"
        return True
    return False


def _doubled(n, base):
    """``base`` under ``n`` levels of ``g = Plus(g, g)``: n + 1 nodes that stand for 2^n leaves."""
    for _ in range(n):
        base = Plus(base, base)
    return base


def test_walkers_visit_a_shared_part_once(c2):
    q = Atom("Q")
    g = _doubled(60, Plus(q, Unit()))
    _intern(g, c2)
    assert not _too_deep(g)
    f = parse_formula("((Q x Q*) + (I + Q))", c2)  # a node read over c2 is its own node
    assert formula_module._intern(f, None, 0, c2, c2.formula_table(), {}) is f
    s = star(g)
    for _ in range(60):
        assert s.left is s.right
        s = s.left
    assert s == Plus(DualAtom("Q"), Unit())
    assert _too_deep(_doubled(MAX_DEPTH + 1, q))
    assert not _too_deep(_doubled(MAX_DEPTH, q))
    # a part that passed is walked again when met deeper: h, 200 sums deep, stands
    # first under one sum and then under m + 1 of them
    h = _doubled(200, q)
    for m, deep in ((MAX_DEPTH - 201, False), (MAX_DEPTH - 200, True)):
        k = h
        for _ in range(m):
            k = Plus(k, Unit())
        assert _too_deep(Plus(h, k)) is deep


def test_validate_finds_the_first_fault_of_a_shared_formula_as_of_its_tree(c2):
    # a copy with no shared part (star twice, as a plain walk) is the reference
    q, r, i = Atom("Q"), Atom("R"), Unit()
    g = _doubled(6, Plus(q, i))
    for f in (Plus(g, Tensor(g, i)), Tensor(g, Plus(r, Tensor(i, g))),
              Plus(Tensor(g, Zero()), Plus(g, r)), Plus(Plus(g, r), Tensor(g, Zero()))):
        tree = _star_by_recursion(_star_by_recursion(f))
        with pytest.raises(FormulaError) as shared:
            _intern(f, c2)
        with pytest.raises(FormulaError) as unshared:
            _intern(tree, c2)
        assert str(shared.value) == str(unshared.value)


def test_validate_anf_and_fmt_reject_what_is_not_a_formula():
    for walk, error in ((_intern, FormulaError), (anf, TypeError), (fmt, TypeError)):
        for bad, text in ((3, "3"), ("Q", "'Q'"), (Tensor(Atom("Q"), 3), "3")):
            with pytest.raises(error) as exc:
                walk(bad)
            assert str(exc.value) == f"not a formula: {text}"


def test_cached_anf_is_invisible():
    text = "((Q* x (Q + I)) + (Q x Q))"
    f, g = parse_formula(text), parse_formula(text)
    before = (repr(f), hash(f), fmt(f), str(f))
    anf(f)
    assert (repr(f), hash(f), fmt(f), str(f)) == before
    assert f == g and g == f and hash(f) == hash(g)


def test_anf_star_commutes_with_star():
    f = parse_formula("((Q* x (Q + I)) + (Q x Q))")
    assert anf(star(f)) == anf_star(anf(f))


def test_anf_formula_round_trip():
    for text in ["0", "I", "(Q + I)", "((Q + I) x Q*)", "(Q* x (Q x Q))"]:
        a = anf(parse_formula(text))
        assert anf(anf_formula(a)) == a


def _depth(f):
    """Binary links on the longest path from the root of ``f`` to a leaf."""
    return 1 + max(_depth(f.left), _depth(f.right)) if isinstance(f, (Plus, Tensor)) else 0


def test_anf_formula_nests_log_deep():
    # word 0 is the longest and lies under the most sums, so n words of at
    # most m literals nest ceil(log2 n) + ceil(log2 m) deep
    lits = tuple(Literal(f"A{i}", i % 3 == 0) for i in range(70))
    sizes = [(n, m) for n in range(1, 71) for m in (0, 1, 2, 3, 4, 5, 70)]
    sizes += [(n, m) for n in (1, 2, 3, 4, 5, 70) for m in range(71)]
    for n, m in sizes:
        a = (lits[:m],) + tuple(lits[:min(k % 4, m)] for k in range(1, n))
        f = anf_formula(a)
        assert anf(f) == a
        assert _depth(f) == (n - 1).bit_length() + max(m - 1, 0).bit_length()
    q = Literal("Q")
    assert _depth(anf_formula(((),) * (MAX_DEPTH + 2))) == 9
    assert _depth(anf_formula(((q,) * 2, (q,) * 1200, ()))) == 2 + 11


def test_plus_path_leads_to_word_k_under_at_most_ceil_log2_n_sums():
    for n in range(1, 70):
        a = tuple((Literal(f"A{k}"),) for k in range(n))
        f = anf_formula(a)
        for k in range(n):
            path = plus_path(n, k)
            assert len(path) <= (n - 1).bit_length()
            g = f
            for right in path:
                assert isinstance(g, Plus)
                g = g.right if right else g.left
            assert g == anf_formula((a[k],))


def test_anf_formula_of_max_words_nests_twelve_deep():
    a = tuple((Literal("Q", k % 3 == 0),) for k in range(MAX_WORDS))
    f = anf_formula(a)
    assert anf(f) == a
    assert _depth(f) == (MAX_WORDS - 1).bit_length() == 12


def test_anf_formula_prints_balanced_sums():
    words = [(Literal("A"),), (Literal("B", True),), (), (Literal("C"), Literal("D")),
             (Literal("E"),)]
    texts = ["A", "(A + B*)", "((A + B*) + I)", "((A + B*) + (I + (C x D)))",
             "(((A + B*) + I) + ((C x D) + E))"]
    for n, text in enumerate(texts, 1):
        assert fmt(anf_formula(tuple(words[:n]))) == text
    # one to three words: the formula that nests sums to the left
    for n in (1, 2, 3):
        summands = [anf_formula((w,)) for w in words[:n]]
        assert anf_formula(tuple(words[:n])) == reduce(Plus, summands)


def test_anf_formula_balances_tensors():
    a, b, c, d = Atom("A"), DualAtom("B"), Atom("C"), Atom("D")
    lits = (Literal("A"), Literal("B", True), Literal("C"), Literal("D"))
    assert anf_formula(((),)) == Unit()
    # one to three literals: the tensor that nests to the left
    for n in (1, 2, 3):
        assert anf_formula((lits[:n],)) == reduce(Tensor, (a, b, c)[:n])
    assert anf_formula((lits,)) == Tensor(Tensor(a, b), Tensor(c, d))
    assert fmt(anf_formula((lits + lits[:1],))) == "(((A x B*) x C) x (D x A))"


def test_parse_anf_round_trip():
    for text in ["0", "I", "Q* x Q", "Q* x Q + I", "Q + Q + Q*"]:
        a = parse_anf(text)
        assert parse_anf(fmt_anf(a)) == a
    assert parse_anf("I + I") == ((), ())


def test_parse_anf_rejects_garbage():
    with pytest.raises(ParseError):
        parse_anf("Q Q")
    with pytest.raises(ParseError):
        parse_anf("Q x")
    with pytest.raises(ParseError):
        parse_anf("3Q")


def test_anf_kron_is_row_major():
    a = ((Literal("A"),), (Literal("B"),))
    b = ((Literal("C"),), (Literal("D"),))
    assert anf_kron(a, b) == (
        (Literal("A"), Literal("C")),
        (Literal("A"), Literal("D")),
        (Literal("B"), Literal("C")),
        (Literal("B"), Literal("D")),
    )


def test_anf_kron_word_limit():
    q = ((Literal("Q"),),)
    assert len(anf_kron(q * 64, q * (MAX_WORDS // 64))) == MAX_WORDS
    too_many = f"ANF of {MAX_WORDS + 64} words, more than {MAX_WORDS}"
    with pytest.raises(FormulaError, match=too_many):
        anf_kron(q * 64, q * (MAX_WORDS // 64 + 1))
    # a short formula whose ANF would pass the limit: 16 tensored (Q + Q)
    sums = "(Q + Q)"
    for _ in range(15):
        sums = f"({sums} x (Q + Q))"
    f = parse_formula(sums)
    for _ in range(2):  # the error is raised again, never cached
        with pytest.raises(FormulaError, match=f"ANF of {2 * MAX_WORDS} words"):
            anf(f)


def test_validate_unit_restriction():
    _intern(parse_formula("(Q + I)"))
    with pytest.raises(FormulaError, match="I may not"):
        _intern(Tensor(Unit(), Atom("Q")))


def test_validate_zero_restriction():
    _intern(Zero())
    with pytest.raises(FormulaError, match="0 may only"):
        _intern(Tensor(Zero(), Atom("Q")))
    with pytest.raises(FormulaError, match="0 may only"):
        _intern(Plus(Atom("Q"), Zero()))


def test_validate_atom_names(c2):
    _intern(parse_formula("(Q x Q*)"), c2)
    with pytest.raises(FormulaError, match="unknown atom"):
        _intern(parse_formula("R"), c2)


def test_parse_formula_errors():
    for text in ["", "(Q x Q", "Q )", "(Q x x Q)", "(Q % Q)", "(Q x Q +)"]:
        with pytest.raises(ParseError):
            parse_formula(text)
    # a formula parsed on its own, with no line number, reports line 0
    with pytest.raises(ParseError) as exc:
        parse_formula("(Q x Q")
    assert str(exc.value) == "line 0: expected ')' in formula" and exc.value.lineno == 0


def _tokenize_by_loop(text, lineno):
    """The formula tokens as a loop over the characters reads them: the reference."""
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()*+":
            toks.append(c)
            i += 1
        elif c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise ParseError(lineno, f"bad character {c!r} in formula")
    return toks


TOKEN_CORPUS = [
    "", "   ", "Q", "(Q x Q*)", "((Q+Q)*x_a1)", "Q**", "0", "I", "x", "1Q",
    "été", "(Ω x Ω*)", "ǅ", "Q٣", "x²", "Ⅻ", "½", "中文", "ᾼ",  # non-ASCII letters and digits
    "Q\u00a0x\u3000Q", "(Q\u2003+\u2003Q)", "Q\x1cQ\x1f", "Q\x85Q", "\tQ\n",  # spaces
    "Q\u200bQ", "e\u0301", "Q-1", "Q.", "(Q € Q)", "Q 😀", "(Q % Q)", "Q,Q", "[Q]", "Q/", "Q\x00",
]


def test_tokenize_matches_the_character_loop():
    def outcome(tokenize, text):
        try:
            return tokenize(text, 4)
        except ParseError as exc:
            return str(exc)

    for text in TOKEN_CORPUS:
        assert outcome(formula_module._tokenize, text) == outcome(_tokenize_by_loop, text), text
    # over every code point, the loop's classes: the same bad characters, and
    # the same characters in tokens
    chars = "".join(map(chr, range(0x110000)))
    in_tokens = set(filter(str.isalnum, chars)) | set("_()*+")
    good = in_tokens | set(filter(str.isspace, chars))
    assert formula_module._BAD_CHAR.sub("", chars) == "".join(filter(good.__contains__, chars))
    tokens = formula_module._TOKEN.findall(chars)
    assert "".join(tokens) == "".join(filter(in_tokens.__contains__, chars))


def test_a_parse_shares_equal_subformulas():
    f = parse_formula("((Q x Q*)* x (Q* x Q))")
    assert f == Tensor(Tensor(DualAtom("Q"), Atom("Q")), Tensor(DualAtom("Q"), Atom("Q")))
    assert f.left is f.right
    # a dual is made of the nodes read before it
    g = parse_formula("((Q x Q*)* + (Q x Q*))")
    assert g.left.left is g.right.right and g.left.right is g.right.left
    for text in ("((I + (Q x Q)) + (I + (Q x Q)**))", "((I + (Q x Q)) + (I + (Q* x Q*)*))"):
        h = parse_formula(text)
        assert h.left is h.right and h.left.right.left is h.left.right.right


def test_parse_formula_against_category(c2):
    assert parse_formula("Q*", c2) == DualAtom("Q")
    with pytest.raises(ParseError):
        parse_formula("R", c2)


def test_double_star_parses():
    assert parse_formula("Q**") == Atom("Q")
    assert parse_formula("(Q x Q*)*") == Tensor(DualAtom("Q"), Atom("Q"))


def test_split_commas():
    assert split_top("a , b , c", ",", 1) == ["a", "b", "c"]
    assert split_top("(a , b) , c", ",", 1) == ["(a , b)", "c"]
    assert split_top("x", ",", 1) == ["x"]
    assert split_top("[a , b] , c", ",", 1) == ["[a , b]", "c"]
    for text in ("(a , b , c", "a ) , (b", "[a , b) , c]"):
        with pytest.raises(ParseError, match="^line 3: unbalanced brackets$"):
            split_top(text, ",", 3)
