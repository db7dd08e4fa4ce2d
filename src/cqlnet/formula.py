"""Formulas over a generating category, and their additive normal forms.

Grammar: ``F ::= '0' | 'I' | Atom | F '*' | '(' F 'x' F ')' | '(' F '+' F ')'``.
Duals are pushed to the atoms on construction, so ``Tensor``/``Plus`` nodes
never sit under a star.  ``I`` may appear only as a whole formula or directly
under ``+``; ``0`` only as a whole formula.

The additive normal form (ANF) of a formula is the tuple of its tensor words:
distributing every ``+`` out of every ``x`` left-to-right.  A word is a tuple
of literals, the empty word being ``I``; the empty ANF is ``0``.

Formula nodes are immutable slotted classes, equal only within one class;
literals are named tuples.  ``anf`` and ``fmt`` cache a node's ANF and text on
the node, outside ``==``, ``hash`` and ``repr``.  Reading or checking a formula
over a category (one walk, ``_intern``), or building one for ``complete``, goes
through the category's formula table: equal formulas are one node, one set of caches.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import FormulaError, ParseError


class _Record:
    """Slotted, with the fields ``__match_args__`` names: ``==`` and ``repr`` read them."""

    __slots__ = ()
    __match_args__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self.__reduce__()[1] == other.__reduce__()[1]

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, k) for k in self.__match_args__)


class _Value(_Record):
    """A ``_Record`` that is immutable and hashable: ``__init__`` sets its fields once."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self.__reduce__()[1])


class _Empty(_Value):
    """A value with no fields, equal to every instance of its class."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(())


class Formula(_Value):
    """A formula node; ``anf`` and ``fmt`` cache their results on it, outside ``==``."""

    __slots__ = ("_anf", "_fmt")

    def __str__(self):
        return fmt(self)


class _Named(Formula):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        return type(other) is type(self) and other.name == self.name

    def __hash__(self):
        return hash((self.name,))


class _Binary(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):  # shared subformulas compare by identity
        return type(other) is type(self) and (
            (left := other.left) is self.left or left == self.left) and (
            (right := other.right) is self.right or right == self.right)

    def __hash__(self):
        return hash((self.left, self.right))


class Zero(_Empty, Formula):
    __slots__ = ()


class Unit(_Empty, Formula):
    __slots__ = ()


class Atom(_Named):
    __slots__ = ()


class DualAtom(_Named):
    __slots__ = ()


class Tensor(_Binary):
    __slots__ = ()


class Plus(_Binary):
    __slots__ = ()


class Literal(namedtuple("Literal", "name star", defaults=(False,))):
    """An atom or dual atom inside a tensor word."""

    __slots__ = ()

    def dual(self):
        return Literal(self.name, not self.star)

    def __str__(self):
        return self.name + ("*" if self.star else "")


# ---------------------------------------------------------------------------
# structural operations


def star(f):
    """The dual formula, with stars pushed to the atoms."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _dual(f, {}, {})


def anf(f):
    """The additive normal form: a tuple of tensor words, computed once per node."""
    if (out := getattr(f, "_anf", None)) is not None:
        return out
    match f:
        case Zero():
            out = ()
        case Unit():
            out = ((),)
        case Atom(name):
            out = ((Literal(name, False),),)
        case DualAtom(name):
            out = ((Literal(name, True),),)
        case Plus(l, r):
            out = anf(l) + anf(r)
        case Tensor(l, r):
            out = anf_kron(anf(l), anf(r))  # a FormulaError here leaves f without a cache
        case _:
            raise TypeError(f"not a formula: {f!r}")
    object.__setattr__(f, "_anf", out)  # past the immutable node's guard
    return out


def anf_star(a):
    """Literal-wise dual of an ANF; commutes with ``anf`` and ``star``."""
    return tuple(tuple(lit.dual() for lit in w) for w in a)


# Most words an ANF may have.  A tensor of sums multiplies word counts, so a
# short formula can stand for exponentially many words; ``anf_kron`` checks
# the count before it builds them.
MAX_WORDS = 2**12


def anf_kron(a, b):
    """Tensor of ANFs: all concatenations u+v, u-major."""
    if len(a) * len(b) > MAX_WORDS:
        raise FormulaError(f"ANF of {len(a) * len(b)} words, more than {MAX_WORDS}")
    return tuple(u + v for u in a for v in b)


def anf_kron_all(parts):
    out = ((),)
    for p in parts:
        out = anf_kron(out, p)
    return out


def plus_path(n, k):
    """Word k's plus bits in ``anf_formula`` of n words, outermost sum first.

    True picks the right summand.  The path has at most ceil(log2 n) bits.
    """
    bits = []
    while n > 1:
        half = (n + 1) // 2
        bits.append(k >= half)
        if k >= half:
            k, n = k - half, n - half
        else:
            n = half
    return bits


def _balanced(cls, parts, nodes):
    """``parts`` joined by ``cls`` through ``nodes``, in halves with the larger half on the left.

    One to three parts give the left-nested join; no parts give None.
    """
    if len(parts) <= 1:
        return parts[0] if parts else None
    mid = (len(parts) + 1) // 2
    left, right = _balanced(cls, parts[:mid], nodes), _balanced(cls, parts[mid:], nodes)
    return _node(nodes, (cls, id(left), id(right)), left, right)


def anf_formula(a):
    """The canonical formula of an ANF: sums and each word's tensors both balanced.

    Word k lies under ``len(plus_path(n, k))`` sums, and n words of at most m
    literals nest ceil(log2 n) + ceil(log2 m) deep.  One to three words or
    literals give the left-nested sum or tensor.
    """
    return _anf_node(a, {})


def _anf_node(a, nodes):
    """``anf_formula(a)`` built through ``nodes``, as ``_read`` builds: equal parts are one node."""
    words = [[_node(nodes, (DualAtom if lit.star else Atom, lit.name), lit.name) for lit in w]
             for w in a]
    words = [_balanced(Tensor, w, nodes) or _node(nodes, (Unit,)) for w in words]
    return _balanced(Plus, words, nodes) or _node(nodes, (Zero,))


def fmt_word(w):
    if not w:
        return "I"
    return " x ".join(str(lit) for lit in w)


def fmt_anf(a):
    if not a:
        return "0"
    return " + ".join(fmt_word(w) for w in a)


def parse_anf(text, cat=None, lineno=0):
    """Parse an ANF written as words joined by '+', literals joined by 'x'."""
    text = text.strip()
    if text == "0":
        return ()
    words = []
    for wtext in text.split("+"):
        wtext = wtext.strip()
        if wtext == "I":
            words.append(())
            continue
        toks = wtext.split()
        if len(toks) % 2 == 0 or any(t != "x" for t in toks[1::2]):
            raise ParseError(lineno, f"bad word {wtext!r}: literals joined by ' x '")
        lits = []
        for ltext in toks[0::2]:
            starred = ltext.endswith("*")
            name = ltext[:-1] if starred else ltext
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ParseError(lineno, f"bad literal {ltext!r}")
            if cat is not None and name not in cat.objects:
                raise ParseError(lineno, f"unknown atom {name!r}")
            lits.append(Literal(name, starred))
        words.append(tuple(lits))
    return tuple(words)


def fmt(f):
    """The text of a formula, computed once per node."""
    if (out := getattr(f, "_fmt", None)) is None:
        object.__setattr__(f, "_fmt", out := _fmt(f))
    return out


def _fmt(f):
    match f:
        case Zero():
            return "0"
        case Unit():
            return "I"
        case Atom(name):
            return name
        case DualAtom(name):
            return name + "*"
        case Tensor(l, r):
            return f"({fmt(l)} x {fmt(r)})"
        case Plus(l, r):
            return f"({fmt(l)} + {fmt(r)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# parsing


_TOKEN = re.compile(r"[()*+]|\w+")  # \w is str.isalnum() or "_", and \s str.isspace()
_BAD_CHAR = re.compile(r"[^\w\s()*+]")


def _tokenize(text, lineno):
    if (bad := _BAD_CHAR.search(text)) is not None:
        raise ParseError(lineno, f"bad character {bad.group()!r} in formula")
    return _TOKEN.findall(text)


# Deepest bracket nesting a formula may have.  Every formula read from text
# passes through ``_parse``, and every formula a built net names through
# ``_intern``, so this also bounds the recursive walkers (``star``, ``anf``,
# ``fmt``, ...); the net checker bounds the labels a slice builds by it too
# (``net._OpenSlice.settle``).  Formulas built by ``anf_formula`` are log-depth
# in their words and literals.
MAX_DEPTH = 256
_TOO_DEEP = f"formula nested deeper than {MAX_DEPTH}"

# Most entries a category's formula table may hold: ``Category.formula_table``
# starts it over from the category's atoms once it is this full.
MAX_FORMULAS = 2**16


def _node(nodes, key, *parts):
    """The one ``key[0](*parts)`` in ``nodes``, keyed by class and names or shared parts' ids."""
    if (node := nodes.get(key)) is None:
        node = nodes[key] = key[0](*parts)
    return node


def _dual(f, nodes, duals):
    """``star(f)`` over the nodes of ``nodes``; ``duals`` maps the id of each times or plus
    node met to its dual, so a shared part is walked once."""
    if isinstance(f, _Named):
        return _node(nodes, (DualAtom if type(f) is Atom else Atom, f.name), f.name)
    if isinstance(f, _Binary):
        if (out := duals.get(id(f))) is None:
            left, right = _dual(f.left, nodes, duals), _dual(f.right, nodes, duals)
            out = duals[id(f)] = _node(nodes, (type(f), id(left), id(right)), left, right)
        return out
    return f


def _intern(g, under, depth, cat, nodes, seen):
    """The node of ``nodes``, keyed as ``_parse`` keys, for formula ``g``, ``depth`` deep
    under an ``under`` node ("x", "+" or None): the one walk that checks a formula's node
    classes, nesting, unit and zero rules, and atoms given a category (FormulaError).

    ``seen`` maps the id of each times or plus node that passed to its node and the greatest
    depth it passed at, so a shared part is walked again only when met deeper.
    """
    kind = type(g)
    if kind is Tensor or kind is Plus:
        if (hit := seen.get(id(g))) is not None and hit[1] >= depth:
            return hit[0]
        if depth == MAX_DEPTH:
            raise FormulaError(_TOO_DEEP)
        op = "x" if kind is Tensor else "+"
        left = _intern(g.left, op, depth + 1, cat, nodes, seen)
        right = _intern(g.right, op, depth + 1, cat, nodes, seen)
        node = _node(nodes, (kind, id(left), id(right)), left, right)
        seen[id(g)] = node, depth
        return node
    if kind is Atom or kind is DualAtom:
        if cat is not None and g.name not in cat.objects:
            raise FormulaError(f"unknown atom {g.name!r}")
        return _node(nodes, (kind, g.name), g.name)
    if kind is Unit:
        if under == "x":
            raise FormulaError("I may not appear under x")
    elif kind is Zero:
        if under is not None:
            raise FormulaError("0 may only appear as a whole formula")
    else:
        raise FormulaError(f"not a formula: {g!r}")
    return _node(nodes, (kind,))


def _parse(toks, pos, lineno, nodes, depth=0):
    if pos >= len(toks):
        raise ParseError(lineno, "unexpected end of formula")
    t = toks[pos]
    if t == "(":
        if depth == MAX_DEPTH:
            raise ParseError(lineno, _TOO_DEEP)
        left, pos = _parse(toks, pos + 1, lineno, nodes, depth + 1)
        if pos >= len(toks) or toks[pos] not in ("x", "+"):
            raise ParseError(lineno, "expected 'x' or '+' in formula")
        op = toks[pos]
        right, pos = _parse(toks, pos + 1, lineno, nodes, depth + 1)
        if pos >= len(toks) or toks[pos] != ")":
            raise ParseError(lineno, "expected ')' in formula")
        key = (Tensor if op == "x" else Plus, id(left), id(right))
        node = _node(nodes, key, left, right)
    elif t == "0" or t == "I":
        node = _node(nodes, (Zero if t == "0" else Unit,))
    elif t[0].isalpha() or t[0] == "_":
        node = _node(nodes, (Atom, t), t)
    else:
        raise ParseError(lineno, f"unexpected token {t!r} in formula")
    pos += 1
    while pos < len(toks) and toks[pos] == "*":
        node = _dual(node, nodes, {})
        pos += 1
    return node, pos


def parse_formula(text, cat=None, lineno=0):
    """Parse one formula; validates restrictions, and atoms if a category is given.

    Over a category, a text it has read before is a lookup in its formula table.
    """
    if cat is None:
        return _read(text, None, lineno, {})
    return _text_node(text, cat, lineno, cat.formula_table())


def _text_node(text, cat, lineno, nodes):
    """The node ``nodes`` holds for ``text``; on a miss, ``_read`` and stored once it passed."""
    if (f := nodes.get(text)) is None:
        f = nodes[text] = _read(text, cat, lineno, nodes)
    return f


def _read(text, cat, lineno, nodes):
    """``parse_formula`` building through ``nodes``: what one table reads shares equal parts."""
    toks = _tokenize(text, lineno)
    node, pos = _parse(toks, 0, lineno, nodes)
    if pos != len(toks):
        raise ParseError(lineno, f"trailing tokens after formula: {' '.join(toks[pos:])}")
    try:
        return _intern(node, None, 0, cat, nodes, {})
    except FormulaError as exc:
        raise ParseError(lineno, str(exc)) from exc


# ---------------------------------------------------------------------------
# the shared line format of category, model, net and arrow files


def directives(text):
    """Each line as ``(lineno, head, rest)``, cut at its first space; no comments, no blanks."""
    comments = "#" in text
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = (raw.split("#", 1)[0] if comments else raw).strip()
        if line:
            head, _, rest = line.partition(" ")
            yield lineno, head, rest.strip()


def split_top(text, sep, lineno):
    """Split on ``sep`` outside ``()`` and ``[]``, stripping each part; ParseError if unbalanced."""
    if "(" not in text and "[" not in text and ")" not in text and "]" not in text:
        return [part.strip() for part in text.split(sep)]
    parts = []
    opened = []  # the closing bracket each open one wants
    start = 0
    for k, c in enumerate(text):
        if c in "([":
            opened.append(")" if c == "(" else "]")
        elif c in ")]":
            if not opened or opened.pop() != c:
                raise ParseError(lineno, "unbalanced brackets")
        elif c == sep and not opened:
            parts.append(text[start:k].strip())
            start = k + 1
    if opened:
        raise ParseError(lineno, "unbalanced brackets")
    parts.append(text[start:].strip())
    return parts


def parse_nat(text, lineno, message):
    """A natural number written in ASCII digits; else ParseError(lineno, message)."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # a digit run past Python's int-conversion limit
            pass
    raise ParseError(lineno, message)
