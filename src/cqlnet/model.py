"""Exact matrix models: evaluate arrows and nets in finite dimension.

Scalars are either exact elements of Q(sqrt2, i), each one integer tuple
(a, b, c, d, den) for (a + b sqrt2 + (c + d sqrt2) i) / den, reduced so that
equal elements have equal tuples; or booleans with or/and.  Each kind is one
``Ring`` value, ``ExactRing`` or ``BoolRing``.  Exact elements are immutable,
so a sum with 0 and a product with 1 return an operand as it is.  Matrices
are dense lists of such scalars; all comparisons are exact.  No matrix or
vector may hold more than ``MAX_ENTRIES`` entries: a larger model object,
``eval_free`` result or ``eval_net`` output is a ``ModelError`` before it is
allocated.

Both evaluators visit only nonzero entries.  ``eval_free`` evaluates a free
arrow from its wirings.  ``eval_net`` evaluates a net directly along the
paths of its axioms and cuts, never building wirings, so the two check each
other; this is the execution formula of the Geometry of Interaction (Danos &
Regnier, "Proof-nets and the Hilbert space", 1995).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from fractions import Fraction

from .errors import ModelError, ParseError
from .formula import anf, directives, parse_nat, split_top
from . import net as nets

# Largest number of entries a model may hold in one matrix or vector: an object's
# dim x dim identity, ``eval_free``'s rows x cols and ``eval_net``'s output.
# Each larger one is a ``ModelError`` up front.
MAX_ENTRIES = 2**20


class Qi2:
    """An element (a + b sqrt2 + (c + d sqrt2) i) / den of Q(sqrt2, i).

    It is held as one tuple ``_v = (a, b, c, d, den)`` of ints, with den > 0 and
    gcd(a, b, c, d, den) = 1, so equal elements have equal tuples; equality and
    hashing are the tuple's.  The constructor takes ints or ``Fraction``s, and
    the properties ``a``..``d`` return ``Fraction``s.  A sum with 0 and a
    product with 1 return the other operand itself, not a new element, which
    is safe because elements are immutable.
    """

    __slots__ = ("_v",)

    def __init__(self, a=0, b=0, c=0, d=0):
        a, b, c, d = (Fraction(x) for x in (a, b, c, d))
        den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        self._v = (*(x.numerator * (den // x.denominator) for x in (a, b, c, d)), den)

    a = property(lambda self: Fraction(self._v[0], self._v[4]))
    b = property(lambda self: Fraction(self._v[1], self._v[4]))
    c = property(lambda self: Fraction(self._v[2], self._v[4]))
    d = property(lambda self: Fraction(self._v[3], self._v[4]))

    def __eq__(self, o):
        if type(o) is not Qi2:
            return NotImplemented
        return self._v == o._v

    def __hash__(self):
        return hash(self._v)

    def __add__(self, o):
        a1, b1, c1, d1, n = self._v
        if not (a1 or b1 or c1 or d1):  # 0 + o
            return o
        a2, b2, c2, d2, m = o._v
        if not (a2 or b2 or c2 or d2):  # self + 0
            return self
        if n == m:
            return _make(a1 + a2, b1 + b2, c1 + c2, d1 + d2, n)
        return _make(a1 * m + a2 * n, b1 * m + b2 * n, c1 * m + c2 * n, d1 * m + d2 * n, n * m)

    def __neg__(self):
        a, b, c, d, den = self._v
        return _make(-a, -b, -c, -d, den)

    def __mul__(self, o):
        v, w = self._v, o._v
        if v == _ONE:
            return o
        if w == _ONE:
            return self
        a1, b1, c1, d1, n = v
        a2, b2, c2, d2, m = w
        if not (b1 or c1 or d1 or b2 or c2 or d2):  # two rationals
            return _make(a1 * a2, 0, 0, 0, n * m)
        # (x1 + y1 i)(x2 + y2 i) with x, y in Z[sqrt2], over den1 * den2
        return _make(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            n * m,
        )

    def conj(self):
        a, b, c, d, den = self._v
        return _make(a, b, -c, -d, den)

    def __repr__(self):
        return f"Qi2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        if self._v[1] == self._v[2] == self._v[3] == 0:
            return str(self.a)
        return f"({self.a}, {self.b}, {self.c}, {self.d})"


# the tuple of 1: an element has one reduced tuple
_ONE = (1, 0, 0, 0, 1)


def _make(a, b, c, d, den):
    """The Qi2 (a + b sqrt2 + (c + d sqrt2) i) / den, for ints a..d and den > 0."""
    if den != 1:
        g = math.gcd(a, b, c, d, den)
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    x = object.__new__(Qi2)
    x._v = (a, b, c, d, den)
    return x


def _parse_exact(token, lineno):
    token = token.strip()
    if token.startswith("("):
        if not token.endswith(")"):
            raise ParseError(lineno, f"bad scalar {token!r}")
        parts = token[1:-1].split(",")
        if len(parts) != 4:
            raise ParseError(lineno, f"scalar wants four components: {token!r}")
    else:
        parts = [token]
    # Fraction would expand an exponent such as 1e1000000000 with no bound
    if "e" in token.lower():
        raise ParseError(lineno, f"bad scalar {token!r}: no exponent notation")
    try:
        return Qi2(*(Fraction(p.strip()) for p in parts))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(lineno, f"bad scalar {token!r}") from exc


def _parse_bool(token, lineno):
    token = token.strip()
    if token not in ("0", "1"):
        raise ParseError(lineno, f"boolean scalar wants 0 or 1, got {token!r}")
    return token == "1"


def _fmt_bool(x):
    return "1" if x else "0"


Ring = namedtuple("Ring", "zero one add mul conj fmt parse")
Ring.__doc__ = "A scalar ring: its arithmetic, and ``fmt`` and ``parse(token, lineno)`` for its text."

# Q(sqrt2, i) with complex conjugation
ExactRing = Ring(Qi2(), Qi2(1), operator.add, operator.mul, Qi2.conj, str, _parse_exact)
# truth values with or/and; conjugation is the identity, which ``bool`` is on them
BoolRing = Ring(False, True, operator.or_, operator.and_, bool, _fmt_bool, _parse_bool)


class Matrix:
    """A dense matrix over one of the scalar rings."""

    __slots__ = ("ring", "rows", "ncols")

    def __init__(self, ring, rows, ncols=None):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        if self.rows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged matrix")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def _adopt(cls, ring, rows, ncols):
        """A matrix over ``rows`` as they are, uncopied and unchecked: rows built here."""
        m = cls.__new__(cls)
        m.ring, m.rows, m.ncols = ring, rows, ncols
        return m

    @classmethod
    def zeros(cls, ring, nrows, ncols):
        return cls._adopt(ring, [[ring.zero] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls._adopt(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
            n,
        )

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def at(self, i, j):
        return self.rows[i][j]

    def put(self, i, j, v):
        self.rows[i][j] = v

    def add_at(self, i, j, v):
        self.rows[i][j] = self.ring.add(self.rows[i][j], v)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not compose")
        out = Matrix.zeros(self.ring, self.nrows, other.ncols)
        for i in range(self.nrows):
            for k in range(self.ncols):
                x = self.rows[i][k]
                if x == self.ring.zero:
                    continue
                for j in range(other.ncols):
                    out.add_at(i, j, self.ring.mul(x, other.rows[k][j]))
        return out

    def dagger(self):
        out = Matrix.zeros(self.ring, self.ncols, self.nrows)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.put(j, i, self.ring.conj(self.rows[i][j]))
        return out

    def trace(self):
        if self.nrows != self.ncols:
            raise ValueError("trace of a non-square matrix")
        t = self.ring.zero
        for i in range(self.nrows):
            t = self.ring.add(t, self.rows[i][i])
        return t

    def column(self):
        """Flatten to a single column, row-major."""
        return [x for r in self.rows for x in r]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __str__(self):
        body = " ; ".join(
            "[" + ", ".join(self.ring.fmt(x) for x in r) + "]" for r in self.rows
        )
        return f"[ {body} ]"


class Interpretation:
    """Dimensions for objects and matrices for arrows, functorially checked."""

    def __init__(self, name, cat, ring, dims, mats):
        self.name = name
        self.cat = cat
        self.ring = ring
        self.dims = dict(dims)
        for obj in cat.objects:
            if obj not in self.dims:
                raise ModelError(f"no dimension for object {obj}")
            n = self.dims[obj]
            if not isinstance(n, int) or n < 0:
                raise ModelError(f"bad dimension for {obj}")
            if n * n > MAX_ENTRIES:
                raise ModelError(
                    f"dim {obj} = {n}: {n * n} matrix entries, more than {MAX_ENTRIES}"
                )
        self.mats = {}
        for obj in cat.objects:
            self.mats[cat.identity(obj)] = Matrix.identity(ring, self.dims[obj])
        for f, m in mats.items():
            want = (self.dims[cat.cod(f)], self.dims[cat.dom(f)])
            if m.shape != want:
                raise ModelError(f"mat {f}: shape {m.shape}, want {want}")
            if cat.is_identity(f):
                if m != self.mats[f]:
                    raise ModelError(f"mat {f} must be the identity matrix")
                continue
            self.mats[f] = m
        for f in cat.arrows:
            if f not in self.mats:
                raise ModelError(f"no matrix for arrow {f}")
        for f, g in cat.composable:
            if self.mats[h := cat.compose(f, g)] != self.mats[g].mul(self.mats[f]):
                raise ModelError(f"matrices break composition on {f} ; {g} = {h}")
        for f in cat.arrows:
            if self.mats[cat.dagger(f)] != self.mats[f].dagger():
                raise ModelError(f"matrices break dagger on {f}")
        # each column of each matrix as the list of its nonzero (row, value) entries
        self.cols = {f: [[(i, r[j]) for i, r in enumerate(m.rows) if r[j] != ring.zero]
                         for j in range(m.ncols)] for f, m in self.mats.items()}

    def dim_word(self, w):
        n = 1
        for lit in w:
            n *= self.dims[lit.name]
        return n


def _parse_matrix(text, ring, lineno):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(lineno, "matrix wants [ [ ... ] ; [ ... ] ]")
    inner = text[1:-1].strip()
    if not inner:
        raise ParseError(lineno, "empty matrix literal")
    rows = []
    width = None
    for rtext in split_top(inner, ";", lineno):
        if not (rtext.startswith("[") and rtext.endswith("]")):
            raise ParseError(lineno, f"matrix row wants [ ... ]: {rtext!r}")
        body = rtext[1:-1].strip()
        row = [] if not body else [
            ring.parse(tok, lineno) for tok in split_top(body, ",", lineno)
        ]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(lineno, "ragged matrix rows")
        rows.append(row)
    return Matrix(ring, rows, width)


def load_model(text, cat):
    """Parse and validate a model file against a category."""
    name = None
    ring = None
    dims = {}
    raw_mats = {}
    for lineno, head, rest in directives(text):
        if head == "model":
            if name is not None:
                raise ParseError(lineno, "duplicate model line")
            mname, over, cname = rest.partition(" over ")
            if not over:
                raise ParseError(lineno, "expected 'model name over category'")
            name = mname.strip()
            if cname.strip() != cat.name:
                raise ParseError(
                    lineno, f"model is over {cname.strip()!r}, category is {cat.name!r}"
                )
        elif head == "scalars":
            if ring is not None:
                raise ParseError(lineno, "duplicate scalars line")
            ring = {"exact": ExactRing, "bool": BoolRing}.get(rest)
            if ring is None:
                raise ParseError(lineno, f"unknown scalar kind {rest!r}")
        elif head == "dim":
            obj, eq, val = rest.partition("=")
            obj = obj.strip()
            n = parse_nat(val.strip() if eq else "", lineno, "expected 'dim Obj = n'")
            if obj in dims:
                raise ParseError(lineno, f"duplicate dim for {obj}")
            if obj not in cat.objects:
                raise ParseError(lineno, f"unknown object {obj!r}")
            dims[obj] = n
        elif head == "mat":
            f, eq, val = rest.partition("=")
            f = " ".join(f.split())
            if not eq:
                raise ParseError(lineno, "expected 'mat f = [ ... ]'")
            if f not in cat.arrows:
                raise ParseError(lineno, f"unknown arrow {f!r}")
            if f in raw_mats:
                raise ParseError(lineno, f"duplicate mat for {f}")
            raw_mats[f] = (val, lineno)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if name is None:
        raise ModelError("missing model line")
    if ring is None:
        ring = ExactRing
    mats = {f: _parse_matrix(val, ring, ln) for f, (val, ln) in raw_mats.items()}
    return Interpretation(name, cat, ring, dims, mats)


# ---------------------------------------------------------------------------
# evaluation of free arrows


def eval_wiring(t, interp):
    """The nonzero entries of one wiring's matrix, as (row, col, value) triples.

    They are the product, over the pairs, of each pair's nonzero matrix
    entries, times the loop traces.  Boundary positions before ``len(dom)``
    index digits of the column, the others digits of the row, row-major.
    """
    ring = interp.ring
    lfac = functools.reduce(ring.mul, (interp.mats[lp.arrow].trace() for lp in t.loops), ring.one)
    if lfac == ring.zero:
        return []

    def strides(word):
        out, m = [], 1
        for lit in reversed(word):
            out.append(m)
            m *= interp.dims[lit.name]
        return out[::-1]

    # per boundary position: what one step of its index adds to (row, col)
    step = [(0, c) for c in strides(t.dom)] + [(r, 0) for r in strides(t.cod)]
    entries = [(0, 0, lfac)]
    for neg, pos, f in t.pairs:
        (rn, cn), (rp, cp) = step[neg], step[pos]
        nonzero = [(i * rp + j * rn, i * cp + j * cn, x)
                   for j, col in enumerate(interp.cols[f]) for i, x in col]
        entries = [(r + dr, c + dc, ring.mul(v, x))
                   for r, c, v in entries for dr, dc, x in nonzero]
    return entries


def eval_free(fa, interp):
    """The block matrix of a free arrow."""
    if fa.cat is not interp.cat:
        raise ValueError("arrow and model use different categories")
    ring = interp.ring
    row_off = list(itertools.accumulate(map(interp.dim_word, fa.cod), initial=0))
    col_off = list(itertools.accumulate(map(interp.dim_word, fa.dom), initial=0))
    rows, cols = row_off[-1], col_off[-1]
    if rows * cols > MAX_ENTRIES:
        raise ModelError(
            f"arrow matrix is {rows} x {cols}: {rows * cols} entries, more than {MAX_ENTRIES}"
        )
    out = Matrix.zeros(ring, rows, cols)
    for (i, j), c in fa.entries.items():
        for t, mult in c.items():
            for bi, bj, v in eval_wiring(t, interp):
                for _ in range(mult):  # not a product with mult: in BoolRing x + x = x
                    out.add_at(row_off[i] + bi, col_off[j] + bj, v)
    return out


# ---------------------------------------------------------------------------
# direct evaluation of nets


def _then(ring, path, cols):
    """A path matrix, (index at its end, index at its start) -> value, then ``cols``."""
    out = {}
    for (k, a), y in path.items():
        for i, x in cols[k]:
            v = ring.mul(x, y)
            key = (i, a)
            out[key] = ring.add(out[key], v) if key in out else v
    return out


def _tree(port, links, wires, leaves):
    """``eval_slice``'s walk: (word index, word count) of the label at port; lists its leaves."""
    lid = port[0]
    link = links[lid]
    if isinstance(link, nets.AxLink):
        leaves.append(port)
        return 0, 1
    if isinstance(link, nets.TimesLink):
        r0, n0 = _tree(wires[(lid, 0)], links, wires, leaves)
        r1, n1 = _tree(wires[(lid, 1)], links, wires, leaves)
        return r0 * n1 + r1, n0 * n1
    if isinstance(link, nets.PlusLink):
        r, n = _tree(wires[(lid, 0)], links, wires, leaves)
        k = len(anf(link.other))
        return r + k * link.right, n + k
    return 0, 1  # a unit


def eval_slice(s, interp, concl):
    """The nonzero entries of one slice's vector, as (flat index, value) pairs.

    Axiom outputs are the leaves of the trees at the outs and the cuts.  An
    arrow cut g joins two leaves through mat(g), a formula cut its sides leaf
    by leaf (or the slice is zero: they spell different words).  So axioms
    and cuts form paths between out leaves, and cycles.  The vector is the
    tensor product of the paths' matrices times the cycles' traces, at the
    outs' word; ``concl`` holds each conclusion's word offsets.
    """
    ring, cat, links, wires = interp.ring, interp.cat, s.links, s.wires
    leaves = []
    offset, head = 0, 1  # words before the outs' word; its size so far
    for port, pre in zip(s.outs, concl):
        r, _ = _tree(port, links, wires, leaves)
        offset = offset * pre[-1] + head * pre[r]
        head *= pre[r + 1] - pre[r]
    outs = list(leaves)
    nxt = {}  # a leaf on an output 1 under a cut -> (the leaf it joins, cut arrow or None)
    zero = False
    for lid, link in links.items():
        if isinstance(link, nets.CutLink):
            a, (r0, _) = len(leaves), _tree(wires[(lid, 0)], links, wires, leaves)
            b, (r1, _) = len(leaves), _tree(wires[(lid, 1)], links, wires, leaves)
            if link.arrow is not None:
                nxt[leaves[a]] = (leaves[b], link.arrow)
            elif r0 != r1:
                zero = True
            else:
                for p, q in zip(leaves[a:b], leaves[b:]):
                    nxt[p if p[1] else q] = (q if p[1] else p, None)
    if zero:
        return []
    pending = {lid for lid, link in links.items() if isinstance(link, nets.AxLink)}

    def follow(x):
        # the path matrix from axiom x's output 0 on, and the leaf it stops at
        path = {(a, a): ring.one for a in range(len(interp.cols[links[x].arrow]))}
        while True:
            pending.discard(x)
            path = _then(ring, path, interp.cols[links[x].arrow])
            if (x, 1) not in nxt:
                return path, (x, 1)
            q, g = nxt[(x, 1)]
            if g is not None:
                path = _then(ring, path, interp.cols[g])
            x = q[0]
            if x not in pending:
                return path, q  # back at the start of a cycle

    stride, size = {}, 1  # row-major over the out leaves
    for x, slot in reversed(outs):
        stride[(x, slot)] = size
        size *= interp.dims[(cat.cod if slot else cat.dom)(links[x].arrow)]
    factors = []
    for x, slot in outs:
        if slot == 0:
            path, end = follow(x)
            sa, sb = stride[(x, 0)], stride[end]
            factors.append([(b * sb + a * sa, v) for (b, a), v in path.items() if v != ring.zero])
    lfac = ring.one
    for x in sorted(pending):
        if x in pending:  # not on a cycle followed already
            path, _ = follow(x)
            diagonal = [v for (b, a), v in path.items() if a == b]
            lfac = ring.mul(lfac, functools.reduce(ring.add, diagonal, ring.zero))
    entries = [(offset, lfac)]
    for nz in factors:
        entries = [(i + d, ring.mul(v, x)) for i, v in entries for d, x in nz]
    return entries


def eval_net(net, interp):
    """The vector denoted by a net, as a one-column matrix.

    Like ``denote``, it trusts the net: one from ``parse_net``, ``validate_net``
    or a library builder.  A hand-built net that skipped ``validate_net`` may
    give a wrong vector or a ``RecursionError``.
    """
    if net.cat is not interp.cat:
        raise ValueError("net and model use different categories")
    ring = interp.ring
    concl = [list(itertools.accumulate((interp.dim_word(w) for w in anf(f)), initial=0))
             for f in net.conclusions]
    total = math.prod(pre[-1] for pre in concl)
    if total > MAX_ENTRIES:
        raise ModelError(f"net {net.name}: {total} output entries, more than {MAX_ENTRIES}")
    acc = [ring.zero] * total
    for s in net.slices:
        for idx, v in eval_slice(s, interp, concl):
            acc[idx] = ring.add(acc[idx], v)
    return Matrix._adopt(ring, [[x] for x in acc], 1)
