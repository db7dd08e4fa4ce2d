"""Exact matrix models: evaluate arrows and nets in finite dimension.

Scalars are either exact elements of Q(sqrt2, i), stored as four integer
numerators over one shared positive denominator,
(a + b sqrt2 + (c + d sqrt2) i) / den, reduced after each operation so that
equal elements have equal fields; or booleans with or/and.  Matrices are dense
lists of such scalars; all comparisons are exact.  No matrix or vector may
hold more than ``MAX_ENTRIES`` entries: a larger model object, ``eval_free``
result, ``eval_net`` output or contraction state (keys x open edges) is a
``ModelError`` before it is allocated.

``eval_free`` evaluates a free arrow entry by entry from its wirings.
``eval_net`` evaluates a net directly by contracting the model tensors along
the links, never building wirings, so the two paths check each other.  It
contracts each cut as soon as its two inputs exist (see ``_schedule``), so a
cut chain keeps a state of O(n) entries; ``denote`` walks each slice's link
trees from their roots, so the two evaluators do not share a traversal.
Its state is sparse: each key holds one slot ``(w, i)`` per open edge, the
index ``w`` of a word of the edge's ANF and the row-major index ``i`` inside
that word, which is exactly where the entry sits in the edge's block layout.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import ModelError, ParseError
from .formula import anf
from . import net as nets

# Largest number of entries a model may hold in one matrix or vector: an object's
# dim x dim identity, ``eval_free``'s rows x cols, ``eval_net``'s output and the
# slots of ``eval_slice``'s state.  Each larger one is a ``ModelError`` up front.
MAX_ENTRIES = 2**20


class Qi2:
    """An element (a + b sqrt2 + (c + d sqrt2) i) / den of Q(sqrt2, i).

    The numerators a..d are ints and the denominator ``den`` is a positive int
    with gcd(a, b, c, d, den) = 1, so equal elements have equal fields.  The
    constructor takes ints or ``Fraction``s, and the properties ``a``..``d``
    return ``Fraction``s.
    """

    __slots__ = ("_a", "_b", "_c", "_d", "_den")

    def __init__(self, a=0, b=0, c=0, d=0):
        a, b, c, d = (Fraction(x) for x in (a, b, c, d))
        den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
        self._a, self._b, self._c, self._d = (
            x.numerator * (den // x.denominator) for x in (a, b, c, d)
        )
        self._den = den

    a = property(lambda self: Fraction(self._a, self._den))
    b = property(lambda self: Fraction(self._b, self._den))
    c = property(lambda self: Fraction(self._c, self._den))
    d = property(lambda self: Fraction(self._d, self._den))

    def __eq__(self, o):
        if type(o) is not Qi2:
            return NotImplemented
        return (
            self._a == o._a
            and self._b == o._b
            and self._c == o._c
            and self._d == o._d
            and self._den == o._den
        )

    def __hash__(self):
        return hash((self._a, self._b, self._c, self._d, self._den))

    def __add__(self, o):
        n, m = self._den, o._den
        if n == m:
            return _make(self._a + o._a, self._b + o._b, self._c + o._c, self._d + o._d, n)
        return _make(
            self._a * m + o._a * n,
            self._b * m + o._b * n,
            self._c * m + o._c * n,
            self._d * m + o._d * n,
            n * m,
        )

    def __neg__(self):
        return _make(-self._a, -self._b, -self._c, -self._d, self._den)

    def __mul__(self, o):
        # (x1 + y1 i)(x2 + y2 i) with x, y in Z[sqrt2], over den1 * den2
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = o._a, o._b, o._c, o._d
        return _make(
            a1 * a2 + 2 * b1 * b2 - c1 * c2 - 2 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + 2 * b1 * d2 + c1 * a2 + 2 * d1 * b2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            self._den * o._den,
        )

    def conj(self):
        return _make(self._a, self._b, -self._c, -self._d, self._den)

    def __repr__(self):
        return f"Qi2({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def __str__(self):
        if self._b == self._c == self._d == 0:
            return str(self.a)
        return f"({self.a}, {self.b}, {self.c}, {self.d})"


def _make(a, b, c, d, den):
    """The Qi2 (a + b sqrt2 + (c + d sqrt2) i) / den, for ints a..d and den > 0."""
    if den != 1:
        g = math.gcd(a, b, c, d, den)
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    x = object.__new__(Qi2)
    x._a, x._b, x._c, x._d, x._den = a, b, c, d, den
    return x


class ExactRing:
    """Q(sqrt2, i) with complex conjugation."""

    name = "exact"
    zero = Qi2()
    one = Qi2(Fraction(1))

    @staticmethod
    def add(x, y):
        return x + y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def conj(x):
        return x.conj()

    @staticmethod
    def parse(token, lineno):
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

    @staticmethod
    def fmt(x):
        return str(x)


class BoolRing:
    """Truth values with or/and; conjugation is the identity."""

    name = "bool"
    zero = False
    one = True

    @staticmethod
    def add(x, y):
        return x or y

    @staticmethod
    def mul(x, y):
        return x and y

    @staticmethod
    def conj(x):
        return x

    @staticmethod
    def parse(token, lineno):
        token = token.strip()
        if token not in ("0", "1"):
            raise ParseError(lineno, f"boolean scalar wants 0 or 1, got {token!r}")
        return token == "1"

    @staticmethod
    def fmt(x):
        return "1" if x else "0"


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
    def zeros(cls, ring, nrows, ncols):
        return cls(ring, [[ring.zero] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls(
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

    def add(self, other):
        if self.shape != other.shape:
            raise ValueError("matrix shapes differ")
        return Matrix(
            self.ring,
            [
                [self.ring.add(x, y) for x, y in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
            self.ncols,
        )

    def kron(self, other):
        out = Matrix.zeros(self.ring, self.nrows * other.nrows, self.ncols * other.ncols)
        for i1 in range(self.nrows):
            for j1 in range(self.ncols):
                x = self.rows[i1][j1]
                for i2 in range(other.nrows):
                    for j2 in range(other.ncols):
                        out.put(
                            i1 * other.nrows + i2,
                            j1 * other.ncols + j2,
                            self.ring.mul(x, other.rows[i2][j2]),
                        )
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
            self.ring is other.ring
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
        for f in cat.arrows:
            for g in cat.arrows:
                if cat.cod(f) != cat.dom(g):
                    continue
                h = cat.compose(f, g)
                if self.mats[h] != self.mats[g].mul(self.mats[f]):
                    raise ModelError(f"matrices break composition on {f} ; {g} = {h}")
        for f in cat.arrows:
            if self.mats[cat.dagger(f)] != self.mats[f].dagger():
                raise ModelError(f"matrices break dagger on {f}")

    def mat(self, f):
        return self.mats[f]

    def dim_word(self, w):
        n = 1
        for lit in w:
            n *= self.dims[lit.name]
        return n

    def dim_anf(self, a):
        return sum(self.dim_word(w) for w in a)

    def dim_formula(self, f):
        return self.dim_anf(anf(f))


def _split_top(text, sep, lineno):
    """Split on sep at zero bracket/paren depth."""
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(lineno, "unbalanced brackets")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(lineno, "unbalanced brackets")
    parts.append("".join(cur))
    return parts


def _parse_matrix(text, ring, lineno):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(lineno, "matrix wants [ [ ... ] ; [ ... ] ]")
    inner = text[1:-1].strip()
    if not inner:
        raise ParseError(lineno, "empty matrix literal")
    rows = []
    width = None
    for rtext in _split_top(inner, ";", lineno):
        rtext = rtext.strip()
        if not (rtext.startswith("[") and rtext.endswith("]")):
            raise ParseError(lineno, f"matrix row wants [ ... ]: {rtext!r}")
        body = rtext[1:-1].strip()
        row = [] if not body else [
            ring.parse(tok, lineno) for tok in _split_top(body, ",", lineno)
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
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
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
            if rest == "exact":
                ring = ExactRing
            elif rest == "bool":
                ring = BoolRing
            else:
                raise ParseError(lineno, f"unknown scalar kind {rest!r}")
        elif head == "dim":
            obj, eq, val = rest.partition("=")
            obj, val = obj.strip(), val.strip()
            if not eq or not (val.isascii() and val.isdigit()):
                raise ParseError(lineno, "expected 'dim Obj = n'")
            if obj in dims:
                raise ParseError(lineno, f"duplicate dim for {obj}")
            if obj not in cat.objects:
                raise ParseError(lineno, f"unknown object {obj!r}")
            try:
                dims[obj] = int(val)
            except ValueError:  # a digit run past Python's int-conversion limit
                raise ParseError(lineno, "expected 'dim Obj = n'") from None
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
    """The matrix of one wiring: pair factors times loop traces."""
    ring = interp.ring
    lfac = ring.one
    for lp in t.loops:
        lfac = ring.mul(lfac, interp.mat(lp.arrow).trace())
    ddims = [interp.dims[l.name] for l in t.dom]
    cdims = [interp.dims[l.name] for l in t.cod]
    n = len(t.dom)
    out = Matrix.zeros(ring, interp.dim_word(t.cod), interp.dim_word(t.dom))
    for bi, beta in enumerate(itertools.product(*[range(d) for d in cdims])):
        for ai, alpha in enumerate(itertools.product(*[range(d) for d in ddims])):

            def val_at(k):
                return alpha[k] if k < n else beta[k - n]

            v = lfac
            for neg, pos, f in t.pairs:
                v = ring.mul(v, interp.mat(f).at(val_at(pos), val_at(neg)))
            out.put(bi, ai, v)
    return out


def eval_free(fa, interp):
    """The block matrix of a free arrow."""
    if fa.cat is not interp.cat:
        raise ValueError("arrow and model use different categories")
    ring = interp.ring
    row_off = [0]
    for w in fa.cod:
        row_off.append(row_off[-1] + interp.dim_word(w))
    col_off = [0]
    for w in fa.dom:
        col_off.append(col_off[-1] + interp.dim_word(w))
    rows, cols = row_off[-1], col_off[-1]
    if rows * cols > MAX_ENTRIES:
        raise ModelError(
            f"arrow matrix is {rows} x {cols}: {rows * cols} entries, more than {MAX_ENTRIES}"
        )
    out = Matrix.zeros(ring, rows, cols)
    for (i, j), c in fa.entries.items():
        for t, mult in c.items():
            block = eval_wiring(t, interp)
            for bi in range(block.nrows):
                for bj in range(block.ncols):
                    v = block.at(bi, bj)
                    for _ in range(mult):
                        out.add_at(row_off[i] + bi, col_off[j] + bj, v)
    return out


# ---------------------------------------------------------------------------
# direct evaluation of nets


def _schedule(s):
    """Link ids in contraction order: each cut right after the links it needs.

    Cuts are taken in ``topo_order``'s order.  Before each cut come the
    producers its two inputs still lack, in ``topo_order``'s order; the links
    that feed only ``outs`` come last.  Only axioms grow the state and only
    cuts shrink it, so each cut contracts as soon as its two inputs exist.
    """
    topo = nets.topo_order(s)  # raises NetError on cyclic wiring
    pos = {lid: k for k, lid in enumerate(topo)}
    order = {}  # insertion-ordered set
    for cut in (lid for lid in topo if isinstance(s.links[lid], nets.CutLink)):
        need, stack = set(), [cut]
        while stack:
            lid = stack.pop()
            if lid not in order and lid not in need:
                need.add(lid)
                stack.extend(s.wires[(lid, k)][0] for k in range(s.links[lid].n_in))
        order.update(dict.fromkeys(sorted(need, key=pos.get)))
    order.update(dict.fromkeys(topo))
    return list(order)


def _times(slot0, slot1, sizes1):
    """The slot of a tensor: word-major over (w0, w1), row-major inside."""
    (w0, i0), (w1, i1) = slot0, slot1
    return (w0 * len(sizes1) + w1, i0 * sizes1[w1] + i1)


def eval_slice(s, interp):
    """Contract one slice to its vector over the conclusions' index space.

    The state maps keys to values; a key holds one slot ``(w, i)`` per open
    edge: ``w`` picks a word of the edge's ANF and ``i`` a row-major index
    within that word, and ``sizes`` keeps each edge's word sizes under the
    model.  An axiom f adds ``(0, a), (0, b)`` with weight ``mat(f)[b][a]``;
    times combines two slots by ``_times``; a plus link shifts ``w`` past
    the words of a left ``other``; an arrow cut g weighs ``mat(g)[i1][i0]``
    and a formula cut keeps equal slots.  Each cut contracts as soon as its
    two inputs exist (``_schedule``).  Returns the entries of the sparse
    final state, as ``{flat index: value}``: the outs are folded by
    ``_times`` into one slot, whose word offset plus ``i`` is the index.
    """
    cat = interp.cat
    ring = interp.ring
    ports = []  # open edges, in key order
    sizes = {}  # port -> word sizes of its ANF
    state = {(): ring.one}

    def close(p, q):
        """Remove edges p and q: each entry as (rest of key, slot p, slot q, value)."""
        kp, kq = ports.index(p), ports.index(q)
        lo, hi = sorted((kp, kq))
        del ports[hi], ports[lo]
        return [
            (key[:lo] + key[lo + 1:hi] + key[hi + 1:], key[kp], key[kq], v)
            for key, v in state.items()
        ]

    for lid in _schedule(s):
        link = s.links[lid]
        out = {}
        if isinstance(link, nets.AxLink):
            m = interp.mat(link.arrow)
            nonzero = [(a, b, x) for b, row in enumerate(m.rows)
                       for a, x in enumerate(row) if x != ring.zero]
            keys, edges = len(state) * len(nonzero), len(ports) + 2
            if keys * edges > MAX_ENTRIES:
                raise ModelError(
                    f"axiom {lid}: contraction state of {keys} keys x {edges} open edges, "
                    f"more than {MAX_ENTRIES} slots"
                )
            for key, v in state.items():
                for a, b, x in nonzero:
                    out[key + ((0, a), (0, b))] = ring.mul(v, x)
            ports += [(lid, 0), (lid, 1)]
            sizes[(lid, 0)] = [interp.dims[cat.dom(link.arrow)]]
            sizes[(lid, 1)] = [interp.dims[cat.cod(link.arrow)]]
        elif isinstance(link, nets.UnitLink):
            out = {key + ((0, 0),): v for key, v in state.items()}
            ports.append((lid, 0))
            sizes[(lid, 0)] = [1]
        elif isinstance(link, nets.TimesLink):
            p, q = s.wires[(lid, 0)], s.wires[(lid, 1)]
            for rest, slot0, slot1, v in close(p, q):
                out[rest + (_times(slot0, slot1, sizes[q]),)] = v
            ports.append((lid, 0))
            sizes[(lid, 0)] = [x * y for x in sizes[p] for y in sizes[q]]
        elif isinstance(link, nets.PlusLink):
            p = s.wires[(lid, 0)]
            k = ports.index(p)
            other = [interp.dim_word(w) for w in anf(link.other)]
            shift = len(other) if link.right else 0
            for key, v in state.items():
                w, i = key[k]
                out[key[:k] + ((w + shift, i),) + key[k + 1:]] = v
            ports[k] = (lid, 0)
            sizes[(lid, 0)] = other + sizes[p] if link.right else sizes[p] + other
        elif isinstance(link, nets.CutLink):
            m = None if link.arrow is None else interp.mat(link.arrow)
            for rest, slot0, slot1, v in close(s.wires[(lid, 0)], s.wires[(lid, 1)]):
                if m is None:  # a formula cut keeps the matching slots
                    if slot0 != slot1:
                        continue
                else:
                    x = m.at(slot1[1], slot0[1])
                    if x == ring.zero:
                        continue
                    v = ring.mul(v, x)
                out[rest] = ring.add(out.get(rest, ring.zero), v)
        state = out

    # the outs, in order, are one tensor: fold the times rule over them
    order = [ports.index(p) for p in s.outs]
    folded = [1]
    for p in s.outs:
        folded = [x * y for x in folded for y in sizes[p]]
    offset = list(itertools.accumulate(folded, initial=0))
    flat = {}
    for key, v in state.items():
        slot = (0, 0)
        for k, p in zip(order, s.outs):
            slot = _times(slot, key[k], sizes[p])
        flat[offset[slot[0]] + slot[1]] = v
    return flat


def eval_net(net, interp):
    """The vector denoted by a net, as a one-column matrix."""
    if net.cat is not interp.cat:
        raise ValueError("net and model use different categories")
    ring = interp.ring
    total = 1
    for f in net.conclusions:
        total *= interp.dim_formula(f)
    if total > MAX_ENTRIES:
        raise ModelError(f"net {net.name}: {total} output entries, more than {MAX_ENTRIES}")
    acc = [ring.zero] * total
    for s in net.slices:
        for idx, v in eval_slice(s, interp).items():
            acc[idx] = ring.add(acc[idx], v)
    return Matrix(ring, [[x] for x in acc], 1)