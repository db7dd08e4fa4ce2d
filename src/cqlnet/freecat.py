"""The free strongly compact closed category with biproducts over a category.

Objects are additive normal forms (tuples of tensor words); an arrow is a
matrix of finite multisets of wirings.  A wiring between two words pairs up
the starred and unstarred literals on its boundary (the starred duals of the
domain word followed by the codomain word), labels each pair with a
generating arrow whose domain sits at the starred end, and carries a multiset
of loop classes.  Composition numbers both wirings' boundaries as one, so
that the shared interface is one run of positions, and traces paths through
it; cycles that close up inside the interface become loops.  The dual of a
wiring only moves its positions, and the dagger is the conjugate of the
dual: the same positions with each pair turned round under ``cat.dagger``.

``denote`` reads one wiring off each slice of a proof net by following its
axiom-cut strands; ``complete`` goes back, one slice per wiring.

Only the public entry points check what they are given: ``FreeArrow(...)``,
``wiring`` and ``parse_arrow``.  The operations on arrows and wirings this
module built (composition, tensor, dagger, dual, sums, names, identities,
injections and the symmetry) do not re-check them; each ends in the
unchecked ``_arrow`` or ``_wiring``.  Conames and the counit ``epsilon``
are not built on their own: each is the dual of a name, as the dual
functor of a compact closed category gives.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import net as nets
from .category import Loop
from .errors import ParseError
from .formula import (
    Literal,
    anf,
    anf_formula,
    anf_kron,
    anf_kron_all,
    anf_star,
    directives,
    fmt_anf,
    parse_anf,
    parse_nat,
    plus_path,
    split_top,
)
from .rewrite import CanonicalSlice, NormalNet, to_net

UNIT = ((),)


def boundary(dom, cod):
    """Boundary literals of a wiring: duals of the domain word, then the codomain."""
    return tuple(lit.dual() for lit in dom) + tuple(cod)


Wiring = namedtuple("Wiring", "dom cod pairs loops")
Wiring.__doc__ = """A pairing of boundary literals with arrow labels, plus loop classes.

``pairs`` holds (negative position, positive position, arrow) with the
arrow's domain at the negative (starred) end; positions index the
boundary.  ``loops`` is a sorted multiset of loop classes.
"""


def wiring(dom, cod, pairs, loops, cat):
    """Build a wiring in canonical order, checking the pairing is well-typed."""
    dom, cod = tuple(dom), tuple(cod)
    bnd = boundary(dom, cod)
    used = [0] * len(bnd)
    for neg, pos, f in pairs:
        if not (0 <= neg < len(bnd) and 0 <= pos < len(bnd)):
            raise ValueError(f"pair ({neg}, {pos}) out of range")
        if not bnd[neg].star or bnd[pos].star:
            raise ValueError(f"pair ({neg}, {pos}) has wrong polarity")
        used[neg] += 1
        used[pos] += 1
        if cat.dom(f) != bnd[neg].name or cat.cod(f) != bnd[pos].name:
            raise ValueError(
                f"label {f}: {cat.dom(f)} -> {cat.cod(f)} does not join "
                f"{bnd[neg]} to {bnd[pos]}"
            )
    if any(u != 1 for u in used):
        raise ValueError("pairs must cover every boundary position exactly once")
    loops = tuple(sorted(loops))
    for lp in loops:
        if not isinstance(lp, Loop):
            raise ValueError(f"bad loop {lp!r}")
    return _wiring(dom, cod, pairs, loops)


def _wiring(dom, cod, pairs, loops):
    """A wiring from parts this module built: canonical order, no checks."""
    pairs = tuple(sorted(pairs, key=lambda p: min(p[0], p[1])))
    return Wiring(dom, cod, pairs, tuple(sorted(loops)))


def wiring_compose(cat, t1, t2):
    """Path composition: glue t1's codomain to t2's domain, trace the strands.

    t2's positions are shifted by ``len(t1.dom)``, so one numbering covers
    both boundaries and each interface position names an end of a t1 pair and
    an end of a t2 pair, of opposite signs.  The two wirings' negative ends are
    then distinct, and one map takes each to its pair's positive end and
    arrow.  A strand from a negative end outside the interface goes on while
    its positive end lies in the interface, where it is the next pair's
    negative end.  A negative end no strand visits lies on a cycle, which
    closes into the loop class of its composite: ``loop_of`` is the same for
    ``g.f`` and ``f.g``, so it does not matter where the cycle is entered.
    """
    n1, m = len(t1.dom), len(t1.cod)
    nxt = {neg: (pos, f) for neg, pos, f in t1.pairs}
    nxt.update((neg + n1, (pos + n1, f)) for neg, pos, f in t2.pairs)
    visited = set()

    def out(p):  # the composite's boundary: t2's codomain follows t1's domain
        return p if p < n1 else p - m

    def strand(start):
        # compose from start on: (the output position where it leaves, arrow)
        cur, acc = start, None
        while True:
            visited.add(cur)
            cur, f = nxt[cur]
            acc = f if acc is None else cat.compose(acc, f)
            if not n1 <= cur < n1 + m or cur == start:
                return out(cur), acc

    pairs = [(out(q), *strand(q)) for q in nxt if not n1 <= q < n1 + m]
    loops = [cat.loop_of(strand(q)[1]) for q in nxt if q not in visited]
    return _wiring(t1.dom, t2.cod, pairs, t1.loops + t2.loops + tuple(loops))


def _moved(pairs, n, lo, hi):
    """``pairs`` with each position p < n moved to lo + p, and each other to hi + p - n."""
    def at(p):
        return lo + p if p < n else hi + p - n

    return [(at(a), at(b), f) for a, b, f in pairs]


def wiring_tensor(t1, t2):
    n1, n2 = len(t1.dom), len(t2.dom)
    pairs = _moved(t1.pairs, n1, 0, n1 + n2) + _moved(t2.pairs, n2, n1, n1 + n2 + len(t1.cod))
    return _wiring(t1.dom + t2.dom, t1.cod + t2.cod, pairs, t1.loops + t2.loops)


def wiring_dual(t):
    """A -> B into B* -> A*: the boundary is t's with the domain's part moved last."""
    pairs = _moved(t.pairs, len(t.dom), len(t.cod), 0)
    return _wiring(tuple(l.dual() for l in t.cod), tuple(l.dual() for l in t.dom), pairs, t.loops)


def wiring_dagger(cat, t):
    """A -> B into B -> A, the conjugate of the dual: every literal of the dual's
    boundary is starred the other way, so each pair turns round and its arrow
    and the loops go under the dagger."""
    d = wiring_dual(t)
    pairs = [(pos, neg, cat.dagger(f)) for neg, pos, f in d.pairs]
    return _wiring(t.cod, t.dom, pairs, [cat.loop_dagger(lp) for lp in d.loops])


# ---------------------------------------------------------------------------
# free arrows


class FreeArrow:
    """A matrix of wiring multisets between two ANFs over a fixed category.

    ``entries[(i, j)]`` is a Counter of wirings from dom word j to cod word i;
    missing entries are zero.  ``>>`` composes left-to-right, ``@`` tensors,
    ``+`` adds.
    """

    __slots__ = ("cat", "dom", "cod", "entries")

    def __init__(self, cat, dom, cod, entries):
        self.cat = cat
        self.dom = tuple(tuple(w) for w in dom)
        self.cod = tuple(tuple(w) for w in cod)
        norm = {}
        for (i, j), multi in entries.items():
            if not (0 <= i < len(self.cod) and 0 <= j < len(self.dom)):
                raise ValueError(f"entry ({i}, {j}) out of range")
            c = Counter()
            for t, mult in Counter(multi).items():
                if mult <= 0:
                    continue
                if t.dom != self.dom[j] or t.cod != self.cod[i]:
                    raise ValueError(f"entry ({i}, {j}): wiring has wrong words")
                c[t] = mult
            if c:
                norm[(i, j)] = c
        self.entries = norm

    def _like(self, other):
        if not isinstance(other, FreeArrow):
            raise TypeError(f"not a free arrow: {other!r}")
        if other.cat is not self.cat:
            raise ValueError("free arrows over different categories")

    def then(self, other):
        """The composite: self followed by other."""
        self._like(other)
        if self.cod != other.dom:
            raise ValueError(
                f"compose: {fmt_anf(self.cod)} does not match {fmt_anf(other.dom)}"
            )
        blocks = (((i, k), c1, c2) for (i, j), c2 in other.entries.items()
                  for (jj, k), c1 in self.entries.items() if jj == j)
        out = _products(blocks, lambda t1, t2: wiring_compose(self.cat, t1, t2))
        return _arrow(self.cat, self.dom, other.cod, out)

    def tensor(self, other):
        self._like(other)
        rows, cols = len(other.cod), len(other.dom)
        blocks = (((i1 * rows + i2, j1 * cols + j2), c1, c2) for (i1, j1), c1 in self.entries.items()
                  for (i2, j2), c2 in other.entries.items())
        out = _products(blocks, wiring_tensor)
        return _arrow(self.cat, anf_kron(self.dom, other.dom), anf_kron(self.cod, other.cod), out)

    def dagger(self):
        return _transpose(self, self.cod, self.dom, lambda t: wiring_dagger(self.cat, t))

    def dual(self):
        """The contravariant duality A -> B into B* -> A*."""
        return _transpose(self, anf_star(self.cod), anf_star(self.dom), wiring_dual)

    def add(self, other):
        self._like(other)
        if self.dom != other.dom or self.cod != other.cod:
            raise ValueError("add: shapes differ")
        out = {}
        for key in set(self.entries) | set(other.entries):
            out[key] = self.entries.get(key, Counter()) + other.entries.get(key, Counter())
        return _arrow(self.cat, self.dom, self.cod, out)

    def scale(self, s):
        """Multiply by a scalar (an arrow I -> I)."""
        self._like(s)
        if s.dom != UNIT or s.cod != UNIT:
            raise ValueError("scale: not a scalar")
        return s.tensor(self)

    __rshift__, __matmul__, __add__ = then, tensor, add

    def __eq__(self, other):
        if not isinstance(other, FreeArrow):
            return NotImplemented
        return (
            self.cat is other.cat
            and self.dom == other.dom
            and self.cod == other.cod
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("free arrows are not hashable")

    def __str__(self):
        return fmt_arrow(self)


def _arrow(cat, dom, cod, entries):
    """A free arrow from parts this module built: entries already normal, no checks."""
    fa = object.__new__(FreeArrow)
    fa.cat, fa.dom, fa.cod, fa.entries = cat, dom, cod, entries
    return fa


def _products(blocks, op):
    """Entries from ``(key, c1, c2)`` blocks: each key sums op(t1, t2), m1 * m2 times."""
    out = {}
    for key, c1, c2 in blocks:
        tgt = out.setdefault(key, Counter())
        for t1, m1 in c1.items():
            for t2, m2 in c2.items():
                tgt[op(t1, t2)] += m1 * m2
    return out


def _transpose(fa, dom, cod, op):
    """The arrow dom -> cod whose entry (j, i) is op of each wiring in fa's entry (i, j)."""
    entries = {(j, i): Counter({op(t): m for t, m in c.items()}) for (i, j), c in fa.entries.items()}
    return _arrow(fa.cat, dom, cod, entries)


def fa_equal(f, g):
    """Decide equality of two free arrows with the same shape."""
    if not isinstance(f, FreeArrow) or not isinstance(g, FreeArrow):
        raise TypeError("fa_equal wants two free arrows")
    f._like(g)
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError(
            f"fa_equal: shapes differ: {fmt_anf(f.dom)} -> {fmt_anf(f.cod)} vs "
            f"{fmt_anf(g.dom)} -> {fmt_anf(g.cod)}"
        )
    return f.entries == g.entries


# ---------------------------------------------------------------------------
# constructors


def _id_pairs(cat, w, neg_base, pos_base):
    """Pairs joining star(w) at neg_base to w at pos_base with identities."""
    pairs = []
    for k, lit in enumerate(w):
        a, b = neg_base + k, pos_base + k
        if lit.star:
            a, b = b, a
        pairs.append((a, b, cat.identity(lit.name)))
    return pairs


def identity(cat, a):
    a = tuple(tuple(w) for w in a)
    entries = {
        (i, i): Counter({_wiring(w, w, _id_pairs(cat, w, 0, len(w)), ()): 1})
        for i, w in enumerate(a)
    }
    return _arrow(cat, a, a, entries)


def zero(cat, dom, cod):
    return FreeArrow(cat, dom, cod, {})


def embed(cat, f):
    """A generating arrow as a free arrow between singleton words."""
    u = (Literal(cat.dom(f)),)
    v = (Literal(cat.cod(f)),)
    return _arrow(cat, (u,), (v,), {(0, 0): Counter({_wiring(u, v, [(0, 1, f)], ()): 1})})


def eta(cat, a):
    """I -> star(A) x A, the diagonal of caps."""
    return name_of(identity(cat, a))


def epsilon(cat, a):
    """A x star(A) -> I, the codiagonal of cups: the dual of eta."""
    return eta(cat, a).dual()


def name_of(fa):
    """A -> B into I -> star(A) x B by bending the domain up; same boundary, same pairs."""
    cod = anf_kron(anf_star(fa.dom), fa.cod)
    out = {}
    for (i, j), c in fa.entries.items():
        out[(j * len(fa.cod) + i, 0)] = Counter(
            {Wiring((), boundary(t.dom, t.cod), t.pairs, t.loops): m for t, m in c.items()}
        )
    return _arrow(fa.cat, UNIT, cod, out)


def coname_of(fa):
    """A -> B into A x star(B) -> I: the dual of its name."""
    return name_of(fa).dual()


def _inject(fa, parts, k):
    """fa followed by the k-th injection into parts[0] + ... + parts[n-1].

    fa's codomain is parts[k].  Every component of the injection is an
    identity wiring, so the composite only moves fa's rows down past the
    words of the parts before k.
    """
    off = sum(len(p) for p in parts[:k])
    cod = tuple(w for p in parts for w in p)
    return _arrow(fa.cat, fa.dom, cod, {(off + i, j): c for (i, j), c in fa.entries.items()})


def injection(cat, parts, k):
    """The k-th biproduct injection parts[k] -> parts[0] + ... + parts[n-1]."""
    parts = [tuple(tuple(w) for w in p) for p in parts]
    return _inject(identity(cat, parts[k]), parts, k)


def projection(cat, parts, k):
    """The k-th biproduct projection, the dagger of the injection."""
    return injection(cat, parts, k).dagger()


def symmetry(cat, a, b):
    """The symmetry A x B -> B x A: each word u ++ v goes to v ++ u by identities."""
    a, b = tuple(tuple(w) for w in a), tuple(tuple(w) for w in b)
    dom, cod = anf_kron(a, b), anf_kron(b, a)
    entries = {}
    for x, u in enumerate(a):
        for y, v in enumerate(b):
            n = len(u) + len(v)
            pairs = _id_pairs(cat, u, 0, n + len(v)) + _id_pairs(cat, v, len(u), n)
            t = _wiring(u + v, v + u, pairs, ())
            entries[(y * len(a) + x, x * len(b) + y)] = Counter({t: 1})
    return _arrow(cat, dom, cod, entries)


def scalar(cat, loops, mult=1):
    """The scalar I -> I carrying the given loop classes."""
    t = wiring((), (), (), loops, cat)
    return FreeArrow(cat, UNIT, UNIT, {(0, 0): Counter({t: mult})})


def trace_arrow(f, a, b, c):
    """Partial trace over c of f: a x c -> b x c."""
    cat = f.cat
    a, b, c = tuple(a), tuple(b), tuple(c)
    if f.dom != anf_kron(a, c) or f.cod != anf_kron(b, c):
        raise ValueError("trace: shape mismatch")
    sc = anf_star(c)
    first = identity(cat, a) @ eta(cat, sc)
    mid = f @ identity(cat, sc)
    last = identity(cat, b) @ epsilon(cat, c)
    return first >> mid >> last


# ---------------------------------------------------------------------------
# denotation of nets


def denote_slice(s, cat, cod):
    """The one wiring a slice denotes, as ``(row, wiring)``, or ``None`` for zero.

    A slice has made every sum choice, so it denotes one wiring I -> word
    ``cod[row]`` of the conclusions' ANF ``cod``, or zero when a formula cut
    joins two different words.  One walk numbers the axiom leaves of the trees
    at the outs, then at the cuts, and tracks which word each tree spells; a
    leaf on an axiom's output 0 is starred.  Each cut joins output-1 leaves to
    output-0 leaves.  A strand from an out leaf composes axiom, cut, axiom, ...
    up to an out leaf: one pair.  The axioms left over close into loops.
    """
    links, wires = s.links, s.wires
    at = []  # leaf position -> [position of its axiom's output 0, of its output 1, arrow]
    axioms = {}

    def tree(port):
        # (row, words): the leaves below port spell word row of a words-word ANF
        lid, slot = port
        link = links[lid]
        if isinstance(link, nets.AxLink):
            ax = axioms.setdefault(lid, [None, None, link.arrow])
            ax[slot] = len(at)
            at.append(ax)
            return 0, 1
        if isinstance(link, nets.TimesLink):
            r0, n0 = tree(wires[(lid, 0)])
            r1, n1 = tree(wires[(lid, 1)])
            return r0 * n1 + r1, n0 * n1
        if isinstance(link, nets.PlusLink):
            r, n = tree(wires[(lid, 0)])
            k = len(anf(link.other))
            return r + k * link.right, n + k
        return 0, 1  # a unit

    row = 0
    for port in s.outs:
        r, n = tree(port)
        row = row * n + r
    n_out = len(at)
    join = {}  # position of an output 1 -> (position of the output 0 it is cut to, arrow)
    for lid in sorted(lid for lid, link in links.items() if isinstance(link, nets.CutLink)):
        a, (r0, _) = len(at), tree(wires[(lid, 0)])
        b, (r1, _) = len(at), tree(wires[(lid, 1)])
        g = links[lid].arrow
        if g is not None:
            join[a] = (b, g)
        elif r0 != r1:
            return None
        else:
            for i, j in zip(range(a, b), range(b, len(at))):
                i, j = (j, i) if at[i][0] == i else (i, j)  # now i is on an output 1
                join[i] = (j, cat.identity(cat.cod(at[i][2])))
    seen = set()

    def strand(ax):
        # compose from ax's output 0 on: (the output 1 where it leaves, arrow)
        start, acc = ax[0], ax[2]
        while True:
            seen.add(ax[0])
            if ax[1] < n_out:
                return ax[1], acc
            q, g = join[ax[1]]
            acc = cat.compose(acc, g)
            if q == start:
                return None, acc
            ax = at[q]
            acc = cat.compose(acc, ax[2])

    pairs = [(q, *strand(at[q])) for q in range(n_out) if at[q][0] == q]
    cycles = sorted(axioms) if len(seen) < len(axioms) else ()  # from their least axiom id
    loops = [cat.loop_of(strand(axioms[lid])[1]) for lid in cycles if axioms[lid][0] not in seen]
    return row, _wiring((), cod[row], pairs, loops)


def denote(net):
    """The arrow I -> conclusions denoted by a net: each slice adds its wiring to its row."""
    cat = net.cat
    cod = anf_kron_all([anf(f) for f in net.conclusions])
    entries = {}
    for s in net.slices:
        d = denote_slice(s, cat, cod)
        if d is None:
            continue
        row, t = d
        entries.setdefault((row, 0), Counter())[t] += 1
    return _arrow(cat, UNIT, cod, entries)


# ---------------------------------------------------------------------------
# completeness: rebuild a net from an arrow


def complete(fa, name="completed"):
    """A net whose denotation is the name of ``fa``, one slice per wiring.

    Conclusions are (star of the domain, codomain) as canonical formulas,
    omitting a side that is bare I.  Each wiring becomes the normal slice
    ``rewrite.reconstruct_slice`` builds from its matrix entry's plus
    branches, its pairs and its loops: one axiom per pair and one closed
    loop per loop class.  Sums are balanced, so an entry's plus branches are
    ``plus_path`` of its row and column: at most ceil(log2 n) per n-word side.
    """
    cat = fa.cat
    concl = []
    dom_f = anf_formula(anf_star(fa.dom))
    cod_f = anf_formula(fa.cod)
    keep_dom = fa.dom != UNIT
    keep_cod = fa.cod != UNIT
    if keep_dom:
        concl.append(dom_f)
    if keep_cod:
        concl.append(cod_f)

    slices = []
    for (i, j) in sorted(fa.entries):
        # plus bits in boundary order: star(dom word j), then cod word i
        bits = []
        if keep_dom:
            bits += plus_path(len(fa.dom), j)
        if keep_cod:
            bits += plus_path(len(fa.cod), i)
        for t, mult in sorted(fa.entries[(i, j)].items()):
            slices += [CanonicalSlice(tuple(bits), t.pairs, t.loops)] * mult
    return to_net(NormalNet(tuple(concl), tuple(slices)), cat, name)


# ---------------------------------------------------------------------------
# text format


def fmt_wiring(t):
    pp = " , ".join(f"{neg}<->{pos} : {f}" for neg, pos, f in t.pairs)
    lp = " , ".join(str(lp) for lp in t.loops)
    pp = f" {pp}" if pp else ""
    lp = f" {lp}" if lp else ""
    return f"(pairs:{pp}; loops:{lp})"


def fmt_arrow(fa):
    lines = [f"arrow : {fmt_anf(fa.dom)} -> {fmt_anf(fa.cod)}"]
    for (i, j) in sorted(fa.entries):
        c = fa.entries[(i, j)]
        parts = []
        for t in sorted(c):
            parts.extend([fmt_wiring(t)] * c[t])
        lines.append(f"entry ({i},{j}): {{ " + " , ".join(parts) + " }")
    return "\n".join(lines) + "\n"


def _parse_wiring(text, dom, cod, cat, lineno):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError(lineno, f"bad wiring {text!r}")
    body = text[1:-1]
    ppart, semi, lpart = body.partition(";")
    ppart = ppart.strip()
    lpart = lpart.strip()
    if not semi or not ppart.startswith("pairs:") or not lpart.startswith("loops:"):
        raise ParseError(lineno, "wiring wants '(pairs: ...; loops: ...)'")
    pairs = []
    ptext = ppart[len("pairs:"):].strip()
    if ptext:
        for item in split_top(ptext, ",", lineno):
            pp, colon, label = item.partition(":")
            a, arrowsym, b = pp.partition("<->")
            if not colon or not arrowsym:
                raise ParseError(lineno, f"bad pair {item!r}")
            label = " ".join(label.split())
            if label not in cat.arrows:
                raise ParseError(lineno, f"unknown arrow {label!r}")
            a, b = (parse_nat(x.strip(), lineno, f"bad pair {item!r}") for x in (a, b))
            pairs.append((a, b, label))
    loops = []
    ltext = lpart[len("loops:"):].strip()
    if ltext:
        for item in split_top(ltext, ",", lineno):
            if not (item.startswith("[") and item.endswith("]")):
                raise ParseError(lineno, f"bad loop {item!r}")
            obj, colon, arrow = item[1:-1].partition(":")
            obj = obj.strip()
            arrow = " ".join(arrow.split())
            if not colon or obj not in cat.objects or arrow not in cat.arrows:
                raise ParseError(lineno, f"bad loop {item!r}")
            if cat.dom(arrow) != obj or cat.cod(arrow) != obj:
                raise ParseError(lineno, f"loop arrow {arrow} is not an endo of {obj}")
            loops.append(cat.loop_of(arrow))
    try:
        return wiring(dom, cod, pairs, loops, cat)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from exc


def parse_arrow(text, cat):
    """Parse the textual form produced by fmt_arrow."""
    dom = cod = None
    entries = {}
    for lineno, head, rest in directives(text):
        if head == "arrow":
            if dom is not None:
                raise ParseError(lineno, "duplicate arrow line")
            _, colon, sig = rest.partition(":")
            if not colon:
                raise ParseError(lineno, "expected 'arrow : dom -> cod'")
            dtext, arr, ctext = sig.partition("->")
            if not arr:
                raise ParseError(lineno, "expected 'arrow : dom -> cod'")
            dom = parse_anf(dtext, cat, lineno)
            cod = parse_anf(ctext, cat, lineno)
        elif head == "entry":
            if dom is None:
                raise ParseError(lineno, "entry before arrow line")
            idx, colon, body = rest.partition(":")
            idx = idx.strip()
            body = body.strip()
            if not colon or not (idx.startswith("(") and idx.endswith(")")):
                raise ParseError(lineno, "expected 'entry (i,j): { ... }'")
            ij = idx[1:-1].split(",")
            if len(ij) != 2:
                raise ParseError(lineno, f"bad entry index {idx!r}")
            i, j = (parse_nat(p.strip(), lineno, f"bad entry index {idx!r}") for p in ij)
            if not (i < len(cod) and j < len(dom)):
                raise ParseError(lineno, f"entry index {idx} out of range")
            if not (body.startswith("{") and body.endswith("}")):
                raise ParseError(lineno, "expected 'entry (i,j): { ... }'")
            inner = body[1:-1].strip()
            if inner:
                c = entries.setdefault((i, j), Counter())
                for wtext in split_top(inner, ",", lineno):
                    c[_parse_wiring(wtext, dom[j], cod[i], cat, lineno)] += 1
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if dom is None:
        raise ParseError(1, "missing arrow line")
    return _arrow(cat, dom, cod, entries)
