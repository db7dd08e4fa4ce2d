"""Finite generating categories with involution, and their loop classes.

A category file lists objects, arrows, a composition table, and an involution
(dagger).  Identities are implicit and named ``id <Obj>``.  Endomorphisms are
grouped into loop classes, the symmetric-transitive closure of g.f ~ f.g;
scalar loops in the free category are only meaningful up to this equivalence.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CategoryError, ParseError
from .formula import MAX_FORMULAS, Atom, DualAtom, directives


class Loop(namedtuple("Loop", "obj arrow")):
    """Canonical representative (object, endo arrow) of a loop class."""

    __slots__ = ()

    def __str__(self):
        return f"[{self.obj} : {self.arrow}]"


def _check_name(name, lineno):
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise ParseError(lineno, f"bad identifier {name!r}")
    if not all(c.isalnum() or c == "_" for c in name):
        raise ParseError(lineno, f"bad identifier {name!r}")


class Category:
    """A finite category presented by a total composition table and a dagger.

    ``arrows`` maps every arrow name (identities included) to ``(dom, cod)``.
    ``compose(f, g)`` is the composite g.f for f: A -> B, g: B -> C, and ``composable`` lists
    every such pair ``(f, g)``, by f and then g in the order of ``arrows``: the category's
    laws, its loop classes and a model's functor check walk it.
    ``atoms`` maps each object to one ``Atom`` and one ``DualAtom``; the net checker
    and ``net.cut_inputs`` give only these as atom labels, so those meet by identity.
    ``formula_table()`` is the one table that ``parse_net``, ``parse_formula`` and
    ``freecat.complete`` read and build its formulas through, seeded with those atoms:
    a formula read or built before is the same node, with its ``anf`` and ``fmt`` caches.
    ``parse_net`` also keeps there what each arrow, cut label, plus side and conclusions
    line it checked means, so every net over the category shares one ``AxLink`` per arrow,
    which ``validate_net`` and cut elimination take from there too.
    """

    def __init__(self, name, objects, arrows, table, dagger):
        self.name = name
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise CategoryError("duplicate object")
        for obj in self.objects:
            if obj in ("I", "x", "id"):
                raise CategoryError(f"object name {obj!r} is reserved")
        self.atoms = {obj: (Atom(obj), DualAtom(obj)) for obj in self.objects}
        self._reset_formulas()
        self.arrows = {}
        for obj in self.objects:
            self.arrows[self.identity(obj)] = (obj, obj)
        for f, (a, b) in arrows.items():
            if f in self.arrows:
                raise CategoryError(f"duplicate or reserved arrow name {f!r}")
            if a not in self.objects or b not in self.objects:
                raise CategoryError(f"arrow {f}: unknown object")
            self.arrows[f] = (a, b)

        self._table = comp = {}  # (f, g) -> g.f
        for f, (a, b) in self.arrows.items():
            comp[(self.identity(a), f)] = f
            comp[(f, self.identity(b))] = f
        for (f, g), h in table.items():
            self._require_arrow(f)
            self._require_arrow(g)
            self._require_arrow(h)
            if self.cod(f) != self.dom(g):
                raise CategoryError(f"compose {f} ; {g}: not composable")
            if self.dom(h) != self.dom(f) or self.cod(h) != self.cod(g):
                raise CategoryError(f"compose {f} ; {g} = {h}: composite has wrong type")
            old = comp.get((f, g))
            if old is not None and old != h:
                raise CategoryError(f"compose {f} ; {g}: conflicts with identity law")
            comp[(f, g)] = h

        leaving = {obj: [] for obj in self.objects}  # object -> the arrows out of it
        for g, (a, _) in self.arrows.items():
            leaving[a].append(g)
        self.composable = [(f, g) for f, (_, b) in self.arrows.items() for g in leaving[b]]
        for f, g in self.composable:
            if (f, g) not in comp:
                raise CategoryError(f"composition not total: {f} ; {g} undefined")
        for f, g in self.composable:
            for h in leaving[self.cod(g)]:
                if (left := comp[(comp[(f, g)], h)]) != (right := comp[(f, comp[(g, h)])]):
                    raise CategoryError(
                        f"associativity fails on {f} ; {g} ; {h}: {left} != {right}"
                    )

        self._dagger = {self.identity(obj): self.identity(obj) for obj in self.objects}
        for f, g in dagger.items():
            self._require_arrow(f)
            self._require_arrow(g)
            if f in self._dagger and self._dagger[f] != g:
                raise CategoryError(f"dagger {f}: conflicting declaration")
            self._dagger[f] = g
        for f in self.arrows:
            if f not in self._dagger:
                raise CategoryError(f"dagger undefined for {f}")
        for f, (a, b) in self.arrows.items():
            g = self._dagger[f]
            if self.arrows[g] != (b, a):
                raise CategoryError(f"dagger {f} = {g}: wrong type")
            if self._dagger[g] != f:
                raise CategoryError(f"dagger not involutive on {f}")
        for f, g in self.composable:
            if self._dagger[comp[(f, g)]] != comp[(self._dagger[g], self._dagger[f])]:
                raise CategoryError(f"dagger not contravariant on {f} ; {g}")

        self._loop_rep = self._close_loops()

    def _reset_formulas(self):
        self.formulas = {(type(a), a.name): a for pair in self.atoms.values() for a in pair}

    def formula_table(self):
        """The formula table, started over from the atoms once it holds ``MAX_FORMULAS`` entries.

        It maps each formula text read and checked over this category to its node, and
        each node's class with its atom name or the ids of its shared parts to the node
        (see ``formula._node``); ``parse_net`` keys what a line's text means by the line's
        head and the text, which no formula text or node key equals.  A caller keeps the
        table it got for its whole call.
        """
        if len(self.formulas) >= MAX_FORMULAS:
            self._reset_formulas()
        return self.formulas

    def _require_arrow(self, f):
        if f not in self.arrows:
            raise CategoryError(f"unknown arrow {f!r}")

    @staticmethod
    def identity(obj):
        return f"id {obj}"

    def is_identity(self, f):
        return f == self.identity(self.dom(f))

    def dom(self, f):
        return (self.arrows.get(f) or self._require_arrow(f))[0]  # a miss raises there

    def cod(self, f):
        return (self.arrows.get(f) or self._require_arrow(f))[1]

    def compose(self, f, g):
        """The composite g.f for f: A -> B, g: B -> C; the table holds every composable pair."""
        h = self._table.get((f, g))
        if h is None and self.cod(f) != self.dom(g):
            raise CategoryError(f"compose {f} ; {g}: not composable")
        return h

    def dagger(self, f):
        return self._dagger.get(f) or self._require_arrow(f)

    def endos(self):
        """All endomorphism arrow names, identities included."""
        return [f for f, (a, b) in self.arrows.items() if a == b]

    def _close_loops(self):
        # union-find over endos; g.f ~ f.g for every f: A -> B, g: B -> A
        parent = {e: e for e in self.endos()}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for f, g in self.composable:
            if self.cod(g) == self.dom(f):
                union(self._table[(f, g)], self._table[(g, f)])
        reps = {}
        classes = {}
        for e in parent:
            classes.setdefault(find(e), []).append(e)
        for members in classes.values():
            rep = min(Loop(self.dom(e), e) for e in members)
            for e in members:
                reps[e] = rep
        return reps

    def loop_of(self, endo):
        """The loop class of a single endomorphism."""
        if self.dom(endo) != self.cod(endo):
            raise CategoryError(f"loop of non-endo arrow {endo}")
        return self._loop_rep[endo]

    def loop_dagger(self, loop):
        """Dagger descends to loop classes."""
        return self._loop_rep[self._dagger[loop.arrow]]


def _arrow_name(tok, lineno):
    name = " ".join(tok.split())
    if name.startswith("id "):
        _check_name(name[3:], lineno)
        return name
    _check_name(name, lineno)
    if name == "id":
        raise ParseError(lineno, "arrow name 'id' is reserved")
    return name


def load_category(text):
    """Parse and validate a category file."""
    name = None
    objects = []
    arrows = {}
    table = {}
    dagger = {}
    for lineno, head, rest in directives(text):
        if head == "category":
            if name is not None:
                raise ParseError(lineno, "duplicate category line")
            _check_name(rest, lineno)
            name = rest
        elif head == "object":
            _check_name(rest, lineno)
            objects.append(rest)
        elif head == "arrow":
            sig, _, typing = rest.partition(":")
            f = sig.strip()
            _check_name(f, lineno)
            if f == "id" or f.startswith("id "):
                raise ParseError(lineno, "arrow names starting with 'id' are reserved")
            a, arr, b = typing.partition("->")
            if not arr:
                raise ParseError(lineno, "expected 'arrow f : A -> B'")
            if f in arrows:
                raise ParseError(lineno, f"duplicate arrow {f!r}")
            arrows[f] = (a.strip(), b.strip())
        elif head == "compose":
            lhs, eq, h = rest.partition("=")
            if not eq:
                raise ParseError(lineno, "expected 'compose f ; g = h'")
            f, semi, g = lhs.partition(";")
            if not semi:
                raise ParseError(lineno, "expected 'compose f ; g = h'")
            key = (_arrow_name(f, lineno), _arrow_name(g, lineno))
            if key in table:
                raise ParseError(lineno, f"duplicate compose line for {key[0]} ; {key[1]}")
            table[key] = _arrow_name(h, lineno)
        elif head == "dagger":
            f, eq, g = rest.partition("=")
            if not eq:
                raise ParseError(lineno, "expected 'dagger f = g'")
            f = _arrow_name(f, lineno)
            if f in dagger:
                raise ParseError(lineno, f"duplicate dagger line for {f}")
            dagger[f] = _arrow_name(g, lineno)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if name is None:
        raise CategoryError("missing category line")
    return Category(name, objects, arrows, table, dagger)
