"""Proof nets: slices of links wired together, with validation and printing.

A net is a finite multiset of slices over a shared conclusion list.  Each
slice is a set of links (axioms, cuts, times, plus, unit) wired output-to-
input, with every dangling output listed in order on the ``out`` line.

Ports are written ``<link id>.<slot>``; axioms have outputs 0 and 1, the
other producing links output 0.  Cuts have no outputs and no written id; a
link id holds no space, bracket or any of ``.,:|=#``.
Links are immutable slotted values, equal only within one class; ``Slice``
and ``Net`` are mutable.  There is one plus kind, ``PlusLink``: its two classes
differ only in ``right``, the side of the sum that input 0 fills.  There is one
builder of identity cuts, ``id_cut``, for the parser and for rewriting.

Slices are typed and built producers first, as proof structures are: a link
gets its output's label once its inputs have theirs, held back until then
(``_OpenSlice.settle``), and a ``SliceBuilder`` makes each link over ports that
already exist.  ``topo_order`` sorts the links producers first for
``print_net``.  Only ``parse_net`` and ``validate_net`` check a net; what a
builder makes is not.

One checker, ``_OpenSlice``, decides what a well-formed slice is, link by link:
``add`` takes a producing link and ``cut`` a cut, each at its line, and ``end``
checks what only the whole slice shows; an axiom or unit is handed to ``add``
with its labels.  ``parse_net`` feeds it each line as it reads it, in one pass,
as ``print_net`` writes it: each producing line puts its outputs in the slice's
table of unused outputs, and each port is taken out of that table at the line
that names it, or resolved there if it is spelled another way.  Any port named
before its link is written waits for that link's line, and one that names no
output raises at the end line.  ``validate_net`` checks the wiring of a built
slice, the one check text needs no part of, then feeds the checker each link
in written order over the ports it is wired from, with no table, and changes
nothing it checks: a built cut is checked as written, and an unknown arrow or
a bad plus side is a NetError in the parser's words.  ``labels`` feeds it the
same way and returns the labels it gave.

Arrow cuts compare by identity: axiom labels and arrow cuts share the
category's atoms.  Texts are read through the category's formula table, so
the nets parsed over one category share their formulas' nodes and their
links, and ``rewrite`` takes each axiom it makes from there too.  A fault is
raised where the checks' order puts it, not where it was found: a slice's
ports, labels and id cuts at its end, its output uses, outs, units and cuts
once the whole net is read (at once, for a built slice).
"""

from __future__ import annotations

import re

from .errors import FormulaError, NetError, ParseError
from .formula import (
    MAX_DEPTH,
    Atom,
    DualAtom,
    Plus,
    Tensor,
    Unit,
    Zero,
    _Empty,
    _Record,
    _text_node,
    _too_deep,
    _validate,
    _Value,
    directives,
    fmt,
    parse_nat,
    split_top,
    star,
    validate,
)

_BAD_ID = re.compile(r"[\s.,:|=#()\[\]]")  # what a link id may not hold; \s is str.isspace
_SPACED_DOT = re.compile(r"\s+(?=\.\S)")  # the space in a port spelled `a .0`


class AxLink(_Value):
    """Axiom for an arrow f: A -> B; outputs 0: A*, 1: B."""

    __slots__ = __match_args__ = ("arrow",)
    n_in, n_out = 0, 2

    def __init__(self, arrow):
        object.__setattr__(self, "arrow", arrow)


class CutLink(_Value):
    """A cut; either arrow-labelled (atoms) or an identity cut on a formula.

    Exactly one of ``arrow``/``formula`` is set.  Atom-level identity cuts are
    normalized to arrow cuts labelled ``id A``.  Input 0 is the plain side and
    input 1 the starred side: an arrow cut labelled g takes dom(g) on input 0
    and (cod g)* on input 1, a formula cut takes ``formula`` and its dual
    (see ``cut_inputs``).
    """

    __slots__ = __match_args__ = ("arrow", "formula")
    n_in, n_out = 2, 0

    def __init__(self, arrow=None, formula=None):
        object.__setattr__(self, "arrow", arrow)
        object.__setattr__(self, "formula", formula)


class TimesLink(_Empty):
    """Inputs 0: A, 1: B; output 0: (A x B)."""

    __slots__ = ()
    n_in, n_out = 2, 1


class PlusLink(_Value):
    """Input 0: A; output 0: the sum of A and ``other``, A on the side ``right`` names."""

    __slots__ = __match_args__ = ("other",)
    n_in, n_out = 1, 1

    def __init__(self, other):
        object.__setattr__(self, "other", other)


class Plus1Link(PlusLink):
    """Output 0: (A + other)."""

    __slots__ = ()
    right = False


class Plus2Link(PlusLink):
    """Output 0: (other + A)."""

    __slots__ = ()
    right = True


class UnitLink(_Empty):
    """No inputs; output 0: I."""

    __slots__ = ()
    n_in, n_out = 0, 1


class Slice(_Record):
    """One slice: links, wires (input port -> producing output port), outs."""

    __slots__ = __match_args__ = ("links", "wires", "outs")

    def __init__(self, links, wires, outs):
        self.links, self.wires, self.outs = links, wires, outs

    def consumers(self):
        """Reverse wire map: producing output port -> consuming input port."""
        return {outp: inp for inp, outp in self.wires.items()}


class Net(_Record):
    __slots__ = __match_args__ = ("name", "conclusions", "slices", "cat")

    def __init__(self, name, conclusions, slices, cat):
        self.name, self.conclusions, self.slices, self.cat = name, conclusions, slices, cat

    def __str__(self):
        return print_net(self)


def topo_order(slice_):
    """The producing links (all but cuts) in dependency order, ties by id: ``print_net``'s order."""
    links = slice_.links
    waiting = {lid: link.n_in for lid, link in links.items() if not isinstance(link, CutLink)}
    consumers = {}
    for (lid, _), (pid, _) in slice_.wires.items():
        if lid in waiting:
            consumers.setdefault(pid, []).append(lid)
    order, level = [], sorted(lid for lid, n in waiting.items() if n == 0)
    while level:
        order += level
        fed = [lid for pid in level for lid in consumers.get(pid, ())]
        for lid in fed:
            waiting[lid] -= 1
        level = sorted({lid for lid in fed if waiting[lid] == 0})
    if len(order) != len(waiting):
        raise NetError("cyclic wiring")
    return order


def _axiom(cat, arrow, table):
    """The one ``AxLink`` for ``arrow``, an arrow of ``cat``, and its outputs' labels, the
    category's shared atoms dom(f)* and cod(f): kept in ``cat``'s formula table ``table``."""
    if (ax := table.get(key := ("ax", arrow))) is None:
        atoms = cat.atoms
        ax = table[key] = AxLink(arrow), (atoms[cat.dom(arrow)][1], atoms[cat.cod(arrow)][0])
    return ax


_UNIT = Unit()  # the label of every unit link's output
_TIMES_LINK, _UNIT_LINK = TimesLink(), UnitLink()  # links are values: one of each serves all
_ID_CUT = (None, None)  # an id cut read as text: its inputs' labels decide its link


def labels(slice_, cat):
    """Formula label of every output port of a built slice, as the checker gives them.

    The checker is fed each link in written order, and a link waits on the link of an
    input with no label yet until that is labelled (``_OpenSlice.settle``).  Raises
    NetError on cyclic wiring and on the faults labelling finds.  Atom labels are the
    category's shared ones.
    """
    return _fed(slice_, cat).all_labels()


def cut_inputs(link, cat):
    """The labels a cut expects on input 0 (plain side) and input 1 (starred side).

    Raises NetError on a cut the parser never builds: with both or neither of ``arrow`` and
    ``formula``, on an arrow the category lacks, on an atom (that is the arrow cut id), or
    on a formula nested deeper than the parser reads.
    """
    arrow, f = link.arrow, link.formula
    if (arrow is None) == (f is None):
        raise NetError("a cut takes exactly one of an arrow and a formula")
    if arrow is not None:
        if arrow not in cat.arrows:
            raise NetError(f"unknown cut label {arrow!r}")
        return cat.atoms[cat.dom(arrow)][0], cat.atoms[cat.cod(arrow)][1]
    if isinstance(f, (Atom, DualAtom)):
        raise NetError(f"cut id {fmt(f)}: a cut on an atom is the arrow cut id {f.name}")
    if _too_deep(f):
        raise NetError(f"formula nested deeper than {MAX_DEPTH}")
    return f, star(f)


def id_cut(cat, formula, port_f, port_fstar):
    """An identity cut on ``formula``, as (link, input-0 port, input-1 port).

    ``port_f`` produces ``formula`` and ``port_fstar`` its dual.  On an atom
    or a dual atom the cut is the arrow cut ``id A``, which takes A on input
    0; on a compound formula it is a formula cut that takes ``formula`` there.
    """
    if isinstance(formula, DualAtom):
        return CutLink(arrow=cat.identity(formula.name)), port_fstar, port_f
    if isinstance(formula, Atom):
        return CutLink(arrow=cat.identity(formula.name)), port_f, port_fstar
    return CutLink(formula=formula), port_f, port_fstar


_LINK_CLASSES = (AxLink, CutLink, TimesLink, Plus1Link, Plus2Link, UnitLink)


def _is_port(p):
    """Whether ``p`` has a port's shape: a pair of a link id, a ``str``, and a slot, an ``int``."""
    return type(p) is tuple and len(p) == 2 and type(p[0]) is str and type(p[1]) is int


def validate_wiring(slice_):
    """A slice built in code has a slice's shape, and each input is wired once, from an
    output that exists: checked before anything reads the slice."""
    links, wires = slice_.links, slice_.wires
    for lid, link in links.items():
        if type(lid) is not str or type(link) not in _LINK_CLASSES:
            raise NetError(f"bad link {lid!r}: {link!r}")
    want_in = {(lid, slot) for lid, link in links.items() for slot in range(link.n_in)}
    if wires.keys() != want_in:  # so each key is a port, or equal to one and read as it
        missing, extra = want_in - wires.keys(), wires.keys() - want_in
        raise NetError(f"bad wiring: missing inputs {sorted(missing)}, "
                       f"stray {sorted(extra, key=str)}")
    ports = {(lid, slot) for lid, link in links.items() for slot in range(link.n_out)}
    for inp, outp in wires.items():
        if not _is_port(outp) or outp not in ports:
            raise NetError(f"wire into {inp} from unknown port {outp}")
    for port in slice_.outs:
        if not _is_port(port):
            raise NetError(f"out lists bad port {port!r}")


def validate_uses(slice_):
    """The text of a soundly wired slice's fault: the first out naming no output, else the
    port whose use count is not 1 that comes first by its text, whatever the links' order."""
    seen_out = {(lid, slot): 0 for lid, link in slice_.links.items() for slot in range(link.n_out)}
    for port in (*slice_.wires.values(), *slice_.outs):
        if port not in seen_out:  # only an out can name no output: the wiring is sound
            return f"out lists unknown port {_fmt_port(port)}"
        seen_out[port] += 1
    if bad := [port for port, n in seen_out.items() if n != 1]:
        port = min(bad, key=_fmt_port)
        return f"port {_fmt_port(port)} used {seen_out[port]} times, want exactly 1"


def _check_outs(outs, labs, conclusions):
    """The text of the fault of outs, with labels ``labs``, that do not carry the conclusions."""
    if len(outs) != len(conclusions):
        return f"slice has {len(outs)} conclusions, net declares {len(conclusions)}"
    for port, want in zip(outs, conclusions):
        if (got := labs[port]) != want:
            return f"conclusion mismatch: {fmt(got)} at {_fmt_port(port)}, want {fmt(want)}"


# the faults a slice holds back, by rank: of those held, the first of the lowest rank is raised
_LABELS, _ID_CUTS, _OUTS, _UNITS, _CUTS = range(5)


def _raise(fault, below=_CUTS + 1):
    """Raise a held ``fault``, (rank, line, class, args) or None, built only now, if its rank
    is below ``below``."""
    if fault is not None and fault[0] < below:
        raise fault[2](*fault[3])


class _OpenSlice:
    """The checker of one slice, fed link by link: by ``parse_net`` a line at a time, by
    ``validate_net`` and ``labels`` each link of a built slice in written order.

    ``add`` takes a producing link, ``cut`` a cut, and ``end`` checks the slice once every
    link is in.  What cannot be finished yet waits, and is finished through the same code:
    a link over an input with no label yet, once it has one (``settle``); a cut over an
    unlabelled port, at ``end``; and in text, an input named before its link is written,
    at that link's line (``miss``, ``written``).  One whose link is never written, or that
    names no output of it, raises at the end line (``read_outs``).  The table is the
    parser's: a built slice names its ports itself, so its uses are always counted.

    A fault found before its turn is held in ``fault``, the first by rank and then by line,
    as what builds it rather than as an exception, so one raised later holds no frame that
    holds it.
    """

    __slots__ = ("cat", "text", "links", "cuts", "wires", "labs", "depth", "waiting",
                 "units", "late_cuts", "fault", "table", "expect", "spelled")

    def __init__(self, cat, text):
        self.cat = cat
        self.text = text  # read from text, where an arrow cut may be written starred side first
        self.links, self.cuts, self.wires = {}, {}, {}  # producers; cut id -> link; input -> port
        self.labs, self.depth, self.waiting = {}, {}, {}  # what settle keeps
        self.units = {}  # unit id -> its line, or its place in a built slice
        self.late_cuts = []  # each (cut id, label, line) of a cut over a port with no label yet
        self.fault = None  # (rank, line, error class, args) of the first fault held
        self.table = {}  # in text, `lid.slot` -> that output, until a use takes it
        self.expect = {}  # link id -> each unresolved (input, token, line) naming it
        self.spelled = False  # a use took its port other than out of the table

    def hold(self, rank, lineno, error, *args):
        """Hold the fault ``error(*args)`` of ``rank`` found at ``lineno``, unless one of a lower
        rank, or of its rank and found at an earlier line, is held."""
        if self.fault is None or (rank, lineno) < self.fault[:2]:
            self.fault = rank, lineno, error, args

    def add(self, lid, link, p0=None, p1=None):
        """Enter producing link ``lid``, then label it and what waits on it (``settle``).

        A times or plus link has input 0 wired from ``p0`` and a times link input 1 from
        ``p1``; an input the parser has not resolved yet is ``(link id, None)``, no port.  An
        axiom or unit comes labelled: its outputs' labels are in ``labs`` before it is added,
        and a unit's line in ``units``.
        """
        self.links[lid] = link
        if p0 is not None:
            wires = self.wires
            wires[(lid, 0)] = p0
            if p1 is not None:
                wires[(lid, 1)] = p1
        if self.expect:
            self.written(lid)
        if p0 is not None or lid in self.waiting:
            self.settle([lid])

    def settle(self, todo):
        """Label each link of ``todo`` (taken from its end) that can be, then those waiting on it.

        A times or plus link whose inputs have labels gets its output's; one with an input
        unlabelled waits on that input's link, the first input's if both are.  A times link
        over I, and a label built by more than ``MAX_DEPTH`` nested times and plus links, is
        held as labelling's fault, at line 0 so that the first one found stays, and stops
        labelling: the parser bounds the formulas it reads, and this bounds the ones a slice
        builds, before any recursive walker meets them.
        """
        links, wires, labs, depth, waiting = (self.links, self.wires, self.labs, self.depth,
                                              self.waiting)
        while todo:
            link = links[lid := todo.pop()]
            if n_in := link.n_in:  # a times or plus link
                p0 = wires[(lid, 0)]
                p1 = wires[(lid, 1)] if n_in == 2 else p0
                if p0 not in labs or p1 not in labs:
                    waiting.setdefault((p1 if p0 in labs else p0)[0], []).append(lid)
                    continue
                if n_in == 2:
                    l0, l1 = labs[p0], labs[p1]
                    if type(l0) is Unit or type(l1) is Unit:
                        return self.hold(_LABELS, 0, NetError,
                                         f"times {lid}: I may not appear under x")
                    out, d = Tensor(l0, l1), 1 + max(depth.get(p0, 0), depth.get(p1, 0))
                else:
                    out = Plus(link.other, labs[p0]) if link.right else Plus(labs[p0], link.other)
                    d = 1 + depth.get(p0, 0)
                if d > MAX_DEPTH:
                    return self.hold(_LABELS, 0, NetError,
                                     f"link {lid}: label nested deeper than {MAX_DEPTH}")
                labs[(lid, 0)], depth[(lid, 0)] = out, d
            if waiting:
                todo += waiting.pop(lid, ())

    def cut(self, cid, labelled, p0, p1, lineno):
        """Enter cut ``cid`` of line ``lineno`` over ports ``p0`` and ``p1`` (None: not read
        yet), and check it if both have labels, else at ``end``.

        ``labelled`` is the cut's link and what it takes (``cut_inputs``), or ``_ID_CUT`` for
        an ``id`` cut read as text, whose link its inputs' labels decide.  An arrow cut that
        takes its inputs the other way round is turned in text; any other that does not take
        them is held as a fault, and so is each unit it meets that it may not.
        """
        link, want = labelled
        self.cuts[cid] = link
        wires, labs = self.wires, self.labs
        wires[(cid, 0)], wires[(cid, 1)] = p0, p1
        if p0 not in labs or p1 not in labs:
            self.late_cuts.append((cid, labelled, lineno))
            return
        l0, l1 = labs[p0], labs[p1]
        if link is None:
            if star(l0) != l1:
                self.hold(_ID_CUTS, lineno, ParseError, lineno,
                          f"id cut inputs {fmt(l0)}, {fmt(l1)} are not dual")
            else:
                self.cuts[cid], wires[(cid, 0)], wires[(cid, 1)] = id_cut(self.cat, l0, p0, p1)
            return
        if (l0, l1) == want:
            return
        if self.text and (l1, l0) == want:  # written starred side first
            wires[(cid, 0)], wires[(cid, 1)] = p1, p0
            return
        if want is not None:  # else the built cut's own fault is held: it takes nothing
            label = link.arrow if link.arrow is not None else f"id {fmt(link.formula)}"
            self.hold(_CUTS, lineno, NetError,
                      f"cut {label}: inputs {fmt(l0)}, {fmt(l1)} do not match")
        for lid, lab in ((p0[0], l0), (p1[0], l1)):
            if type(lab) is Unit and link.formula != _UNIT:  # only a unit's output is labelled I
                self.hold(_UNITS, self.units[lid], NetError,
                          f"unit {lid} must feed a plus link or an id cut on I")

    def all_labels(self):
        """The labels, once every link is in; raises labelling's fault, then cyclic wiring."""
        _raise(self.fault, _ID_CUTS)
        if self.waiting:  # a link still waiting lies on a cycle, or above one
            raise NetError("cyclic wiring")
        return self.labs

    def end(self, s, conclusions):
        """Check slice ``s``, each link of which is in, and each port resolved.

        Raises labelling's fault, cyclic wiring, then an id cut that is not dual.  Returns
        the first fault of the slice's uses, outs, units and cuts, held (``_raise``), or None.
        """
        labs, wires = self.all_labels(), self.wires
        for cid, labelled, lineno in self.late_cuts:
            self.cut(cid, labelled, wires[(cid, 0)], wires[(cid, 1)], lineno)
        _raise(self.fault, _OUTS)
        recount = not self.text or self.table or self.spelled  # built, or a port left or spelled
        if fault := recount and validate_uses(s) or _check_outs(s.outs, labs, conclusions):
            self.hold(_OUTS, 0, NetError, fault)
            return self.fault
        for port in s.outs:
            if type(labs[port]) is Unit:
                self.hold(_UNITS, self.units[port[0]], NetError,
                          f"unit {port[0]} feeds a conclusion; I must meet a plus or id cut")
        return self.fault

    # reading text

    def miss(self, inp, tok, lineno):
        """The port of input ``inp``, written ``tok``, that the table does not hold.

        A port of a link already read is resolved now.  Any other is ``(lid, None)``, no port,
        until its link's line (``written``): a link waits on its label, a cut is checked at end.
        """
        lid = tok.rpartition(".")[0].strip()
        if lid in self.links and (port := self.resolve(tok, lineno, True)) is not None:
            return port
        self.expect.setdefault(lid, []).append((inp, tok, lineno))
        return lid, None

    def written(self, lid):
        """Resolve the ports named before link ``lid``'s line, whose outputs are in the table now.

        One that names no output of it stays in ``expect``, as one whose link is never
        written does, and raises at the end line.
        """
        if named := self.expect.pop(lid, None):
            table, wires = self.table, self.wires
            for inp, tok, lineno in named:
                if (port := table.pop(tok, None) or self.resolve(tok, lineno, True)) is not None:
                    wires[inp] = port
                else:
                    self.expect.setdefault(lid, []).append((inp, tok, lineno))

    def resolve(self, tok, lineno, maybe=False):
        """The port ``tok`` names, which the table does not hold: spelled another way than
        ``lid.slot``, or taken before.  One that names no output raises ParseError, or
        gives None if ``maybe``.
        """
        try:
            port = _port(tok, lineno, self.links)
        except ParseError:
            if maybe:
                return None
            raise
        self.spelled = True
        return port

    def read_outs(self, outs):
        """The ports of the out line ``outs``, (line, tokens), at the slice's end line.

        An input still unresolved names no output: the first, by line and then slot, raises
        ParseError; else the first out that names none does.
        """
        if self.expect:
            _, tok, lineno = min((named for waits in self.expect.values() for named in waits),
                                 key=lambda named: (named[2], named[0][1]))
            _port(tok, lineno, self.links)  # raises
        table, (lineno, toks) = self.table, outs
        return tuple([table.pop(tok, None) or self.resolve(tok, lineno) for tok in toks])


def _fed(slice_, cat):
    """The checker fed each link of the built ``slice_`` in written order, its place standing
    for its line.  An axiom on an arrow the category lacks, and a plus link whose other side
    is nested deeper than the parser reads or may not stand under +, are labelling's faults,
    in the parser's words."""
    open_ = _OpenSlice(cat, False)
    wires, labs, units, table = slice_.wires, open_.labs, open_.units, cat.formula_table()
    sides = set()  # the id of each plus side checked
    for k, (lid, link) in enumerate(slice_.links.items()):
        if type(link) is AxLink:
            if (arrow := link.arrow) in cat.arrows:
                labs[(lid, 0)], labs[(lid, 1)] = _axiom(cat, arrow, table)[1]
                open_.add(lid, link)
            else:
                open_.hold(_LABELS, 0, NetError, f"unknown arrow {arrow!r}")
        elif type(link) is UnitLink:
            labs[(lid, 0)], units[lid] = _UNIT, k
            open_.add(lid, link)
        elif type(link) is CutLink:
            try:
                want = cut_inputs(link, cat)
            except NetError as exc:  # raised in the cuts' turn: it takes nothing
                want = None
                open_.hold(_CUTS, k, NetError, *exc.args)
            open_.cut(lid, (link, want), wires[(lid, 0)], wires[(lid, 1)], k)
        else:
            if link.n_in == 1 and id(link.other) not in sides:  # a plus link's other side, once
                sides.add(id(link.other))  # by identity: a hash would walk it at any depth
                if _too_deep(link.other):
                    open_.hold(_LABELS, 0, NetError, f"formula nested deeper than {MAX_DEPTH}")
                else:
                    try:
                        _validate(link.other, "+", cat, set())
                    except FormulaError as exc:
                        open_.hold(_LABELS, 0, NetError, *exc.args)
            open_.add(lid, link, wires[(lid, 0)], wires.get((lid, 1)))  # a plus link has no 1
    return open_


def _no_slice_under_zero(net):
    if net.slices and Zero() in net.conclusions:
        raise NetError("a net with conclusion 0 must have no slices")


def validate_net(net):
    """Well-formedness of a net built in code: its wiring, then every check ``parse_net``
    makes, by the same checker.  Changes nothing it checks."""
    for f in net.conclusions:
        validate(f, net.cat)
    _no_slice_under_zero(net)
    for s in net.slices:
        validate_wiring(s)
        _raise(_fed(s, net.cat).end(s, net.conclusions))


# ---------------------------------------------------------------------------
# programmatic construction


class SliceBuilder:
    """Accumulates the links and wires of one slice, producers first.

    ``add`` makes a link over ports that already exist, so a slice is built
    from its axioms up: ``realize_choices`` builds the link tree under one
    conclusion over the axiom ports it is given, picking a branch at every
    plus.  Ids count up per prefix: ``a`` axioms, ``#c`` cuts, ``t`` times,
    ``p`` plus and ``u`` unit links.
    """

    def __init__(self):
        self.links = {}
        self.wires = {}
        self.counts = {}

    def fresh(self, prefix):
        n = self.counts.get(prefix, 0)
        self.counts[prefix] = n + 1
        return f"{prefix}{n}"

    def add(self, prefix, link, *inputs):
        """A link with a fresh id, input k wired from port ``inputs[k]``; returns its id."""
        lid = self.fresh(prefix)
        self.links[lid] = link
        for k, port in enumerate(inputs):
            self.wires[(lid, k)] = port
        return lid

    def realize_choices(self, formula, choices, leaves):
        """The port of a tree for ``formula``, following an iterator of plus bits.

        A bit True picks the right side of its sum.  Each atom leaf, left to
        right, takes the next port of the iterator ``leaves``; links are made
        bottom-up, so their ids count up in post-order.
        """
        match formula:
            case Unit():
                return self.add("u", _UNIT_LINK), 0
            case Atom(_) | DualAtom(_):
                return next(leaves)
            case Tensor(l, r):
                below_l = self.realize_choices(l, choices, leaves)
                below_r = self.realize_choices(r, choices, leaves)
                return self.add("t", _TIMES_LINK, below_l, below_r), 0
            case Plus(l, r):
                if next(choices):
                    return self.add("p", Plus2Link(l), self.realize_choices(r, choices, leaves)), 0
                return self.add("p", Plus1Link(r), self.realize_choices(l, choices, leaves)), 0
        raise AssertionError(f"cannot realize {formula!r}")

    def add_loop(self, cat, loop):
        """A closed loop: an axiom for the endo plus an identity cut."""
        lid = self.add("a", AxLink(loop.arrow))
        self.add("#c", CutLink(arrow=cat.identity(loop.obj)), (lid, 1), (lid, 0))


# ---------------------------------------------------------------------------
# parsing


def _link_id(lid, lineno, links):
    """Raise unless ``lid``, already stripped, is a new link id for the open slice.

    The parser calls it only for an id that is taken or is not an identifier.
    """
    if not lid or _BAD_ID.search(lid):
        raise ParseError(lineno, f"bad link id {lid!r}")
    if lid in links:
        raise ParseError(lineno, f"duplicate link id {lid!r}")


def _port(tok, lineno, links):
    """The port ``lid.slot`` that ``tok``, on line ``lineno``, names: an output of ``links``."""
    tok = tok.strip()
    lid, dot, slot = tok.rpartition(".")
    slot = parse_nat(slot if dot else "", lineno, f"bad port {tok!r}")
    lid = lid.strip()
    if lid not in links:
        raise ParseError(lineno, f"unknown link {lid!r}")
    if slot >= links[lid].n_out:
        raise ParseError(lineno, f"link {lid} has no output {slot}")
    return lid, slot


def parse_net(text, cat):
    """Parse and check a net file against a category.

    Each slice is read in one pass: each line is read and fed to the slice's checker
    (``_OpenSlice``).  What a text means over ``cat`` is kept in the category's formula
    table once it is checked, so no text is read twice, in this call or any other over
    ``cat``: each formula text (equal subformulas are one node), and, keyed by the line's
    head and the text as written, each arrow, cut label, plus side and conclusions line.
    Links are values, so over one category one serves all axioms of one arrow, one all
    plus links of one kind over one side text, and one all times links and all unit
    links.  A label meets its conclusion by identity below the nodes ``settle`` builds.
    """
    name = conclusions = None
    read = cat.formula_table()  # what each text read and checked over cat means
    slices, faults = [], []  # each slice, and the first fault of its uses, outs, units and cuts
    links = None  # the open slice's producing links, else None
    cut_count = 0
    for lineno, head, rest in directives(text):
        if head in ("ax", "cut", "times", "plus1", "plus2", "unit", "out"):
            if links is None:
                raise ParseError(lineno, f"{head} outside slice")
            if head == "ax":
                lid, colon, arrow = rest.partition(":")
                if not colon:
                    raise ParseError(lineno, "expected 'ax id : f'")
                if (ax := read.get(("ax", arrow))) is None:
                    norm = " ".join(arrow.split())
                    if norm not in cat.arrows:
                        raise ParseError(lineno, f"unknown arrow {norm!r}")
                    ax = read[("ax", arrow)] = _axiom(cat, norm, read)
                if not (lid := lid.strip()).isidentifier() or lid in links:
                    _link_id(lid, lineno, links)
                table[f"{lid}.0"] = p0 = (lid, 0)
                table[f"{lid}.1"] = p1 = (lid, 1)
                labs[p0], labs[p1] = ax[1]
                add(lid, ax[0])
            elif head == "cut":
                body, colon, label = rest.rpartition(":")
                if not colon:
                    raise ParseError(lineno, "expected 'cut p , q : label'")
                ports = split_top(body, ",", lineno)
                if len(ports) != 2:
                    raise ParseError(lineno, "cut takes exactly two ports")
                tok0, tok1 = ports
                if (labelled := read.get(("cut", label))) is None:
                    norm = " ".join(label.split())
                    if norm == "id":
                        labelled = _ID_CUT
                    elif norm in cat.arrows:
                        labelled = (link := CutLink(arrow=norm)), cut_inputs(link, cat)
                    else:
                        raise ParseError(lineno, f"unknown cut label {norm!r}")
                    labelled = read[("cut", label)] = read.setdefault(("cut", norm), labelled)
                cid = f"#c{cut_count}"
                cut_count += 1
                p0 = table.pop(tok0, None) or miss((cid, 0), tok0, lineno)
                p1 = table.pop(tok1, None) or miss((cid, 1), tok1, lineno)
                cut(cid, labelled, p0, p1, lineno)
            elif head == "times":
                lid, eq, ports = rest.partition("=")
                if not eq:
                    raise ParseError(lineno, "expected 'times id = p q'")
                toks = ports.split()
                if len(toks) != 2 or toks[1][0] == ".":  # `a .0` is `a.0`, as in _port
                    toks = _SPACED_DOT.sub("", ports).split()
                if len(toks) != 2:
                    raise ParseError(lineno, "times takes exactly two ports")
                if not (lid := lid.strip()).isidentifier() or lid in links:
                    _link_id(lid, lineno, links)
                p0 = table.pop(toks[0], None) or miss((lid, 0), toks[0], lineno)
                p1 = table.pop(toks[1], None) or miss((lid, 1), toks[1], lineno)
                table[f"{lid}.0"] = (lid, 0)
                add(lid, _TIMES_LINK, p0, p1)
            elif head in ("plus1", "plus2"):
                lid, eq, body = rest.partition("=")
                if not eq or "|" not in body:
                    raise ParseError(lineno, f"expected '{head} id = ... | ...'")
                lhs, _, rhs = body.partition("|")
                if not (lid := lid.strip()).isidentifier() or lid in links:
                    _link_id(lid, lineno, links)
                other, tok = (lhs, rhs) if head == "plus2" else (rhs, lhs)
                if (link := read.get((head, other))) is None:
                    if type(side := _text_node(other.strip(), cat, lineno, read)) is Zero:
                        raise ParseError(lineno, "0 may only appear as a whole formula")
                    kind = Plus2Link if head == "plus2" else Plus1Link
                    link = read[(head, other)] = kind(side)
                tok = tok.strip()
                p0 = table.pop(tok, None) or miss((lid, 0), tok, lineno)
                table[f"{lid}.0"] = (lid, 0)
                add(lid, link, p0)
            elif head == "unit":
                if not rest.isidentifier() or rest in links:
                    _link_id(rest, lineno, links)
                table[f"{rest}.0"] = p0 = (rest, 0)
                labs[p0], units[rest] = _UNIT, lineno
                add(rest, _UNIT_LINK)
            else:  # out
                if outs is not None:
                    raise ParseError(lineno, "duplicate out line")
                outs = (lineno, split_top(rest, ",", lineno) if rest else ())
        elif head == "end" and not rest:
            if links is None:
                raise ParseError(lineno, "end outside slice")
            if outs is None:
                raise ParseError(lineno, "slice has no out line")
            s = Slice(links, open_.wires, open_.read_outs(outs))
            slices.append(s)
            faults.append(open_.end(s, conclusions))
            links.update(open_.cuts)  # a slice lists its cuts after its producers
            links = None
        elif head == "slice" and not rest:
            if conclusions is None:
                raise ParseError(lineno, "slice before conclusions")
            if links is not None:
                raise ParseError(lineno, "nested slice")
            open_ = _OpenSlice(cat, True)
            links, table, labs = open_.links, open_.table, open_.labs
            units, outs = open_.units, None
            add, cut, miss = open_.add, open_.cut, open_.miss
        elif head == "net":
            if name is not None:
                raise ParseError(lineno, "duplicate net line")
            name = rest
        elif head == "conclusions":
            if conclusions is not None:
                raise ParseError(lineno, "duplicate conclusions line")
            if (conclusions := read.get(("conclusions", rest))) is None:
                parts = split_top(rest, ",", lineno) if rest else ()
                conclusions = tuple(_text_node(part, cat, lineno, read) for part in parts)
                read[("conclusions", rest)] = conclusions
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if links is not None:
        raise ParseError(len(text.splitlines()), "unterminated slice")
    if name is None:
        raise ParseError(1, "missing net line")
    if conclusions is None:
        raise ParseError(1, "missing conclusions line")

    net = Net(name, conclusions, tuple(slices), cat)
    _no_slice_under_zero(net)
    for fault in faults:
        _raise(fault)
    return net


# ---------------------------------------------------------------------------
# printing


def _fmt_port(port):
    return f"{port[0]}.{port[1]}"


def print_net(net):
    out = [f"net {net.name}"]
    concl = " , ".join(fmt(f) for f in net.conclusions)
    out.append(f"conclusions {concl}".rstrip())
    for s in net.slices:
        out.append("slice")
        for lid in topo_order(s):
            link = s.links[lid]
            if isinstance(link, AxLink):
                out.append(f"  ax {lid} : {link.arrow}")
            elif isinstance(link, UnitLink):
                out.append(f"  unit {lid}")
            elif isinstance(link, TimesLink):
                p0, p1 = s.wires[(lid, 0)], s.wires[(lid, 1)]
                out.append(f"  times {lid} = {_fmt_port(p0)} {_fmt_port(p1)}")
            else:  # plus
                port, other = _fmt_port(s.wires[(lid, 0)]), fmt(link.other)
                body = f"{other} | {port}" if link.right else f"{port} | {other}"
                out.append(f"  plus{1 + link.right} {lid} = {body}")
        cuts = [lid for lid, link in s.links.items() if isinstance(link, CutLink)]
        for lid in sorted(sorted(cuts), key=len):  # in number order: #c9 before #c10
            p0, p1, f = s.wires[(lid, 0)], s.wires[(lid, 1)], s.links[lid].arrow
            out.append(f"  cut {_fmt_port(p0)} , {_fmt_port(p1)} : {'id' if f is None else f}")
        ports = " , ".join(_fmt_port(p) for p in s.outs)
        out.append(f"  out {ports}".rstrip())
        out.append("end")
    return "\n".join(out) + "\n"


def _dot_str(text):
    """A DOT quoted string: backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(net):
    """GraphViz rendering: one cluster per slice, shared conclusion anchors."""
    lines = ["digraph net {", "  rankdir=BT;"]
    for k, f in enumerate(net.conclusions):
        lines.append(f"  concl_{k} [shape=box, label={_dot_str(fmt(f))}];")
    for si, s in enumerate(net.slices):
        ids = {lid: n for n, lid in enumerate(sorted(s.links))}
        lines.append(f"  subgraph cluster_{si} {{")
        lines.append(f'    label="slice {si}";')
        labs = labels(s, net.cat)
        for lid, link in s.links.items():
            if isinstance(link, AxLink):
                text = f"ax {lid}: {link.arrow}"
            elif isinstance(link, CutLink):
                text = f"cut: {link.arrow if link.arrow else 'id ' + fmt(link.formula)}"
            elif isinstance(link, TimesLink):
                text = f"times {lid}"
            elif isinstance(link, PlusLink):
                text = f"plus{1 + link.right} {lid} | {fmt(link.other)}"
            else:
                text = f"unit {lid}"
            lines.append(f"    s{si}_n{ids[lid]} [label={_dot_str(text)}];")
        for inp, outp in s.wires.items():
            lines.append(
                f"    s{si}_n{ids[outp[0]]} -> s{si}_n{ids[inp[0]]} "
                f"[label={_dot_str(fmt(labs[outp]))}];"
            )
        lines.append("  }")
        for k, port in enumerate(s.outs):
            lines.append(f"  s{si}_n{ids[port[0]]} -> concl_{k} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
