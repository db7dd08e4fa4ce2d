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

Slices are typed and built producers first, as proof structures are:
``_settle`` gives a link its output's label once its inputs have theirs,
holding it back until then, and a ``SliceBuilder`` makes each link over ports
that already exist.  ``topo_order`` sorts the links producers first for
``print_net``.  Only ``parse_net`` and ``validate_net`` check a net; what a
builder makes is not.

The parser reads each slice in one pass (``_OpenSlice``), as ``print_net``
writes it: each producing line puts its outputs in the slice's table of unused
outputs, each port is taken out of that table at the line that names it, and
each link is labelled, each cut oriented and checked, and each unit checked at
its consumer, at their lines.  A port named before its link is written, or
spelled another way, and whatever waits on it, is finished through the same
code once that is read, or at ``end``.  Arrow cuts compare by identity: axiom
labels and arrow cuts share the category's atoms.  Formulas are read through
the category's formula table, so the nets parsed over one category share their
formulas' nodes.  A fault is raised where the checks' order puts it, not where
it was found: a slice's ports, labels and id cuts at its ``end`` line, its
output uses, outs, units and arrow cuts once the whole net is read.

``validate_net`` checks a built net: ``validate_wiring``, then ``labels`` (one
``_settle`` per link in written order), ``validate_uses`` and
``validate_slice``.  The parser counts output uses with ``validate_uses`` only
when its table did not end empty with each output taken once.  The two share
each rule and error text: ``_settle``, ``_check_outs``, ``_unit_fault``,
``_cut_fault``.
"""

from __future__ import annotations

import re

from .errors import NetError, ParseError
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


def _ax_labels(cat, arrow):
    """The labels of an axiom's outputs 0 and 1: the category's shared atoms dom(f)* and cod(f)."""
    atoms = cat.atoms
    return atoms[cat.dom(arrow)][1], atoms[cat.cod(arrow)][0]


_UNIT = Unit()  # the label of every unit link's output


def _settle(todo, links, wires, labs, depth, waiting):
    """Label each link of ``todo`` (taken from its end) that can be, then the links waiting on it.

    An axiom or unit comes labelled.  A times or plus link whose inputs have labels gets its
    output's; one with an input unlabelled waits on that input's link, the first input's if
    both are.  Raises NetError on a times link over I and on a label built by more than
    ``MAX_DEPTH`` nested times and plus links: the parser bounds the formulas it reads, and
    this bounds the ones a slice builds, before any recursive walker meets them.
    """
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
                    raise NetError(f"times {lid}: I may not appear under x")
                out, d = Tensor(l0, l1), 1 + max(depth.get(p0, 0), depth.get(p1, 0))
            else:
                out = Plus(link.other, labs[p0]) if link.right else Plus(labs[p0], link.other)
                d = 1 + depth.get(p0, 0)
            if d > MAX_DEPTH:
                raise NetError(f"link {lid}: label nested deeper than {MAX_DEPTH}")
            labs[(lid, 0)], depth[(lid, 0)] = out, d
        if waiting:
            todo += waiting.pop(lid, ())


def _none_waiting(waiting):
    """Raise unless every link got its label: one still waiting lies on a cycle, or above one."""
    if waiting:
        raise NetError("cyclic wiring")


def labels(slice_, cat):
    """Formula label of every output port, built producers first in written order.

    A link waits on the link of an input with no label yet, until that is labelled
    (``_settle``).  Raises NetError on cyclic wiring and on the faults ``_settle`` finds.
    Atom labels are the category's shared ones.
    """
    # port -> its label, and the times and plus links nested in it; link -> what waits on it
    labs, depth, waiting = {}, {}, {}
    pairs = {}  # arrow -> its axioms' output labels
    links, wires = slice_.links, slice_.wires
    for lid, link in links.items():
        if type(link) is CutLink:
            continue
        if type(link) is AxLink:
            if (pair := pairs.get(link.arrow)) is None:
                pair = pairs[link.arrow] = _ax_labels(cat, link.arrow)
            labs[(lid, 0)], labs[(lid, 1)] = pair
        elif type(link) is UnitLink:
            labs[(lid, 0)] = _UNIT
        _settle([lid], links, wires, labs, depth, waiting)
    _none_waiting(waiting)
    return labs


def cut_inputs(link, cat):
    """The labels a cut expects on input 0 (plain side) and input 1 (starred side)."""
    if link.arrow is not None:
        return cat.atoms[cat.dom(link.arrow)][0], cat.atoms[cat.cod(link.arrow)][1]
    return link.formula, star(link.formula)


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


def validate_wiring(slice_):
    """Each input of a slice built in code is wired once, from an output that exists."""
    links, wires = slice_.links, slice_.wires
    want_in = {(lid, slot) for lid, link in links.items() for slot in range(link.n_in)}
    if wires.keys() != want_in:
        missing, extra = want_in - wires.keys(), wires.keys() - want_in
        raise NetError(f"bad wiring: missing inputs {sorted(missing)}, stray {sorted(extra)}")
    ports = {(lid, slot) for lid, link in links.items() for slot in range(link.n_out)}
    for inp, outp in wires.items():
        if outp not in ports:
            raise NetError(f"wire into {inp} from unknown port {outp}")


def validate_uses(slice_):
    """Outs name outputs of a slice with sound wiring, and each output is used once."""
    seen_out = {(lid, slot): 0 for lid, link in slice_.links.items() for slot in range(link.n_out)}
    for port in (*slice_.wires.values(), *slice_.outs):
        if port not in seen_out:  # only an out can name no output: the wiring is sound
            raise NetError(f"out lists unknown port {_fmt_port(port)}")
        seen_out[port] += 1
    for port, n in seen_out.items():
        if n != 1:
            raise NetError(f"port {_fmt_port(port)} used {n} times, want exactly 1")


def _check_outs(outs, labs, conclusions):
    """The outs, with labels ``labs``, carry the conclusions."""
    if len(outs) != len(conclusions):
        raise NetError(f"slice has {len(outs)} conclusions, net declares {len(conclusions)}")
    for port, want in zip(outs, conclusions):
        got = labs[port]
        if got != want:
            raise NetError(
                f"conclusion mismatch: {fmt(got)} at {_fmt_port(port)}, want {fmt(want)}"
            )


def _unit_fault(lid, consumer):
    """The NetError of unit ``lid`` feeding ``consumer`` (None: a conclusion), if it may not."""
    if consumer is None:
        return NetError(f"unit {lid} feeds a conclusion; I must meet a plus or id cut")
    if not isinstance(consumer, PlusLink) and not (
        isinstance(consumer, CutLink) and consumer.formula == _UNIT
    ):
        return NetError(f"unit {lid} must feed a plus link or an id cut on I")
    return None


def _cut_fault(link, got):
    """The NetError of a cut whose inputs have the labels ``got``, which it does not take."""
    label = link.arrow if link.arrow is not None else f"id {fmt(link.formula)}"
    return NetError(f"cut {label}: inputs {fmt(got[0])}, {fmt(got[1])} do not match")


def validate_slice(slice_, cat, conclusions, labs):
    """The typed checks of a slice that passed ``validate_uses``, with labels ``labs``.

    Outs carry the conclusions; each unit feeds a plus or an id cut on I; each cut gets
    what it takes.
    """
    links, wires = slice_.links, slice_.wires
    _check_outs(slice_.outs, labs, conclusions)
    units = [lid for lid, link in links.items() if isinstance(link, UnitLink)]
    rev = slice_.consumers() if units else None
    for lid in units:
        consumer = rev.get((lid, 0))
        if fault := _unit_fault(lid, consumer and links[consumer[0]]):
            raise fault
    for cid, link in links.items():
        if isinstance(link, CutLink):
            got = labs[wires[(cid, 0)]], labs[wires[(cid, 1)]]
            if got != cut_inputs(link, cat):
                raise _cut_fault(link, got)


def _no_slice_under_zero(net):
    if net.slices and Zero() in net.conclusions:
        raise NetError("a net with conclusion 0 must have no slices")


def validate_net(net):
    """Well-formedness of a net built in code: every check ``parse_net`` makes, and the wiring."""
    for f in net.conclusions:
        validate(f, net.cat)
    _no_slice_under_zero(net)
    for s in net.slices:
        validate_wiring(s)
        labs = labels(s, net.cat)
        validate_uses(s)
        validate_slice(s, net.cat, net.conclusions, labs)


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
                return self.add("u", UnitLink()), 0
            case Atom(_) | DualAtom(_):
                return next(leaves)
            case Tensor(l, r):
                below_l = self.realize_choices(l, choices, leaves)
                below_r = self.realize_choices(r, choices, leaves)
                return self.add("t", TimesLink(), below_l, below_r), 0
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


class _OpenSlice:
    """The slice ``parse_net`` is reading, between its ``slice`` and ``end`` lines.

    What a line cannot finish waits, and is finished through the same code: a times or
    plus input named before its link is written, at that link's line (``miss``,
    ``written``); a link over an input with no label yet, once it has one (``_settle``);
    a cut's port that the table does not hold, and a cut over an unlabelled port, at
    ``end``.
    """

    __slots__ = ("cat", "links", "cuts", "wires", "table", "labs", "depth", "waiting",
                 "expect", "unread", "late_cuts", "spelled", "bad_cut", "unmatched", "unit_faults")

    def __init__(self, cat):
        self.cat = cat
        self.links, self.cuts, self.wires = {}, {}, {}  # producers; cut id -> link; input -> port
        self.table = {}  # `lid.slot` -> that output, until a use takes it
        self.labs, self.depth, self.waiting = {}, {}, {}  # what _settle keeps
        self.expect = {}  # link id -> each unresolved (input, token, line) of a times or plus
        self.unread = []  # each (input, token, line) of a cut not in the table at its line
        self.late_cuts = []  # each (cut id, label, line) not oriented at its line
        self.spelled = False  # a use took its port other than out of the table
        self.bad_cut = None  # the ParseError of the first id cut, by line, that is not dual
        self.unmatched = None  # (line, cut id) of the first arrow cut matching in neither order
        self.unit_faults = {}  # unit id -> the NetError of where its output goes

    def miss(self, inp, tok, lineno):
        """The port of a times or plus input ``inp``, written ``tok``, that the table does not hold.

        A port of a link already read is resolved now.  Any other is ``(lid, None)``, no port,
        until its link's line, so that its link waits on that one's label as ``_settle`` has it.
        """
        lid = tok.rpartition(".")[0].strip()
        if lid in self.links and (port := self.resolve(tok, lineno, True)) is not None:
            return port
        self.expect.setdefault(lid, []).append((inp, tok, lineno))
        return lid, None

    def written(self, lid):
        """Resolve the ports named before link ``lid``'s line, whose outputs are in the table now.

        One that names no output of it stays in ``expect``, as one whose link is never
        written does, and raises at end.
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

    def orient(self, cid, arrow_cut, lineno):
        """Check and orient a cut whose inputs have labels, unless it is an arrow cut that
        takes them as written: plain side on input 0.

        ``arrow_cut`` is an arrow cut's link and ``cut_inputs``, None for a labelled id.
        """
        wires, labs = self.wires, self.labs
        p0, p1 = wires[(cid, 0)], wires[(cid, 1)]
        l0, l1 = labs[p0], labs[p1]
        if arrow_cut is None:
            if star(l0) != l1:
                if self.bad_cut is None or lineno < self.bad_cut.lineno:
                    self.bad_cut = ParseError(
                        lineno, f"id cut inputs {fmt(l0)}, {fmt(l1)} are not dual"
                    )
            else:
                self.cuts[cid], wires[(cid, 0)], wires[(cid, 1)] = id_cut(self.cat, l0, p0, p1)
            return
        link, want = arrow_cut
        if (l1, l0) == want:  # written starred side first
            wires[(cid, 0)], wires[(cid, 1)] = p1, p0
            return
        if self.unmatched is None or lineno < self.unmatched[0]:
            self.unmatched = lineno, cid
        for port, lab in ((p0, l0), (p1, l1)):
            if type(lab) is Unit:  # only a unit's output is labelled I
                self.unit_faults[port[0]] = _unit_fault(port[0], link)

    def end(self, outs, fault, conclusions):
        """The slice and the first fault of its uses, outs, units and arrow cuts, or None.

        Raises what the slice's lines found: a port that names no output, ``fault``
        (labelling's), cyclic wiring, and an id cut that is not dual.
        """
        links, wires, labs = self.links, self.wires, self.labs
        unread, table = self.unread, self.table
        if self.expect:  # times and plus ports that name no output: the first one written raises
            unread = sorted(unread + [named for waits in self.expect.values() for named in waits],
                            key=lambda named: (named[2], named[0][1]))
        for inp, tok, lineno in unread:
            wires[inp] = table.pop(tok, None) or self.resolve(tok, lineno)
        lineno, toks = outs
        outs = tuple([table.pop(tok, None) or self.resolve(tok, lineno) for tok in toks])
        if fault is not None:
            raise fault
        _none_waiting(self.waiting)
        for cid, arrow_cut, lineno in self.late_cuts:
            if arrow_cut is None or (labs[wires[(cid, 0)]], labs[wires[(cid, 1)]]) != arrow_cut[1]:
                self.orient(cid, arrow_cut, lineno)
        if self.bad_cut is not None:
            raise self.bad_cut
        links.update(self.cuts)
        s = Slice(links, wires, outs)
        try:
            if table or self.spelled:  # an output no use took out of the table, or one used twice
                validate_uses(s)
            _check_outs(outs, labs, conclusions)
            for port in outs:
                if type(labs[port]) is Unit:
                    self.unit_faults[port[0]] = _unit_fault(port[0], None)
            if self.unit_faults:
                raise next(self.unit_faults[lid] for lid in links if lid in self.unit_faults)
            if self.unmatched:
                cid = self.unmatched[1]
                raise _cut_fault(links[cid], (labs[wires[(cid, 0)]], labs[wires[(cid, 1)]]))
        except NetError as exc:
            return s, exc
        return s, None


def parse_net(text, cat):
    """Parse and check a net file against a category.

    Each slice is read in one pass (``_OpenSlice``).  Formulas are read through the
    category's formula table, so equal subformulas are one node and no formula text is
    parsed twice, in this call or any other over ``cat``.  Links are values, so one is
    made per call for all axioms of one arrow, all plus links of one kind over one formula
    text, all times links and all unit links.  A label meets its conclusion by identity
    below the nodes ``_settle`` builds.
    """
    name = conclusions = None
    read = cat.formula_table()  # formula text -> its checked node, and the shared nodes
    axioms = {}  # arrow text, as written and normalized -> its AxLink and its outputs' labels
    plus_links = {}  # (plus1 or plus2, other side as written) -> its PlusLink
    times_link, unit_link = TimesLink(), UnitLink()
    # cut label, as written and normalized -> its CutLink and what that takes; None for id
    arrow_cuts = {"id": None}
    slices = []  # each slice, with the fault its checks found
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
                if (ax := axioms.get(arrow)) is None:
                    norm = " ".join(arrow.split())
                    if norm not in cat.arrows:
                        raise ParseError(lineno, f"unknown arrow {norm!r}")
                    ax = (AxLink(norm), _ax_labels(cat, norm))
                    ax = axioms[arrow] = axioms.setdefault(norm, ax)
                if not (lid := lid.strip()).isidentifier() or lid in links:
                    _link_id(lid, lineno, links)
                links[lid] = link = ax[0]
                table[f"{lid}.0"] = p0 = (lid, 0)
                table[f"{lid}.1"] = p1 = (lid, 1)
                labs[p0], labs[p1] = ax[1]
            elif head == "cut":
                body, colon, label = rest.rpartition(":")
                if not colon:
                    raise ParseError(lineno, "expected 'cut p , q : label'")
                ports = split_top(body, ",", lineno)
                if len(ports) != 2:
                    raise ParseError(lineno, "cut takes exactly two ports")
                if label not in arrow_cuts:
                    if (norm := " ".join(label.split())) not in arrow_cuts:
                        if norm not in cat.arrows:
                            raise ParseError(lineno, f"unknown cut label {norm!r}")
                        arrow_cuts[norm] = (link := CutLink(arrow=norm)), cut_inputs(link, cat)
                    arrow_cuts[label] = arrow_cuts[norm]
                cid = f"#c{cut_count}"
                cut_count += 1
                arrow_cut = arrow_cuts[label]
                cuts[cid] = arrow_cut and arrow_cut[0]
                i0, i1 = (cid, 0), (cid, 1)
                if (p0 := table.pop(ports[0], None)) is None:
                    unread.append((i0, ports[0], lineno))
                if (p1 := table.pop(ports[1], None)) is None:
                    unread.append((i1, ports[1], lineno))
                wires[i0], wires[i1] = p0, p1
                if p0 in labs and p1 in labs and fault is None:
                    if arrow_cut is None or (labs[p0], labs[p1]) != arrow_cut[1]:
                        open_.orient(cid, arrow_cut, lineno)
                else:
                    late_cuts.append((cid, arrow_cut, lineno))
                continue
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
                links[lid] = link = times_link
                table[f"{lid}.0"] = (lid, 0)
                if (p0 := table.pop(toks[0], None)) is None:
                    p0 = open_.miss((lid, 0), toks[0], lineno)
                if (p1 := table.pop(toks[1], None)) is None:
                    p1 = open_.miss((lid, 1), toks[1], lineno)
                wires[(lid, 0)], wires[(lid, 1)] = p0, p1
            elif head in ("plus1", "plus2"):
                lid, eq, body = rest.partition("=")
                if not eq or "|" not in body:
                    raise ParseError(lineno, f"expected '{head} id = ... | ...'")
                lhs, _, rhs = body.partition("|")
                if not (lid := lid.strip()).isidentifier() or lid in links:
                    _link_id(lid, lineno, links)
                other, tok = (lhs, rhs) if head == "plus2" else (rhs, lhs)
                if (link := plus_links.get((head, other))) is None:
                    kind = Plus2Link if head == "plus2" else Plus1Link
                    link = kind(_text_node(other.strip(), cat, lineno, read))
                    plus_links[(head, other)] = link
                links[lid] = link
                table[f"{lid}.0"] = (lid, 0)
                if (p0 := table.pop(tok := tok.strip(), None)) is None:
                    p0 = open_.miss((lid, 0), tok, lineno)
                wires[(lid, 0)] = p0
            elif head == "unit":
                if not rest.isidentifier() or rest in links:
                    _link_id(rest, lineno, links)
                links[lid := rest] = link = unit_link
                table[f"{lid}.0"] = p0 = (lid, 0)
                labs[p0] = _UNIT
            else:  # out
                if outs is not None:
                    raise ParseError(lineno, "duplicate out line")
                outs = (lineno, split_top(rest, ",", lineno) if rest else ())
                continue
            # a link with id lid is read: resolve what named it before, then label it
            if expect:
                open_.written(lid)
            if fault is None and (waiting or link.n_in):
                try:
                    _settle([lid], links, wires, labs, depth, waiting)
                except NetError as exc:
                    fault = exc  # raised at end, after the slice's ports
        elif head == "end" and not rest:
            if links is None:
                raise ParseError(lineno, "end outside slice")
            if outs is None:
                raise ParseError(lineno, "slice has no out line")
            slices.append(open_.end(outs, fault, conclusions))
            links = None
        elif head == "slice" and not rest:
            if conclusions is None:
                raise ParseError(lineno, "slice before conclusions")
            if links is not None:
                raise ParseError(lineno, "nested slice")
            open_ = _OpenSlice(cat)
            links, cuts, wires, table = open_.links, open_.cuts, open_.wires, open_.table
            labs, depth, waiting, expect = open_.labs, open_.depth, open_.waiting, open_.expect
            unread, late_cuts, outs, fault = open_.unread, open_.late_cuts, None, None
        elif head == "net":
            if name is not None:
                raise ParseError(lineno, "duplicate net line")
            name = rest
        elif head == "conclusions":
            if conclusions is not None:
                raise ParseError(lineno, "duplicate conclusions line")
            parts = split_top(rest, ",", lineno) if rest else ()
            conclusions = tuple(_text_node(part, cat, lineno, read) for part in parts)
        else:
            raise ParseError(lineno, f"unknown directive {head!r}")
    if links is not None:
        raise ParseError(len(text.splitlines()), "unterminated slice")
    if name is None:
        raise ParseError(1, "missing net line")
    if conclusions is None:
        raise ParseError(1, "missing conclusions line")

    net = Net(name, conclusions, tuple(s for s, _ in slices), cat)
    _no_slice_under_zero(net)
    for _, fault in slices:
        if fault is not None:
            raise fault
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
