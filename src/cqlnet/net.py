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
``labels`` reads each output's formula off its inputs' in the order the links
are written, holding a link back only until its inputs have labels, and a
``SliceBuilder`` makes each link over ports that already exist.  ``topo_order``
sorts the links producers first for ``print_net``.  Only ``parse_net`` and
``validate_net`` check a net; what a builder makes is not.
The parser reads the wiring line by line, taking each port out of a table of
outputs, and compares arrow cuts as it orients them, by identity: axiom labels
and arrow cuts share the category's atoms.  It reads formulas through the
category's formula table, so the nets parsed over one category share their
formulas' nodes.  ``validate_wiring`` checks a built net's wiring.
``validate_uses`` counts output uses: of a built net, and of a parsed slice
whose table did not end empty with each output taken once.
Both then run the typed pass ``validate_slice``: outs, conclusions, units, unchecked cuts.
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


def labels(slice_, cat):
    """Formula label of every output port, built producers first in written order.

    A link waits on the link of an input with no label yet, until that is labelled;
    one still waiting at the end lies on a cycle.  Raises NetError on cyclic wiring,
    and on a label built by more than ``MAX_DEPTH`` nested times and plus links: the
    parser bounds the formulas it reads, and this bounds the ones a slice builds,
    before any recursive walker meets them.  Atom labels are the category's shared ones.
    """
    labs, depth = {}, {}  # port -> its label, and the times and plus links nested in it (absent: 0)
    pairs = {}  # arrow -> the labels of its axioms' outputs 0 and 1, from the category's atoms
    atoms = cat.atoms
    waiting = {}  # a link not labelled yet -> the links that wait on it
    links, wires, todo = slice_.links, slice_.wires, []
    for lid in links:
        todo.append(lid)
        while todo:
            link = links[lid := todo.pop()]
            if isinstance(link, AxLink):
                if (pair := pairs.get(link.arrow)) is None:
                    f = link.arrow
                    pair = pairs[f] = atoms[cat.dom(f)][1], atoms[cat.cod(f)][0]
                labs[(lid, 0)], labs[(lid, 1)] = pair
            elif isinstance(link, UnitLink):
                labs[(lid, 0)] = Unit()
            elif not isinstance(link, CutLink):  # a times or plus link
                p0 = wires[(lid, 0)]
                p1 = wires[(lid, 1)] if link.n_in == 2 else p0
                if p0 not in labs or p1 not in labs:
                    waiting.setdefault((p1 if p0 in labs else p0)[0], []).append(lid)
                    continue
                if isinstance(link, TimesLink):
                    l0, l1 = labs[p0], labs[p1]
                    if isinstance(l0, Unit) or isinstance(l1, Unit):
                        raise NetError(f"times {lid}: I may not appear under x")
                    out, d = Tensor(l0, l1), 1 + max(depth.get(p0, 0), depth.get(p1, 0))
                else:  # a plus link
                    out = Plus(link.other, labs[p0]) if link.right else Plus(labs[p0], link.other)
                    d = 1 + depth.get(p0, 0)
                if d > MAX_DEPTH:
                    raise NetError(f"link {lid}: label nested deeper than {MAX_DEPTH}")
                labs[(lid, 0)], depth[(lid, 0)] = out, d
            if waiting:
                todo += waiting.pop(lid, ())
    if waiting:
        raise NetError("cyclic wiring")
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
            raise NetError(f"out lists unknown port {port}")
        seen_out[port] += 1
    for port, n in seen_out.items():
        if n != 1:
            raise NetError(f"port {port[0]}.{port[1]} used {n} times, want exactly 1")


def validate_slice(slice_, cat, conclusions, labs, cuts=None):
    """The typed checks of a slice that passed ``validate_uses``, with labels ``labs``.

    Outs carry the conclusions; each unit feeds a plus or an id cut on I; each cut in
    ``cuts`` (all if None) gets what it takes.
    """
    links, wires = slice_.links, slice_.wires
    if len(slice_.outs) != len(conclusions):
        raise NetError(f"slice has {len(slice_.outs)} conclusions, net declares {len(conclusions)}")
    for port, want in zip(slice_.outs, conclusions):
        got = labs[port]
        if got != want:
            raise NetError(f"conclusion mismatch: {fmt(got)} at {port[0]}.{port[1]}, want {fmt(want)}")

    units = [lid for lid, link in links.items() if isinstance(link, UnitLink)]
    rev = slice_.consumers() if units else None
    for lid in units:
        consumer = rev.get((lid, 0))
        if consumer is None:
            raise NetError(f"unit {lid} feeds a conclusion; I must meet a plus or id cut")
        clink = links[consumer[0]]
        if not (isinstance(clink, PlusLink) or isinstance(clink, CutLink) and clink.formula == Unit()):
            raise NetError(f"unit {lid} must feed a plus link or an id cut on I")
    if cuts is None:
        cuts = [lid for lid, link in links.items() if isinstance(link, CutLink)]
    for cid in cuts:
        link = links[cid]
        got = labs[wires[(cid, 0)]], labs[wires[(cid, 1)]]
        if got != cut_inputs(link, cat):
            label = link.arrow if link.arrow is not None else f"id {fmt(link.formula)}"
            raise NetError(f"cut {label}: inputs {fmt(got[0])}, {fmt(got[1])} do not match")


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
    """A port ``lid.slot`` written on line ``lineno``, of a link in ``links``."""
    tok = tok.strip()
    lid, dot, slot = tok.rpartition(".")
    slot = parse_nat(slot if dot else "", lineno, f"bad port {tok!r}")
    lid = lid.strip()
    if lid not in links:
        raise ParseError(lineno, f"unknown link {lid!r}")
    return lid, slot


def _resolve_slice(cat, links, pending, cuts, outs):
    """The slice, its labels, its arrow cuts that match in neither order, and whether each
    output is used once, at its ``end`` line.

    A port spelled ``lid.slot`` is taken out of one table, so a second use, like any other
    spelling, comes from ``_port``.  An arrow cut comes as (link, ``cut_inputs``), an id cut
    as None; each is stored plain side first.
    """
    named = {f"{lid}.{slot}": (lid, slot) for lid, link in links.items() for slot in range(link.n_out)}
    n_ports, wires = len(named), {}
    for inp, (tok, ln) in pending.items():
        if (port := named.pop(tok, None)) is None:
            port = _port(tok, ln, links)
            if port[1] >= links[port[0]].n_out:
                raise ParseError(ln, f"link {port[0]} has no output {port[1]}")
        wires[inp] = port
    ln, toks = outs
    s = Slice(links, wires, tuple(named.pop(tok, None) or _port(tok, ln, links) for tok in toks))
    once = not named and len(wires) + len(toks) == n_ports
    labs = labels(s, cat)
    unmatched = []
    for cid, arrow_cut, ln in cuts:
        p0, p1 = wires[(cid, 0)], wires[(cid, 1)]
        l0, l1 = labs[p0], labs[p1]
        if arrow_cut is None:  # labelled id
            if star(l0) != l1:
                raise ParseError(ln, f"id cut inputs {fmt(l0)}, {fmt(l1)} are not dual")
            links[cid], wires[(cid, 0)], wires[(cid, 1)] = id_cut(cat, l0, p0, p1)
            continue
        links[cid], want = arrow_cut
        if (l0, l1) == want:
            continue
        if (l1, l0) == want:  # written starred side first
            wires[(cid, 0)], wires[(cid, 1)] = p1, p0
        else:
            unmatched.append(cid)
    return s, labs, unmatched, once


def parse_net(text, cat):
    """Parse and check a net file against a category.

    Formulas are read through the category's formula table, so equal subformulas are one
    node and no formula text is parsed twice, in this call or any other over ``cat``; per
    call, axioms for one arrow are one ``AxLink``.  A label meets its conclusion by identity
    below the nodes ``labels`` builds.
    """
    name = conclusions = None
    read = cat.formula_table()  # formula text -> its checked node, and the shared nodes
    axioms = {}  # arrow text, as written and normalized -> its AxLink
    # cut label, as written and normalized -> its CutLink and what that takes; None for id
    arrow_cuts = {"id": None}
    slices = []  # what _resolve_slice gives per slice, checked once the whole net is read
    links = None  # the open slice's links (with its pending wires, cuts and outs), else None
    cut_count = 0
    for lineno, head, rest in directives(text):
        if head in ("ax", "cut", "times", "plus1", "plus2", "unit", "out"):
            if links is None:
                raise ParseError(lineno, f"{head} outside slice")
            if head == "ax":
                lid, colon, arrow = rest.partition(":")
                if not colon:
                    raise ParseError(lineno, "expected 'ax id : f'")
                if (link := axioms.get(arrow)) is None:
                    norm = " ".join(arrow.split())
                    if norm not in cat.arrows:
                        raise ParseError(lineno, f"unknown arrow {norm!r}")
                    link = axioms[arrow] = axioms.setdefault(norm, AxLink(norm))
                if not (lid := lid.strip()).isidentifier() or lid in links:
                    _link_id(lid, lineno, links)
                links[lid] = link
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
                cuts.append((cid, arrow_cuts[label], lineno))
                pending[(cid, 0)], pending[(cid, 1)] = (ports[0], lineno), (ports[1], lineno)
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
                links[lid] = TimesLink()
                pending[(lid, 0)], pending[(lid, 1)] = (toks[0], lineno), (toks[1], lineno)
            elif head in ("plus1", "plus2"):
                lid, eq, body = rest.partition("=")
                if not eq or "|" not in body:
                    raise ParseError(lineno, f"expected '{head} id = ... | ...'")
                lhs, _, rhs = body.partition("|")
                if not (lid := lid.strip()).isidentifier() or lid in links:
                    _link_id(lid, lineno, links)
                kind = Plus2Link if head == "plus2" else Plus1Link
                other, port_tok = (lhs, rhs) if kind.right else (rhs, lhs)
                links[lid] = kind(_text_node(other.strip(), cat, lineno, read))
                pending[(lid, 0)] = (port_tok.strip(), lineno)
            elif head == "unit":
                if not rest.isidentifier() or rest in links:
                    _link_id(rest, lineno, links)
                links[rest] = UnitLink()
            else:  # out
                if outs is not None:
                    raise ParseError(lineno, "duplicate out line")
                outs = (lineno, split_top(rest, ",", lineno) if rest else ())
        elif head == "end" and not rest:
            if links is None:
                raise ParseError(lineno, "end outside slice")
            if outs is None:
                raise ParseError(lineno, "slice has no out line")
            slices.append(_resolve_slice(cat, links, pending, cuts, outs))
            links = None
        elif head == "slice" and not rest:
            if conclusions is None:
                raise ParseError(lineno, "slice before conclusions")
            if links is not None:
                raise ParseError(lineno, "nested slice")
            links, pending, cuts, outs = {}, {}, [], None
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

    net = Net(name, conclusions, tuple(s for s, *_ in slices), cat)
    _no_slice_under_zero(net)
    for s, labs, unmatched, once in slices:
        if not once:
            validate_uses(s)
        validate_slice(s, cat, conclusions, labs, unmatched)
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
