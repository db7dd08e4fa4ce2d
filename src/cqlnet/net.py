"""Proof nets: slices of links wired together, with validation and printing.

A net is a finite multiset of slices over a shared conclusion list.  Each
slice is a set of links (axioms, cuts, times, plus, unit) wired output-to-
input, with every dangling output listed in order on the ``out`` line.

Ports are written ``<link id>.<slot>``; axioms have outputs 0 and 1, the
other producing links output 0.  Cuts have no outputs and no written id.
There is one plus kind, ``PlusLink``: its two classes differ only in
``right``, the side of the sum that input 0 fills.  There is one builder of
identity cuts, ``id_cut``, for the parser and for rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .category import Category
from .errors import NetError, ParseError
from .formula import (
    MAX_DEPTH,
    Atom,
    DualAtom,
    Formula,
    Plus,
    Tensor,
    Unit,
    Zero,
    directives,
    fmt,
    parse_formula,
    parse_nat,
    split_top,
    star,
    validate,
)

Port = tuple[str, int]


@dataclass(frozen=True)
class AxLink:
    """Axiom for an arrow f: A -> B; outputs 0: A*, 1: B."""

    n_in: ClassVar[int] = 0
    n_out: ClassVar[int] = 2
    arrow: str


@dataclass(frozen=True)
class CutLink:
    """A cut; either arrow-labelled (atoms) or an identity cut on a formula.

    Exactly one of ``arrow``/``formula`` is set.  Atom-level identity cuts are
    normalized to arrow cuts labelled ``id A``.  Input 0 is the plain side and
    input 1 the starred side: an arrow cut labelled g takes dom(g) on input 0
    and (cod g)* on input 1, a formula cut takes ``formula`` and its dual
    (see ``cut_inputs``).
    """

    n_in: ClassVar[int] = 2
    n_out: ClassVar[int] = 0
    arrow: str | None = None
    formula: Formula | None = None


@dataclass(frozen=True)
class TimesLink:
    """Inputs 0: A, 1: B; output 0: (A x B)."""

    n_in: ClassVar[int] = 2
    n_out: ClassVar[int] = 1


@dataclass(frozen=True)
class PlusLink:
    """Input 0: A; output 0: the sum of A and ``other``, A on the side ``right`` names."""

    n_in: ClassVar[int] = 1
    n_out: ClassVar[int] = 1
    right: ClassVar[bool]
    other: Formula


class Plus1Link(PlusLink):
    """Output 0: (A + other)."""

    right = False


class Plus2Link(PlusLink):
    """Output 0: (other + A)."""

    right = True


@dataclass(frozen=True)
class UnitLink:
    """No inputs; output 0: I."""

    n_in: ClassVar[int] = 0
    n_out: ClassVar[int] = 1


Link = AxLink | CutLink | TimesLink | Plus1Link | Plus2Link | UnitLink


@dataclass
class Slice:
    """One slice: links, wires (input port -> producing output port), outs."""

    links: dict[str, Link]
    wires: dict[Port, Port]
    outs: tuple[Port, ...]

    def consumers(self):
        """Reverse wire map: producing output port -> consuming input port."""
        rev = {}
        for inp, outp in self.wires.items():
            rev[outp] = inp
        return rev


@dataclass
class Net:
    name: str
    conclusions: tuple[Formula, ...]
    slices: tuple[Slice, ...]
    cat: Category

    def __str__(self):
        return print_net(self)


def labels(slice_, cat):
    """Formula label of every output port.

    Raises NetError on cyclic wiring, and on a label built by more than
    ``MAX_DEPTH`` nested times and plus links: the parser bounds the formulas
    it reads, and this bounds the ones a slice builds, before any recursive
    walker meets them.
    """
    memo = {}
    depth = {}  # port -> times and plus links nested under its label
    state = {}

    def lab(port, frames):
        if port in memo:
            return memo[port]
        if state.get(port) == "open":
            raise NetError("cyclic wiring")
        lid, slot = port
        if frames > MAX_DEPTH:
            raise NetError(f"link {lid}: label nested deeper than {MAX_DEPTH}")
        state[port] = "open"
        link = slice_.links[lid]
        d = 0
        if isinstance(link, AxLink):
            a, b = cat.dom(link.arrow), cat.cod(link.arrow)
            out = DualAtom(a) if slot == 0 else Atom(b)
        elif isinstance(link, UnitLink):
            out = Unit()
        elif isinstance(link, TimesLink):
            p0, p1 = slice_.wires[(lid, 0)], slice_.wires[(lid, 1)]
            l0, l1 = lab(p0, frames + 1), lab(p1, frames + 1)
            if isinstance(l0, Unit) or isinstance(l1, Unit):
                raise NetError(f"times {lid}: I may not appear under x")
            out, d = Tensor(l0, l1), 1 + max(depth[p0], depth[p1])
        elif isinstance(link, PlusLink):
            p = slice_.wires[(lid, 0)]
            below = lab(p, frames + 1)
            out = Plus(link.other, below) if link.right else Plus(below, link.other)
            d = 1 + depth[p]
        else:
            raise NetError(f"link {lid} has no outputs")
        if d > MAX_DEPTH:
            raise NetError(f"link {lid}: label nested deeper than {MAX_DEPTH}")
        depth[port] = d
        state[port] = "done"
        memo[port] = out
        return out

    for lid, link in slice_.links.items():
        for slot in range(link.n_out):
            lab((lid, slot), 0)
    return memo


def cut_inputs(link, cat):
    """The labels a cut expects on input 0 (plain side) and input 1 (starred side)."""
    if link.arrow is not None:
        return Atom(cat.dom(link.arrow)), DualAtom(cat.cod(link.arrow))
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


def validate_slice(slice_, cat, conclusions, labs=None):
    """Well-formedness of one slice against the conclusions; ``labs``: its labels if known."""
    seen_out = {}
    for lid, link in slice_.links.items():
        for slot in range(link.n_out):
            seen_out[(lid, slot)] = 0
    want_in = set()
    for lid, link in slice_.links.items():
        for slot in range(link.n_in):
            want_in.add((lid, slot))
    if set(slice_.wires.keys()) != want_in:
        missing = want_in - set(slice_.wires.keys())
        extra = set(slice_.wires.keys()) - want_in
        raise NetError(f"bad wiring: missing inputs {sorted(missing)}, stray {sorted(extra)}")
    for inp, outp in slice_.wires.items():
        if outp not in seen_out:
            raise NetError(f"wire into {inp} from unknown port {outp}")
        seen_out[outp] += 1
    for port in slice_.outs:
        if port not in seen_out:
            raise NetError(f"out lists unknown port {port}")
        seen_out[port] += 1
    for port, n in seen_out.items():
        if n != 1:
            raise NetError(f"port {port[0]}.{port[1]} used {n} times, want exactly 1")

    if labs is None:
        labs = labels(slice_, cat)

    if len(slice_.outs) != len(conclusions):
        raise NetError(
            f"slice has {len(slice_.outs)} conclusions, net declares {len(conclusions)}"
        )
    for port, want in zip(slice_.outs, conclusions):
        got = labs[port]
        if got != want:
            raise NetError(f"conclusion mismatch: {fmt(got)} at {port[0]}.{port[1]}, want {fmt(want)}")

    rev = slice_.consumers()
    for lid, link in slice_.links.items():
        if isinstance(link, CutLink):
            got = labs[slice_.wires[(lid, 0)]], labs[slice_.wires[(lid, 1)]]
            if got != cut_inputs(link, cat):
                label = link.arrow if link.arrow is not None else f"id {fmt(link.formula)}"
                raise NetError(f"cut {label}: inputs {fmt(got[0])}, {fmt(got[1])} do not match")
        if isinstance(link, UnitLink):
            consumer = rev.get((lid, 0))
            if consumer is None:
                raise NetError(f"unit {lid} feeds a conclusion; I must meet a plus or id cut")
            clink = slice_.links[consumer[0]]
            ok = isinstance(clink, PlusLink) or (
                isinstance(clink, CutLink) and clink.formula == Unit()
            )
            if not ok:
                raise NetError(f"unit {lid} must feed a plus link or an id cut on I")


def validate_net(net, slice_labels=None):
    """Well-formedness of a net; ``slice_labels`` holds each slice's ``labels``."""
    for f in net.conclusions:
        validate(f, net.cat)
        if f == Zero() and net.slices:
            raise NetError("a net with conclusion 0 must have no slices")
    for k, s in enumerate(net.slices):
        validate_slice(s, net.cat, net.conclusions, slice_labels and slice_labels[k])


# ---------------------------------------------------------------------------
# programmatic construction


class SliceBuilder:
    """Accumulates links for one slice, leaving holes for axiom outputs.

    ``realize_choices`` builds the link tree under one conclusion, picking a
    branch at every plus; atom leaves become numbered holes in left-to-right
    order, filled by ``place`` once axioms exist.
    """

    def __init__(self):
        self.links = {}
        self.wires = {}
        self.holes = []
        self.hole_sites = {}
        self.counts = {}

    def fresh(self, prefix):
        n = self.counts.get(prefix, 0)
        self.counts[prefix] = n + 1
        return f"{prefix}{n}"

    def _leaf(self):
        hole = len(self.holes)
        self.holes.append(None)
        return ("#hole", hole)

    def _attach(self, input_port, below):
        if below[0] == "#hole":
            self.hole_sites[below[1]] = input_port
        else:
            self.wires[input_port] = below

    def _times(self, below_l, below_r):
        lid = self.fresh("t")
        self.links[lid] = TimesLink()
        self._attach((lid, 0), below_l)
        self._attach((lid, 1), below_r)
        return (lid, 0)

    def _plus(self, right_chosen, below, other):
        lid = self.fresh("p")
        self.links[lid] = (Plus2Link if right_chosen else Plus1Link)(other)
        self._attach((lid, 0), below)
        return (lid, 0)

    def _unit(self):
        lid = self.fresh("u")
        self.links[lid] = UnitLink()
        return (lid, 0)

    def realize_choices(self, formula, choices):
        """Realize branches following an iterator of plus bits (True = right)."""
        match formula:
            case Unit():
                return self._unit()
            case Atom(_) | DualAtom(_):
                return self._leaf()
            case Tensor(l, r):
                below_l = self.realize_choices(l, choices)
                below_r = self.realize_choices(r, choices)
                return self._times(below_l, below_r)
            case Plus(l, r):
                bit = next(choices)
                if not bit:
                    return self._plus(False, self.realize_choices(l, choices), r)
                return self._plus(True, self.realize_choices(r, choices), l)
        raise AssertionError(f"cannot realize {formula!r}")

    def place(self, hole, port):
        """Fill a hole with an axiom output port."""
        site = self.hole_sites.get(hole)
        if site is not None:
            self.wires[site] = port
        self.holes[hole] = port

    def add_loop(self, cat, loop):
        """A closed loop: an axiom for the endo plus an identity cut."""
        lid = self.fresh("a")
        self.links[lid] = AxLink(loop.arrow)
        cid = self.fresh("#c")
        self.links[cid] = CutLink(arrow=cat.identity(loop.obj))
        self.wires[(cid, 0)] = (lid, 1)
        self.wires[(cid, 1)] = (lid, 0)

    def build(self, tops):
        outs = []
        for top in tops:
            if top[0] == "#hole":
                port = self.holes[top[1]]
                if port is None:
                    raise AssertionError("unfilled hole")
                outs.append(port)
            else:
                outs.append(top)
        return Slice(self.links, self.wires, tuple(outs))


# ---------------------------------------------------------------------------
# parsing


def _link_id(tok, lineno, links):
    """A new link id for the open slice."""
    lid = tok.strip()
    if not lid or any(c.isspace() or c in ".,:|=#" for c in lid):
        raise ParseError(lineno, f"bad link id {lid!r}")
    if lid in links:
        raise ParseError(lineno, f"duplicate link id {lid!r}")
    return lid


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
    """The slice and its labels, once its ``end`` line is read; cut labels resolved."""
    wires = {}
    for inp, (tok, ln) in pending.items():
        port = wires[inp] = _port(tok, ln, links)
        if port[1] >= links[port[0]].n_out:
            raise ParseError(ln, f"link {port[0]} has no output {port[1]}")
    ln, toks = outs
    s = Slice(links, wires, tuple(_port(tok, ln, links) for tok in toks))
    labs = labels(s, cat)
    for cid, label, ln in cuts:
        p0, p1 = wires[(cid, 0)], wires[(cid, 1)]
        l0, l1 = labs[p0], labs[p1]
        if label == "id":
            if star(l0) != l1:
                raise ParseError(ln, f"id cut inputs {fmt(l0)}, {fmt(l1)} are not dual")
            links[cid], wires[(cid, 0)], wires[(cid, 1)] = id_cut(cat, l0, p0, p1)
            continue
        links[cid] = CutLink(arrow=label)
        if (l1, l0) == cut_inputs(links[cid], cat):  # written starred side first
            wires[(cid, 0)], wires[(cid, 1)] = p1, p0
    return s, labs


def parse_net(text, cat):
    """Parse and validate a net file against a category."""
    name = conclusions = None
    slices = []  # (slice, its labels), validated once the whole net is read
    links = None  # the open slice's links (with its pending wires, cuts and outs), else None
    cut_count = 0
    for lineno, head, rest in directives(text):
        if head == "net":
            if name is not None:
                raise ParseError(lineno, "duplicate net line")
            name = rest
        elif head == "conclusions":
            if conclusions is not None:
                raise ParseError(lineno, "duplicate conclusions line")
            parts = split_top(rest, ",", lineno) if rest else ()
            conclusions = tuple(parse_formula(part, cat, lineno) for part in parts)
        elif head == "slice" and not rest:
            if conclusions is None:
                raise ParseError(lineno, "slice before conclusions")
            if links is not None:
                raise ParseError(lineno, "nested slice")
            links, pending, cuts, outs = {}, {}, [], None
        elif head == "end" and not rest:
            if links is None:
                raise ParseError(lineno, "end outside slice")
            if outs is None:
                raise ParseError(lineno, "slice has no out line")
            slices.append(_resolve_slice(cat, links, pending, cuts, outs))
            links = None
        elif head not in ("ax", "unit", "times", "plus1", "plus2", "cut", "out"):
            raise ParseError(lineno, f"unknown directive {head!r}")
        elif links is None:
            raise ParseError(lineno, f"{head} outside slice")
        elif head == "ax":
            lid, colon, arrow = rest.partition(":")
            if not colon:
                raise ParseError(lineno, "expected 'ax id : f'")
            arrow = " ".join(arrow.split())
            if arrow not in cat.arrows:
                raise ParseError(lineno, f"unknown arrow {arrow!r}")
            links[_link_id(lid, lineno, links)] = AxLink(arrow)
        elif head == "unit":
            links[_link_id(rest, lineno, links)] = UnitLink()
        elif head == "times":
            lid, eq, ports = rest.partition("=")
            if not eq:
                raise ParseError(lineno, "expected 'times id = p q'")
            toks = ports.split()
            if len(toks) != 2:
                raise ParseError(lineno, "times takes exactly two ports")
            lid = _link_id(lid, lineno, links)
            links[lid] = TimesLink()
            pending[(lid, 0)] = (toks[0], lineno)
            pending[(lid, 1)] = (toks[1], lineno)
        elif head in ("plus1", "plus2"):
            lid, eq, body = rest.partition("=")
            if not eq or "|" not in body:
                raise ParseError(lineno, f"expected '{head} id = ... | ...'")
            lhs, _, rhs = body.partition("|")
            lid = _link_id(lid, lineno, links)
            kind = Plus2Link if head == "plus2" else Plus1Link
            other, port_tok = (lhs, rhs) if kind.right else (rhs, lhs)
            links[lid] = kind(parse_formula(other, cat, lineno))
            pending[(lid, 0)] = (port_tok, lineno)
        elif head == "cut":
            body, colon, label = rest.rpartition(":")
            if not colon:
                raise ParseError(lineno, "expected 'cut p , q : label'")
            ports = split_top(body, ",", lineno)
            if len(ports) != 2:
                raise ParseError(lineno, "cut takes exactly two ports")
            label = " ".join(label.split())
            if label != "id" and label not in cat.arrows:
                raise ParseError(lineno, f"unknown cut label {label!r}")
            cid = f"#c{cut_count}"
            cut_count += 1
            cuts.append((cid, label, lineno))
            pending[(cid, 0)] = (ports[0], lineno)
            pending[(cid, 1)] = (ports[1], lineno)
        else:  # out
            if outs is not None:
                raise ParseError(lineno, "duplicate out line")
            outs = (lineno, split_top(rest, ",", lineno) if rest else ())
    if links is not None:
        raise ParseError(len(text.splitlines()), "unterminated slice")
    if name is None:
        raise ParseError(1, "missing net line")
    if conclusions is None:
        raise ParseError(1, "missing conclusions line")

    net = Net(name, conclusions, tuple(s for s, _ in slices), cat)
    validate_net(net, [labs for _, labs in slices])
    return net


# ---------------------------------------------------------------------------
# printing


def topo_order(slice_):
    """Links in dependency order, producers first, cuts last, ties by id; one pass."""
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
    return order + sorted(lid for lid, link in links.items() if isinstance(link, CutLink))


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
            elif isinstance(link, PlusLink):
                port, other = _fmt_port(s.wires[(lid, 0)]), fmt(link.other)
                body = f"{other} | {port}" if link.right else f"{port} | {other}"
                out.append(f"  plus{1 + link.right} {lid} = {body}")
            elif isinstance(link, CutLink):
                p0, p1 = s.wires[(lid, 0)], s.wires[(lid, 1)]
                label = link.arrow if link.arrow is not None else "id"
                out.append(f"  cut {_fmt_port(p0)} , {_fmt_port(p1)} : {label}")
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
