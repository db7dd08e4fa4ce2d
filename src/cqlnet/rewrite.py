"""Cut elimination on slices, and canonical normal forms for nets.

Every cut in a well-formed slice is one of: an axiom-to-axiom chain, an axiom
cut back on itself, a cut on a tensor, plus, or unit formula, or a closed
loop (an identity cut on both outputs of one endo axiom).  All but the last
are redexes; closed loops are normal and denote loop scalars.  Each step
removes links or turns a non-identity self-cut into a closed loop, so
reduction terminates in at most as many steps as there are links.  It runs
in time linear in the links: a worklist of redexes over one working copy of
the slice, rewritten in place.  Cuts on tensor, plus and unit formulas share
one rule: drop the cut and the links that built its inputs, and cut each
sub-formula they joined: two for a tensor, none for a unit, and for a sum
the side both plus links chose.

A normal slice is determined by its plus choices, the pairing of its
conclusion leaves, and its loop classes; nets compare equal when their
normal slices match as multisets over equal conclusion lists.

Nets are checked where they enter, by ``net.parse_net`` or ``net.validate_net``.
Here only what a caller picks is checked: ``step``'s redex and ``normalize``'s
strategy.  ``canonicalize_slice`` trusts its slice to be normal (``normalize``
hands it what ``normalize_slice`` returns), and ``to_net`` its normal form:
cut elimination and completeness give only well-formed nets.
"""

from __future__ import annotations

import heapq
import random
from collections import namedtuple

from . import net as nets
from .errors import NetError
from .formula import Plus, Tensor, Unit


Redex = namedtuple("Redex", "cut rule")
Redex.__doc__ = 'A reducible cut and its rule: "ax-self", "ax-ax", "times", "plus" or "unit".'


_FORMULA_RULES = {Unit: "unit", Tensor: "times", Plus: "plus"}


def _classify(s, cat, cid):
    """The redex at cut ``cid``, or None for a closed loop (normal)."""
    link = s.links[cid]
    if link.arrow is not None:
        if s.wires[(cid, 0)][0] == s.wires[(cid, 1)][0]:
            if cat.is_identity(link.arrow):
                return None  # closed loop, a normal scalar
            return Redex(cid, "ax-self")
        return Redex(cid, "ax-ax")
    return Redex(cid, _FORMULA_RULES[type(link.formula)])


def find_redexes(s, cat):
    """All redexes of a slice, sorted by cut id."""
    out = []
    for cid in sorted(s.links):
        if isinstance(s.links[cid], nets.CutLink):
            r = _classify(s, cat, cid)
            if r is not None:
                out.append(r)
    return out


class _Work:
    """A private copy of a slice that rewriting changes in place.

    ``cons`` maps each output port to its consumer, or to ``(None, k)`` if out ``k``.
    """

    def __init__(self, s):
        self.links, self.wires, self.outs = dict(s.links), dict(s.wires), list(s.outs)
        self.cons = {port: (None, k) for k, port in enumerate(s.outs)} | s.consumers()

    def drop(self, lid):
        for slot in range(self.links[lid].n_in):
            del self.cons[self.wires.pop((lid, slot))]
        del self.links[lid]

    def rewire(self, old_port, new_port):
        lid, k = self.cons[new_port] = self.cons.pop(old_port)
        if lid is None:
            self.outs[k] = new_port
        else:
            self.wires[(lid, k)] = new_port


def _rewrite(w, cat, cid, rule):
    """Apply ``rule`` at cut ``cid`` in place; returns the cuts to reclassify, or None for zero."""
    links, wires = w.links, w.wires
    link = links[cid]
    if rule == "ax-self":
        # the cut already runs from the axiom's output 1 to its output 0
        ax = wires[(cid, 0)][0]
        loop_arrow = cat.compose(links[ax].arrow, link.arrow)
        links[ax] = nets.AxLink(loop_arrow)
        links[cid] = nets.CutLink(arrow=cat.identity(cat.dom(loop_arrow)))
        return ()  # now a closed loop
    if rule == "ax-ax":
        f_ax, h_ax = wires[(cid, 0)][0], wires[(cid, 1)][0]
        composite = cat.compose(cat.compose(links[f_ax].arrow, link.arrow), links[h_ax].arrow)
        nid = min(f_ax, h_ax)
        w.drop(cid)
        del links[f_ax], links[h_ax]
        links[nid] = nets.AxLink(composite)
        w.rewire((f_ax, 0), (nid, 0))
        w.rewire((h_ax, 1), (nid, 1))
        consumers = (w.cons[(nid, 0)][0], w.cons[(nid, 1)][0])
        return [lid for lid in consumers if isinstance(links.get(lid), nets.CutLink)]
    # a cut on a compound formula meets the two links that built it and
    # its dual: cut each joined sub-formula instead, input k against input k
    a, b = wires[(cid, 0)][0], wires[(cid, 1)][0]
    f = link.formula
    if rule == "plus":
        if links[a].right != links[b].right:
            return None  # opposite injections: the slice is zero
        subs = (f.right if links[a].right else f.left,)
    else:
        subs = (f.left, f.right) if rule == "times" else ()
    joins = [(g, wires[(a, k)], wires[(b, k)]) for k, g in enumerate(subs)]
    for lid in (cid, a, b):
        w.drop(lid)
    for nid, (g, p, q) in zip((cid, a), joins):
        links[nid], wires[(nid, 0)], wires[(nid, 1)] = nets.id_cut(cat, g, p, q)
        w.cons[wires[(nid, 0)]], w.cons[wires[(nid, 1)]] = (nid, 0), (nid, 1)
    return (cid, a)[:len(joins)]


def step(s, cat, redex):
    """Apply one redex; returns the new slice, or None when the slice deletes."""
    if redex.cut not in s.links or not isinstance(s.links[redex.cut], nets.CutLink):
        raise ValueError(f"stale redex: no cut {redex.cut}")
    current = _classify(s, cat, redex.cut)
    if current is None or current.rule != redex.rule:
        raise ValueError(f"stale redex: cut {redex.cut} is now {current!r}")
    w = _Work(s)
    if _rewrite(w, cat, redex.cut, redex.rule) is None:
        return None
    return nets.Slice(w.links, w.wires, tuple(w.outs))


class _Ranks:
    """Live ids in sorted order, k-th one in O(log n): a Fenwick tree (Fenwick, 1994)."""

    def __init__(self, ids, live):
        self.ids = sorted(ids)
        self.pos = {lid: k + 1 for k, lid in enumerate(self.ids)}
        self.tree = [0] * (len(self.ids) + 1)
        for lid in live:
            self.add(lid, 1)

    def add(self, lid, d):
        i = self.pos[lid]
        while i < len(self.tree):
            self.tree[i] += d
            i += i & -i

    def kth(self, k):
        i, step = 0, 1 << len(self.ids).bit_length()
        while step := step >> 1:
            if i + step < len(self.tree) and self.tree[i + step] <= k:
                i += step
                k -= self.tree[i]
        return self.ids[i]


def normalize_slice(s, cat, strategy="min", rng=None, on_step=None):
    """Reduce one slice to normal form; returns (slice or None, step count).

    ``live`` holds the slice's redexes by cut id; after each step only the
    cuts it touched are classified again.  ``min`` pops the least live id off
    a heap; ``random`` draws an index into them sorted, as ``find_redexes``
    lists them, and ``_Ranks`` finds it (a step reuses the slice's ids).
    ``strategy`` is one of the two; ``normalize`` checks it.
    """
    live = {r.cut: r for r in find_redexes(s, cat)}
    if not live:
        return s, 0  # already normal: nothing to copy
    heap = list(live)  # sorted, so already a heap
    ranks = _Ranks(s.links, live) if strategy == "random" else None
    w = _Work(s)
    steps = 0
    while live:
        if strategy == "min":
            cid = heapq.heappop(heap)
            if cid not in live:
                continue  # reduced already, or now a closed loop
        else:
            cid = ranks.kth(rng.randrange(len(live)))  # the draw of rng.choice
            ranks.add(cid, -1)
        r = live.pop(cid)
        touched = _rewrite(w, cat, cid, r.rule)
        steps += 1
        if on_step is not None:
            on_step(r, 0 if touched is None else len(w.links))
        if touched is None:
            return None, steps
        for t in touched:
            nr = _classify(w, cat, t)
            if ranks is not None and (t in live) != (nr is not None):
                ranks.add(t, 1 if nr is not None else -1)
            if nr is None:
                live.pop(t, None)
            else:
                live[t] = nr
                heapq.heappush(heap, t)
    return nets.Slice(w.links, w.wires, tuple(w.outs)), steps


# ---------------------------------------------------------------------------
# canonical forms


CanonicalSlice = namedtuple("CanonicalSlice", "choices pairs loops")
CanonicalSlice.__doc__ = """What survives of a normal slice: plus bits, leaf pairing, loops.

``choices`` lists plus branches (True = right) in conclusion traversal
order; ``pairs`` joins leaf positions (negative, positive, arrow); loops
are sorted loop classes.
"""

NormalNet = namedtuple("NormalNet", "conclusions slices")
NormalNet.__doc__ = "A normal form: conclusions plus the sorted multiset of normal slices."


def canonicalize_slice(s, cat):
    """The canonical form of a slice ``normalize_slice`` made normal; unchecked."""
    loops = []
    loop_axioms = set()
    for cid, link in s.links.items():
        if isinstance(link, nets.CutLink):
            ax = s.wires[(cid, 0)][0]
            loops.append(cat.loop_of(s.links[ax].arrow))
            loop_axioms.add(ax)
    choices = []
    leaf_of = {}

    def walk(port):
        lid, slot = port
        link = s.links[lid]
        if isinstance(link, nets.AxLink):
            leaf_of[port] = len(leaf_of)
        elif isinstance(link, nets.TimesLink):
            walk(s.wires[(lid, 0)])
            walk(s.wires[(lid, 1)])
        elif isinstance(link, nets.PlusLink):
            choices.append(link.right)
            walk(s.wires[(lid, 0)])
        # units contribute nothing

    for port in s.outs:
        walk(port)
    pairs = []
    for lid, link in s.links.items():
        if isinstance(link, nets.AxLink) and lid not in loop_axioms:
            pairs.append((leaf_of[(lid, 0)], leaf_of[(lid, 1)], link.arrow))
    pairs.sort(key=lambda p: min(p[0], p[1]))
    return CanonicalSlice(tuple(choices), tuple(pairs), tuple(sorted(loops)))


def reconstruct_slice(cs, conclusions, cat):
    """The normal slice denoted by a canonical form, with deterministic ids."""
    b = nets.SliceBuilder()
    leaves = [None] * (2 * len(cs.pairs))
    for neg, pos, f in cs.pairs:
        lid = b.add("a", nets.AxLink(f))
        leaves[neg], leaves[pos] = (lid, 0), (lid, 1)
    bits, ports = iter(cs.choices), iter(leaves)
    outs = [b.realize_choices(f, bits, ports) for f in conclusions]
    for lp in cs.loops:
        b.add_loop(cat, lp)
    return nets.Slice(b.links, b.wires, tuple(outs))


def normalize(net, strategy="min", seed=0, trace=None):
    """The normal form of a net: reduce every slice, canonicalize, sort."""
    if strategy not in ("min", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed)
    canon = []
    for k, s in enumerate(net.slices):
        on_step = None
        if trace is not None:
            def on_step(r, remaining, k=k):
                trace.append(f"slice {k}: {r.rule} at {r.cut}: {remaining} links")
        nf, _ = normalize_slice(s, net.cat, strategy, rng, on_step)
        if nf is not None:
            canon.append(canonicalize_slice(nf, net.cat))
    return NormalNet(net.conclusions, tuple(sorted(canon)))


def to_net(nn, cat, name="normal"):
    """Rebuild a Net, unchecked, from a normal form made by ``normalize`` or ``complete``."""
    slices = tuple(reconstruct_slice(cs, nn.conclusions, cat) for cs in nn.slices)
    return nets.Net(name, nn.conclusions, slices, cat)


def beta_equal(n1, n2):
    """Whether two nets over the same conclusions have the same normal form."""
    if n1.cat is not n2.cat:
        raise ValueError("nets over different categories")
    if n1.conclusions != n2.conclusions:
        raise NetError("nets have different conclusions")
    return normalize(n1) == normalize(n2)
