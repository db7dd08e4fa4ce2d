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


def _rule(s, cat, cid):
    """The rule of the redex at cut ``cid``, or None for a closed loop (normal)."""
    link = s.links[cid]
    if link.arrow is not None:
        if s.wires[(cid, 0)][0] == s.wires[(cid, 1)][0]:
            if cat.is_identity(link.arrow):
                return None  # closed loop, a normal scalar
            return "ax-self"
        return "ax-ax"
    return _FORMULA_RULES[type(link.formula)]


def _redexes(s, cat):
    """The rule of each redex of a slice, by cut id in sorted order."""
    cuts = sorted([lid for lid, link in s.links.items() if type(link) is nets.CutLink])
    return {cid: rule for cid in cuts if (rule := _rule(s, cat, cid)) is not None}


def find_redexes(s, cat):
    """All redexes of a slice, sorted by cut id."""
    return [Redex(cid, rule) for cid, rule in _redexes(s, cat).items()]


class _Work:
    """A private copy of a slice that rewriting changes in place.

    ``cons`` maps each output port to its consumer, or to ``(None, k)`` if out ``k``.
    """

    def __init__(self, s, cat):
        self.links, self.wires, self.outs = dict(s.links), dict(s.wires), list(s.outs)
        self.cons = {port: (None, k) for k, port in enumerate(s.outs)} | s.consumers()
        self.table = cat.formula_table()  # where the category keeps its one AxLink per arrow

    def drop(self, lid):
        for slot in range(self.links[lid].n_in):
            del self.cons[self.wires.pop((lid, slot))]
        del self.links[lid]


def _rewrite(w, cat, cid, rule):
    """Apply ``rule`` at cut ``cid`` in place; returns the cuts to reclassify, or None for zero."""
    links, wires = w.links, w.wires
    link = links[cid]
    if rule == "ax-self":
        # the cut already runs from the axiom's output 1 to its output 0
        ax = wires[(cid, 0)][0]
        loop_arrow = cat.compose(links[ax].arrow, link.arrow)
        links[ax] = nets._axiom(cat, loop_arrow, w.table)[0]
        links[cid] = nets.CutLink(arrow=cat.identity(cat.dom(loop_arrow)))
        return ()  # now a closed loop
    if rule == "ax-ax":
        # f_ax.1 and h_ax.0 meet at the cut; one axiom for the composite takes
        # over f_ax.0 and h_ax.1, under the lesser id
        cons = w.cons
        f_ax, h_ax = wires.pop((cid, 0))[0], wires.pop((cid, 1))[0]
        composite = cat.compose(cat.compose(links[f_ax].arrow, link.arrow), links[h_ax].arrow)
        del links[cid], links[f_ax], links[h_ax], cons[(f_ax, 1)], cons[(h_ax, 0)]
        nid = min(f_ax, h_ax)
        links[nid] = nets._axiom(cat, composite, w.table)[0]
        # the end of the other axiom moves to nid; the end of nid keeps its port
        old, new = ((h_ax, 1), (nid, 1)) if nid == f_ax else ((f_ax, 0), (nid, 0))
        lid, k = cons[new] = cons.pop(old)
        if lid is None:
            w.outs[k] = new
        else:
            wires[(lid, k)] = new
        touched = []
        for lid, _ in (cons[(nid, 0)], cons[(nid, 1)]):
            if lid is not None and type(links[lid]) is nets.CutLink:
                touched.append(lid)
        return touched
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
    if (rule := _rule(s, cat, redex.cut)) != redex.rule:
        raise ValueError(f"stale redex: cut {redex.cut} is now {rule or 'a closed loop'}")
    w = _Work(s, cat)
    if _rewrite(w, cat, redex.cut, redex.rule) is None:
        return None
    return nets.Slice(w.links, w.wires, tuple(w.outs))


def normalize_slice(s, cat, strategy="min", rng=None, on_step=None):
    """Reduce one slice to normal form; returns (slice or None, step count).

    ``live`` maps the cut id of each of the slice's redexes to its rule; after
    each step only the cuts it touched are classified again.  ``pool`` holds
    every live id; an id that stops being live stays in it until it is taken,
    and is then skipped.  ``min`` keeps the pool as a heap and pops the least
    id; ``random`` swaps the entry at a drawn index to the end and pops it, so
    it stays linear and its step order is its own.  ``strategy`` is one of the
    two; ``normalize`` checks it.  ``on_step`` gets each step's cut, rule and
    links left.
    """
    live = _redexes(s, cat)
    if not live:
        return s, 0  # already normal: nothing to copy
    pool = list(live)  # sorted, so already a heap
    if strategy == "min":
        take, put = heapq.heappop, heapq.heappush
    else:
        def take(pool):
            k = rng.randrange(len(pool))
            pool[k], pool[-1] = pool[-1], pool[k]
            return pool.pop()
        put = list.append
    w = _Work(s, cat)
    steps = 0
    while live:
        cid = take(pool)
        if (rule := live.pop(cid, None)) is None:
            continue  # reduced already, or now a closed loop
        touched = _rewrite(w, cat, cid, rule)
        steps += 1
        if on_step is not None:
            on_step(cid, rule, 0 if touched is None else len(w.links))
        if touched is None:
            return None, steps
        for t in touched:
            was_live = live.pop(t, None) is not None
            if (rule := _rule(w, cat, t)) is not None:
                live[t] = rule
                if not was_live:  # a live id is in the pool already
                    put(pool, t)
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
    loops = [cat.loop_of(s.links[s.wires[(cid, 0)][0]].arrow)
             for cid, link in s.links.items() if isinstance(link, nets.CutLink)]
    choices = []
    leaf_of = {}
    for port in s.outs:
        _walk(port, s, choices, leaf_of)
    # a loop's axiom sits under no out, so each out leaf on an output 0 starts a pair
    pairs = [(k, leaf_of[(lid, 1)], s.links[lid].arrow)
             for (lid, slot), k in leaf_of.items() if slot == 0]
    pairs.sort(key=lambda p: min(p[0], p[1]))
    return CanonicalSlice(tuple(choices), tuple(pairs), tuple(sorted(loops)))


def _walk(port, s, choices, leaf_of):
    """``canonicalize_slice``'s walk: plus bits onto ``choices``, leaves into ``leaf_of``."""
    lid = port[0]
    link = s.links[lid]
    if isinstance(link, nets.AxLink):
        leaf_of[port] = len(leaf_of)
    elif isinstance(link, nets.TimesLink):
        _walk(s.wires[(lid, 0)], s, choices, leaf_of)
        _walk(s.wires[(lid, 1)], s, choices, leaf_of)
    elif isinstance(link, nets.PlusLink):
        choices.append(link.right)
        _walk(s.wires[(lid, 0)], s, choices, leaf_of)
    # units contribute nothing


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
    """The normal form of a net: reduce every slice, canonicalize, sort.

    ``seed`` seeds the one RNG of the ``random`` strategy; ``min`` builds none.
    ``trace``, if a list, gets one line per step.
    """
    if strategy not in ("min", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == "random" else None
    canon = []
    for k, s in enumerate(net.slices):
        on_step = None
        if trace is not None:
            def on_step(cut, rule, remaining, k=k):
                trace.append(f"slice {k}: {rule} at {cut}: {remaining} links")
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
