"""Seeded random nets and free arrows for property tests.

Generated formulas are balanced: every additive branch carries matching
dual/plain atom pairs, so every slice can be closed with axioms.  Slices are
seeded with cut chains, identity-cut towers, and closed rings so that all
rewrite rules fire on random inputs.
"""

from __future__ import annotations

from collections import Counter

from .category import Loop
from .formula import Atom, DualAtom, Literal, Plus, Tensor, Unit, star
from .freecat import FreeArrow, wiring
from .net import AxLink, CutLink, Net, Slice, SliceBuilder, validate_net


def _endos(cat, obj):
    return [f for f, (a, b) in cat.arrows.items() if a == obj and b == obj]


def balanced_formula(cat, rng, depth=2):
    """A random formula whose every additive branch pairs duals with plains."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if roll < 0.08:
            return Unit()
        obj = rng.choice(cat.objects)
        return Tensor(DualAtom(obj), Atom(obj))
    left = balanced_formula(cat, rng, depth - 1)
    right = balanced_formula(cat, rng, depth - 1)
    if roll < 0.6 and not (isinstance(left, Unit) or isinstance(right, Unit)):
        return Tensor(left, right)
    return Plus(left, right)


def _branch(f, rng):
    """Random plus choices for one branch: (choice bits, leaf literals)."""
    match f:
        case Unit():
            return [], []
        case Atom(name):
            return [], [Literal(name, False)]
        case DualAtom(name):
            return [], [Literal(name, True)]
        case Tensor(l, r):
            bl, ll = _branch(l, rng)
            br, lr = _branch(r, rng)
            return bl + br, ll + lr
        case Plus(l, r):
            bit = rng.random() < 0.5
            bits, leaves = _branch(r if bit else l, rng)
            return [bit] + bits, leaves
    raise AssertionError(f"cannot sample {f!r}")


def _chain_ports(b, cat, rng, f):
    """Ports (starred end, plain end) realizing f, sometimes as a cut chain."""
    if rng.random() < 0.5:
        for _ in range(8):
            g = rng.choice(sorted(cat.arrows))
            if cat.dom(g) != cat.dom(f):
                continue
            h = rng.choice(_endos(cat, cat.cod(g)))
            pre = cat.compose(g, h)
            ks = [
                k
                for k, typ in cat.arrows.items()
                if typ == (cat.cod(pre), cat.cod(f)) and cat.compose(pre, k) == f
            ]
            if not ks:
                continue
            k = rng.choice(sorted(ks))
            a1 = b.add("a", AxLink(g))
            a2 = b.add("a", AxLink(k))
            b.add("#c", CutLink(arrow=h), (a1, 1), (a2, 0))
            return (a1, 0), (a2, 1)
    lid = b.add("a", AxLink(f))
    return (lid, 0), (lid, 1)


def _add_ring(b, cat, rng):
    """A closed ring of two axioms joined by two labelled cuts."""
    obj = rng.choice(cat.objects)
    endos = _endos(cat, obj)
    a1 = b.add("a", AxLink(rng.choice(endos)))
    a2 = b.add("a", AxLink(rng.choice(endos)))
    b.add("#c", CutLink(arrow=rng.choice(endos)), (a1, 1), (a2, 0))
    b.add("#c", CutLink(arrow=rng.choice(endos)), (a2, 1), (a1, 0))


def random_slice(cat, rng, conclusions):
    """A random slice over ``conclusions``, built from its axioms up.

    The trees' plus bits are drawn first, then the tower, ring and loop, then
    the axioms that pair the trees' leaves; last the trees are realized over
    the axioms' ports.  The tower's cut id is taken when it is drawn.
    """
    b = SliceBuilder()
    # (formula, plus bits, leaf literals) per tree: the conclusions', then the tower's
    trees = [(f, *_branch(f, rng)) for f in conclusions]
    tower = None  # an identity cut joining two dual trees
    if rng.random() < 0.5:
        x = balanced_formula(cat, rng, depth=1)
        trees += [(g, *_branch(g, rng)) for g in (x, star(x))]
        tower = x, b.fresh("#c")
    if rng.random() < 0.4:
        _add_ring(b, cat, rng)
    if rng.random() < 0.3:
        obj = rng.choice(cat.objects)
        b.add_loop(cat, Loop(obj, rng.choice(_endos(cat, obj))))
    leaves = [lit for _, _, lits in trees for lit in lits]
    byobj = {}
    for k, lit in enumerate(leaves):
        byobj.setdefault(lit.name, ([], []))[0 if lit.star else 1].append(k)
    ports = [None] * len(leaves)
    for obj, (stars, plains) in sorted(byobj.items()):
        if len(stars) != len(plains):
            raise AssertionError(f"unbalanced leaves for {obj}")
        rng.shuffle(stars)
        endos = _endos(cat, obj)
        for ks, kp in zip(stars, plains):
            ports[ks], ports[kp] = _chain_ports(b, cat, rng, rng.choice(endos))
    leaf_ports = iter(ports)
    tops = [b.realize_choices(f, iter(bits), leaf_ports) for f, bits, _ in trees]
    if tower is not None:
        x, cid = tower
        *tops, t0, t1 = tops
        b.links[cid] = CutLink(formula=x)
        b.wires[(cid, 0)], b.wires[(cid, 1)] = t0, t1
    return Slice(b.links, b.wires, tuple(tops))


def _conclusion(cat, rng):
    # a bare I conclusion would leave its unit link dangling, which the
    # correctness criterion rejects
    while True:
        f = balanced_formula(cat, rng, depth=2)
        if not isinstance(f, Unit):
            return f


def random_net(cat, rng, name="random", conclusions=None, max_links=None):
    """A random valid net with 1 to 3 slices over shared conclusions.

    ``conclusions`` fixes the conclusion list instead of sampling one;
    ``max_links`` resamples until every slice fits the bound.
    """
    for _ in range(200):
        concl = conclusions
        if concl is None:
            concl = tuple(_conclusion(cat, rng) for _ in range(rng.randint(1, 2)))
        slices = tuple(
            random_slice(cat, rng, concl) for _ in range(rng.randint(1, 3))
        )
        if max_links is not None and any(len(s.links) > max_links for s in slices):
            continue
        net = Net(name, concl, slices, cat)
        validate_net(net)
        return net
    raise AssertionError("could not sample a net within the size bound")


def _balanced_word(cat, rng):
    w = []
    for _ in range(rng.randint(0, 2)):
        obj = rng.choice(cat.objects)
        pair = [Literal(obj, True), Literal(obj, False)]
        rng.shuffle(pair)
        w.extend(pair)
    return tuple(w)


def random_anf(cat, rng):
    return tuple(_balanced_word(cat, rng) for _ in range(rng.randint(1, 3)))


def random_wiring(cat, rng, domw, codw):
    bnd = [lit.dual() for lit in domw] + list(codw)
    byobj = {}
    for k, lit in enumerate(bnd):
        byobj.setdefault(lit.name, ([], []))[0 if lit.star else 1].append(k)
    pairs = []
    for obj, (negs, poss) in sorted(byobj.items()):
        endos = _endos(cat, obj)
        rng.shuffle(negs)
        for neg, pos in zip(negs, poss):
            pairs.append((neg, pos, rng.choice(endos)))
    loops = []
    if rng.random() < 0.3:
        obj = rng.choice(cat.objects)
        loops.append(cat.loop_of(rng.choice(_endos(cat, obj))))
    return wiring(domw, codw, pairs, loops, cat)


def random_free_arrow(cat, rng):
    """A random free arrow between balanced additive normal forms."""
    dom = random_anf(cat, rng)
    cod = random_anf(cat, rng)
    entries = {}
    for i in range(len(cod)):
        for j in range(len(dom)):
            if rng.random() < 0.35:
                continue
            c = Counter()
            for _ in range(rng.randint(1, 2)):
                c[random_wiring(cat, rng, dom[j], cod[i])] += rng.randint(1, 2)
            entries[(i, j)] = c
    return FreeArrow(cat, dom, cod, entries)
