import random
from collections import Counter
from functools import reduce

import pytest

from cqlnet import fixtures, rewrite
from cqlnet.category import Loop
from cqlnet.errors import NetError
from cqlnet.formula import Unit
from cqlnet.net import AxLink, CutLink, parse_net, print_net
from cqlnet.randgen import balanced_formula, random_net
from cqlnet.rewrite import (
    CanonicalSlice,
    NormalNet,
    Redex,
    beta_equal,
    canonicalize_slice,
    find_redexes,
    normalize,
    normalize_slice,
    reconstruct_slice,
    step,
    to_net,
)


def test_chain_normalizes_to_bell(pauli8):
    chain = parse_net(fixtures.CHAIN_NET, pauli8)
    bell = parse_net(fixtures.BELL_NET, pauli8)
    assert beta_equal(chain, bell)
    trace = []
    nn = normalize(chain, trace=trace)
    assert len(trace) == 2
    assert all("ax-ax" in line for line in trace)
    assert nn.slices[0].pairs == ((0, 1, "id Q"),)


def test_bell_and_bellx_differ(pauli8):
    bell = parse_net(fixtures.BELL_NET, pauli8)
    bellx = parse_net(fixtures.BELLX_NET, pauli8)
    assert not beta_equal(bell, bellx)


def test_beta_equal_needs_shared_conclusions(pauli8):
    bell = parse_net(fixtures.BELL_NET, pauli8)
    ring = parse_net(fixtures.RING_NET, pauli8)
    with pytest.raises(NetError, match="different conclusions"):
        beta_equal(bell, ring)


def test_beta_equal_needs_one_category(pauli8, c2):
    bell = parse_net(fixtures.BELL_NET, pauli8)
    with pytest.raises(ValueError) as exc:
        beta_equal(bell, parse_net(fixtures.BELL_NET, c2))
    assert str(exc.value) == "nets over different categories"


def test_step_rejects_a_stale_redex(pauli8):
    s = parse_net(fixtures.CHAIN_NET, pauli8).slices[0]
    assert find_redexes(s, pauli8) == [Redex("#c0", "ax-ax"), Redex("#c1", "ax-ax")]
    for redex, message in (
        (Redex("a", "ax-ax"), "stale redex: no cut a"),
        (Redex("#c9", "ax-ax"), "stale redex: no cut #c9"),
        (Redex("#c0", "times"), "stale redex: cut #c0 is now ax-ax"),
    ):
        with pytest.raises(ValueError) as exc:
            step(s, pauli8, redex)
        assert str(exc.value) == message


def test_unknown_strategy_is_rejected_with_or_without_a_redex(pauli8):
    # bell is already normal, chain has two redexes and the empty sum has no
    # slice at all: each rejects the strategy
    for text in (fixtures.BELL_NET, fixtures.CHAIN_NET, "net z\nconclusions 0\n"):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            normalize(parse_net(text, pauli8), strategy="bogus")


def test_ring_reduces_to_loop_class(pauli8):
    ring = parse_net(fixtures.RING_NET, pauli8)
    nn = normalize(ring)
    assert len(nn.slices) == 1
    cs = nn.slices[0]
    assert cs.choices == () and cs.pairs == ()
    assert cs.loops == (Loop("Q", "Z"),)


def test_ring_critical_pair_needs_loop_quotient(pauli8):
    # reducing the two cuts in either order gives different raw endos (mZ
    # versus Z); only the loop-class quotient makes the results agree
    ring = parse_net(fixtures.RING_NET, pauli8)
    s = ring.slices[0]
    raw = {}
    for first, second in [("#c0", "#c1"), ("#c1", "#c0")]:
        cur = s
        for cid in (first, second):
            redex = next(r for r in find_redexes(cur, pauli8) if r.cut == cid)
            cur = step(cur, pauli8, redex)
        assert find_redexes(cur, pauli8) == []
        (arrow,) = [l.arrow for l in cur.links.values() if isinstance(l, AxLink)]
        raw[first] = arrow
        assert canonicalize_slice(cur, pauli8).loops == (Loop("Q", "Z"),)
    assert raw == {"#c0": "mZ", "#c1": "Z"}


def test_closed_identity_loop_is_normal(pauli8):
    text = (
        "net n\nconclusions\nslice\n  ax a : X\n"
        "  cut a.1 , a.0 : id\n  out\nend\n"
    )
    net = parse_net(text, pauli8)
    assert find_redexes(net.slices[0], pauli8) == []
    nn = normalize(net)
    assert nn.slices[0].loops == (Loop("Q", "X"),)


def test_self_cut_with_label_reduces(pauli8):
    text = (
        "net n\nconclusions\nslice\n  ax a : X\n"
        "  cut a.1 , a.0 : Z\n  out\nend\n"
    )
    net = parse_net(text, pauli8)
    reds = find_redexes(net.slices[0], pauli8)
    assert [r.rule for r in reds] == ["ax-self"]
    nn = normalize(net)
    # Z after X is ZX = -XZ, in the XZ loop class
    assert nn.slices[0].loops == (pauli8.loop_of("mXZ"),)


def test_times_cut_splits(pauli8):
    text = (
        "net n\nconclusions\nslice\n  ax a : id Q\n  ax b : id Q\n"
        "  times t = a.1 b.0\n  times u = a.0 b.1\n"
        "  cut t.0 , u.0 : id\n  out\nend\n"
    )
    net = parse_net(text, pauli8)
    reds = find_redexes(net.slices[0], pauli8)
    assert [r.rule for r in reds] == ["times"]
    nn = normalize(net)
    # everything collapses into two loops carrying identities
    assert nn.slices[0].loops == (
        Loop("Q", "id Q"),
        Loop("Q", "id Q"),
    )


def _plus_tower(first, second):
    p = "plus1 p = u.0 | I" if first == "plus1" else "plus2 p = I | u.0"
    q = "plus1 q = v.0 | I" if second == "plus1" else "plus2 q = I | v.0"
    return (
        "net n\nconclusions Q* , Q\nslice\n  ax a : id Q\n"
        "  unit u\n  unit v\n"
        f"  {p}\n  {q}\n"
        "  cut p.0 , q.0 : id\n  out a.0 , a.1\nend\n"
    )


def test_plus_cut_mismatch_deletes_slice(pauli8):
    net = parse_net(_plus_tower("plus1", "plus2"), pauli8)
    nn = normalize(net)
    assert nn.slices == ()
    empty = parse_net("net e\nconclusions Q* , Q\n", pauli8)
    assert beta_equal(net, empty)


def test_plus_cut_match_reduces_to_unit_cut(pauli8):
    net = parse_net(_plus_tower("plus1", "plus1"), pauli8)
    bell = parse_net(fixtures.BELL_NET, pauli8)
    assert beta_equal(net, bell)
    net2 = parse_net(_plus_tower("plus2", "plus2"), pauli8)
    assert beta_equal(net2, bell)


def _larger_net(cat, rng, name):
    """A random net over one or two depth-4 conclusions, up to 48 links a slice.

    ``random_net``'s own conclusions have depth 2, which keeps its slices
    under about 32 links.
    """
    concl = []
    for _ in range(rng.randint(1, 2)):
        f = Unit()
        while isinstance(f, Unit):  # a bare I conclusion is not a valid net
            f = balanced_formula(cat, rng, depth=4)
        concl.append(f)
    return random_net(cat, rng, name=name, conclusions=tuple(concl), max_links=48)


def test_step_count_bounded_by_links(pauli8, c2):
    rng = random.Random(5)
    for i in range(60):
        cat = c2 if i % 2 else pauli8
        net = _larger_net(cat, rng, f"r{i}")
        for s in net.slices:
            nlinks = len(s.links)
            nf, steps = normalize_slice(s, cat)
            assert steps <= nlinks
            if nf is not None:
                assert find_redexes(nf, cat) == []


def test_confluence_on_random_nets(pauli8, c2):
    rng = random.Random(11)
    for i in range(60):
        cat = c2 if i % 2 else pauli8
        net = _larger_net(cat, rng, f"r{i}")
        base = normalize(net, strategy="min")
        for seed in (1, 2, 3):
            assert normalize(net, strategy="random", seed=seed) == base


def test_random_strategy_confluence_on_a_long_cut_chain(pauli8, cut_chain_net):
    chain = parse_net(cut_chain_net(200), pauli8)
    base = normalize(chain)
    for seed in (1, 2, 3):
        assert normalize(chain, strategy="random", seed=seed) == base


def _trace_slices(pauli8, c2, cut_chain_net):
    """A 120-cut chain and the slices of 40 larger random nets, each with its category."""
    rng = random.Random(19)
    slices = [(s, pauli8) for s in parse_net(cut_chain_net(120), pauli8).slices]
    for i in range(40):
        cat = c2 if i % 2 else pauli8
        slices += [(s, cat) for s in _larger_net(cat, rng, f"r{i}").slices]
    return slices


def _trace(s, cat, strategy="min", seed=0):
    trace = []
    normalize_slice(s, cat, strategy, random.Random(seed), lambda *a: trace.append(a))
    return trace


def test_min_strategy_steps_the_least_redex_of_a_rescan(pauli8, c2, cut_chain_net):
    # the worklist must hold every redex a rescan of the slice finds after each step
    for s, cat in _trace_slices(pauli8, c2, cut_chain_net):
        rescan, cur = [], s
        while cur is not None and (redexes := find_redexes(cur, cat)):
            cut, rule = redexes[0]
            cur = step(cur, cat, redexes[0])
            rescan.append((cut, rule, 0 if cur is None else len(cur.links)))
        assert _trace(s, cat) == rescan


def test_random_strategy_replays_through_step(pauli8, c2, cut_chain_net):
    # each drawn cut is a redex of the slice as it stands, with the drawn rule
    for s, cat in _trace_slices(pauli8, c2, cut_chain_net):
        for seed in (1, 2, 3):
            trace = _trace(s, cat, "random", seed)
            assert trace == _trace(s, cat, "random", seed)
            cur = s
            for cut, rule, left in trace:
                cur = step(cur, cat, Redex(cut, rule))
                assert left == (0 if cur is None else len(cur.links))
            assert cur is None or find_redexes(cur, cat) == []


def _count_classified(monkeypatch):
    """The list of every cut ``_rule`` classifies from here on."""
    classified = []

    def rule(s, cat, cid, real=rewrite._rule):
        classified.append(cid)
        return real(s, cat, cid)

    monkeypatch.setattr(rewrite, "_rule", rule)
    return classified


def test_normalize_is_linear_on_a_cut_chain(pauli8, cut_chain_net, monkeypatch):
    # a step reclassifies only the cuts it touched; rescanning every cut
    # after every step would classify about n^2 / 2 of them
    n = 800
    chain = parse_net(cut_chain_net(n), pauli8)
    classified = _count_classified(monkeypatch)
    trace = []
    nn = normalize(chain, trace=trace)
    assert len(trace) == n - 1 and all(": ax-ax at " in line for line in trace)
    assert len(classified) <= 4 * n
    arrow = reduce(pauli8.compose, ["X"] + ["Z", "X"] * (n - 1))
    one = f"net one\nconclusions Q* , Q\nslice\n  ax a : {arrow}\n  out a.0 , a.1\nend\n"
    assert nn == normalize(parse_net(one, pauli8))


def test_random_strategy_is_linear_on_a_cut_chain(pauli8, cut_chain_net, monkeypatch):
    n = 800
    chain = parse_net(cut_chain_net(n), pauli8)
    classified = _count_classified(monkeypatch)
    nf, steps = normalize_slice(chain.slices[0], pauli8, "random", random.Random(1))
    assert steps == n - 1 and len(nf.links) == 1
    assert len(classified) <= 4 * n


def test_rewrite_keeps_the_consumer_map_the_inverse_of_the_wires(pauli8, c2, cut_chain_net, monkeypatch):
    # after every step of every rule, cons holds each wire reversed and each out
    # as (None, k), and nothing else: the ax-ax rule rewires both ends in place
    rules = Counter()

    def checked(w, cat, cid, rule, real=rewrite._rewrite):
        touched = real(w, cat, cid, rule)
        rules[rule] += 1
        want = {port: (None, k) for k, port in enumerate(w.outs)}
        want |= {outp: inp for inp, outp in w.wires.items()}
        assert len(want) == len(w.outs) + len(w.wires)
        assert w.cons == want
        return touched

    monkeypatch.setattr(rewrite, "_rewrite", checked)
    rng = random.Random(23)
    slices = [(s, pauli8) for n in (2, 3, 40) for s in parse_net(cut_chain_net(n), pauli8).slices]
    for i in range(40):
        cat = c2 if i % 2 else pauli8
        slices += [(s, cat) for s in _larger_net(cat, rng, f"r{i}").slices]
    for s, cat in slices:
        for strategy, seed in (("min", 0), ("random", 1)):
            normalize_slice(s, cat, strategy, random.Random(seed))
    assert rules.keys() == {"ax-self", "ax-ax", "times", "plus", "unit"}


def test_min_strategy_builds_no_rng(pauli8, cut_chain_net, monkeypatch):
    nets = [parse_net(cut_chain_net(20), pauli8), random_net(pauli8, random.Random(3))]
    want = [normalize(net) for net in nets]

    def no_rng(*args):
        raise AssertionError("the min strategy built an RNG")

    monkeypatch.setattr(rewrite.random, "Random", no_rng)
    assert [normalize(net) for net in nets] == want
    assert [normalize(net, trace=[]) for net in nets] == want


def test_normalize_idempotent(pauli8, c2):
    rng = random.Random(23)
    for i in range(20):
        cat = c2 if i % 2 else pauli8
        net = random_net(cat, rng, name=f"r{i}")
        nn = normalize(net)
        again = normalize(to_net(nn, cat, name="again"))
        assert again == nn


def test_canonicalize_reconstruct_round_trip(pauli8, c2):
    rng = random.Random(31)
    for i in range(20):
        cat = c2 if i % 2 else pauli8
        net = random_net(cat, rng, name=f"r{i}")
        for s in net.slices:
            nf, _ = normalize_slice(s, cat)
            if nf is None:
                continue
            cs = canonicalize_slice(nf, cat)
            rebuilt = reconstruct_slice(cs, net.conclusions, cat)
            assert canonicalize_slice(rebuilt, cat) == cs


def test_normal_net_sorts_slices(pauli8):
    swap = parse_net(fixtures.SWAPPING_NET, pauli8)
    nn = normalize(swap)
    assert list(nn.slices) == sorted(nn.slices)
    assert len(nn.slices) == 4
    assert isinstance(nn, NormalNet)
    assert all(isinstance(cs, CanonicalSlice) for cs in nn.slices)


def test_normalize_printable_round_trip(pauli8):
    swap = parse_net(fixtures.SWAPPING_NET, pauli8)
    nn = normalize(swap)
    printed = print_net(to_net(nn, pauli8, name="swapnf"))
    again = parse_net(printed, pauli8)
    assert normalize(again) == nn
