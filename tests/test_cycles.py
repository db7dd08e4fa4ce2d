"""No call that returns leaves reference cycles, so what it builds is freed when its
result is dropped.

With the cyclic collector off, every stage runs over the fixture nets, a sum
tree of entanglement swaps and both random corpora; the collector then must
find nothing unreachable.  The same holds for a call that raises a fault,
even one its checker held back and raised later.
"""

import gc

from cqlnet import fixtures
from cqlnet.errors import NetError, ParseError
from cqlnet.formula import Atom, DualAtom, Tensor, Unit
from cqlnet.freecat import complete, denote, fmt_arrow, parse_arrow
from cqlnet.model import eval_free, eval_net
from cqlnet.net import (
    AxLink, CutLink, Net, Slice, TimesLink, UnitLink, parse_net, print_net, to_dot, validate_net,
)
from cqlnet.rewrite import beta_equal, normalize, to_net

NETS = ("bell.net", "bellx.net", "chain.net", "ring.net", "swapping.net")


def _pipeline(net, mods):
    cat = net.cat
    n = parse_net(print_net(net), cat)
    validate_net(n)
    nf = normalize(n, trace=[])
    normalize(n, "random", seed=3, trace=[])
    print_net(to_net(nf, cat))
    to_dot(n)
    fa = denote(n)
    for mod in mods:
        eval_net(n, mod)
        eval_free(fa, mod)
    complete(parse_arrow(fmt_arrow(fa), cat))
    beta_equal(n, n)


def test_no_call_leaves_cyclic_garbage(
    c2, pauli8, c2_mod, c2_bool_mod, pauli8_mod, swap_tree_net, corpus, wide_corpus
):
    mods = {c2: (c2_mod, c2_bool_mod), pauli8: (pauli8_mod,)}
    nets = [parse_net(fixtures.EXAMPLES[name], pauli8) for name in NETS]
    nets += [parse_net(fixtures.BELL_NET, c2), parse_net(fixtures.BELLX_NET, c2)]
    nets.append(parse_net(swap_tree_net(3, 2, ["X", "Z", "XZ"]), pauli8))
    nets += corpus + wide_corpus
    gc.collect()
    gc.disable()
    try:
        for net in nets:
            _pipeline(net, mods[net.cat])
        assert gc.collect() == 0
    finally:
        gc.enable()


def _net(conclusions, *body):
    lines = [f"net n\nconclusions {conclusions}\nslice\n"] + [f"  {line}\n" for line in body]
    return "".join(lines) + "end\n"


# faults found before their turn and raised later: at the slice's end line or
# once the whole net is read
HELD_FAULT_TEXTS = (
    _net("I", "unit u", "out u.0"),  # a unit feeds a conclusion
    _net("Q , Q", "ax a : id Q", "out a.0 , a.1"),  # an out of the wrong type
    _net("Q* , Q*", "ax a : id Q", "ax b : id Q", "cut a.1 , b.1 : X", "out a.0 , b.0"),
    _net("Q* , Q*", "ax a : id Q", "ax b : id Q", "cut a.1 , b.1 : id", "out a.0 , b.0"),
)


def _built_faults(pauli8):
    """Built nets that validate_net rejects, one for each kind of fault it holds or raises."""
    q, qs = Atom("Q"), DualAtom("Q")
    a, b = AxLink("id Q"), AxLink("id Q")
    nets = []
    for links, wires, outs, conclusions in (
        ({"u": UnitLink()}, {}, (("u", 0),), (Unit(),)),
        ({"u": UnitLink(), "a": a, "#c0": CutLink(arrow="X")},
         {("#c0", 0): ("u", 0), ("#c0", 1): ("a", 0)}, (("a", 1),), (q,)),
        ({"a": a, "b": b, "#c0": CutLink(arrow="X")},
         {("#c0", 0): ("a", 1), ("#c0", 1): ("b", 1)}, (("a", 0), ("b", 0)), (qs, qs)),
        ({"a": a, "u": UnitLink(), "t": TimesLink()}, {("t", 0): ("a", 0), ("t", 1): ("u", 0)},
         (("t", 0), ("a", 1)), (Tensor(qs, q), q)),
        ({"a": a}, {}, (("a", 0),), (qs,)),
    ):
        nets.append(Net("built", conclusions, (Slice(links, wires, outs),), pauli8))
    return nets


def _fault(check, *args):
    """The text of the fault ``check(*args)`` raises; the exception is dropped on return."""
    try:
        check(*args)
    except (NetError, ParseError) as exc:
        return str(exc)
    raise AssertionError(f"{check.__name__} raised nothing")


def test_a_raised_fault_leaves_no_cyclic_garbage(pauli8):
    # a fault held until its turn is held as what builds it, not as an exception
    # whose traceback holds the frames that hold it
    gc.collect()
    gc.disable()
    try:
        faults = [_fault(parse_net, text, pauli8) for text in HELD_FAULT_TEXTS]
        faults += [_fault(validate_net, net) for net in _built_faults(pauli8)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    unit = "unit u feeds a conclusion; I must meet a plus or id cut"
    cut = "cut X: inputs Q, Q do not match"
    assert faults == [
        unit, "conclusion mismatch: Q* at a.0, want Q", cut,
        "line 6: id cut inputs Q, Q are not dual",
        unit, "unit u must feed a plus link or an id cut on I", cut,
        "times t: I may not appear under x", "port a.1 used 0 times, want exactly 1",
    ]
