"""No call that returns leaves reference cycles, so what it builds is freed when its
result is dropped.

With the cyclic collector off, every stage runs over the fixture nets, a sum
tree of entanglement swaps and both random corpora; the collector then must
find nothing unreachable.
"""

import gc

from cqlnet import fixtures
from cqlnet.freecat import complete, denote, fmt_arrow, parse_arrow
from cqlnet.model import eval_free, eval_net
from cqlnet.net import parse_net, print_net, to_dot, validate_net
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
