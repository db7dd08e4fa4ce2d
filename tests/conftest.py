import random

import pytest

from cqlnet import load_category
from cqlnet import fixtures
from cqlnet.model import load_model
from cqlnet.randgen import random_net


@pytest.fixture(scope="session")
def c2():
    return load_category(fixtures.C2_CAT)


@pytest.fixture(scope="session")
def pauli8():
    return load_category(fixtures.PAULI8_CAT)


@pytest.fixture(scope="session")
def c2_mod(c2):
    return load_model(fixtures.C2_MOD, c2)


@pytest.fixture(scope="session")
def c2_bool_mod(c2):
    return load_model(fixtures.C2_BOOL_MOD, c2)


@pytest.fixture(scope="session")
def pauli8_mod(pauli8):
    return load_model(fixtures.PAULI8_MOD, pauli8)


# A 2-dimensional A included in a 3-dimensional B: f is the inclusion, g = f†
# its projection back, and e = g;f the projection of B onto the image of A.
# Every other model in the suite is square, so this one catches mix-ups
# between an arrow's row and column sizes.
INCLUSION_CAT = """\
category inclusion
object A
object B
arrow f : A -> B
arrow g : B -> A
arrow e : B -> B
compose f ; g = id A
compose g ; f = e
compose e ; e = e
compose f ; e = f
compose e ; g = g
dagger f = g
dagger g = f
dagger e = e
"""

INCLUSION_MOD = """\
model inclusion23 over inclusion
dim A = 2
dim B = 3
mat f = [ [1, 0] ; [0, 1] ; [0, 0] ]
mat g = [ [1, 0, 0] ; [0, 1, 0] ]
mat e = [ [1, 0, 0] ; [0, 1, 0] ; [0, 0, 0] ]
"""


@pytest.fixture(scope="session")
def inclusion():
    return load_category(INCLUSION_CAT)


@pytest.fixture(scope="session")
def inclusion_mod(inclusion):
    return load_model(INCLUSION_MOD, inclusion)


# Entries with denominators and sqrt2 and i parts: H = (1/sqrt2) [[1, 1], [1, -1]]
# on Q and Y = [[0, -i], [i, 0]] on P.
HY_CAT = """\
category hy
object Q
object P
arrow H : Q -> Q
arrow Y : P -> P
compose H ; H = id Q
compose Y ; Y = id P
dagger H = H
dagger Y = Y
"""

HY_MOD = """\
model hy over hy
scalars exact
dim Q = 2
dim P = 2
mat H = [ [(0, 1/2, 0, 0), (0, 1/2, 0, 0)] ; [(0, 1/2, 0, 0), (0, -1/2, 0, 0)] ]
mat Y = [ [0, (0, 0, -1, 0)] ; [(0, 0, 1, 0), 0] ]
"""


@pytest.fixture(scope="session")
def hy():
    return load_category(HY_CAT)


@pytest.fixture(scope="session")
def hy_mod(hy):
    return load_model(HY_MOD, hy)


@pytest.fixture(scope="session")
def corpus(c2, pauli8):
    """200 seeded random nets of at most 12 links per slice, pauli8 and c2 alternating."""
    rng = random.Random(2024)
    nets = []
    for i in range(200):
        cat = pauli8 if i % 2 == 0 else c2
        nets.append(random_net(cat, rng, name=f"n{i}", max_links=12))
    return nets


@pytest.fixture(scope="session")
def wide_corpus(c2, pauli8):
    """120 seeded random nets of at most 48 links per slice."""
    rng = random.Random(2024)
    nets = []
    for i in range(120):
        cat = pauli8 if i % 2 == 0 else c2
        nets.append(random_net(cat, rng, name=f"w{i}", max_links=48))
    return nets


@pytest.fixture(scope="session")
def plus_chain_net():
    """Net text with two chains of n plus1 links over units, cut against each other.

    The conclusions are ``Q* , Q , (I + I)``, so the chains' label, nested n
    deep, appears only at the cut.  ``top_down`` lists each chain from its top
    link down.
    """

    def build(n, top_down=False):
        links = []
        for side in "lr":
            chain = [f"  unit {side}u"]
            chain += [f"  plus1 {side}{k} = {side}{k - 1 if k else 'u'}.0 | I" for k in range(n)]
            links += chain[::-1] if top_down else chain
        lines = ["net chain", "conclusions Q* , Q , (I + I)", "slice", "  ax a : id Q"]
        lines += ["  unit v", "  plus1 w = v.0 | I"] + links
        lines += [f"  cut l{n - 1}.0 , r{n - 1}.0 : id", "  out a.0 , a.1 , w.0", "end"]
        return "\n".join(lines) + "\n"

    return build


@pytest.fixture(scope="session")
def cut_chain_net():
    """Net text with one slice of n axioms ``X`` joined by n-1 cuts ``Z``."""

    def build(n):
        lines = ["net chain", "conclusions Q* , Q", "slice"]
        lines += [f"  ax a{k} : X" for k in range(n)]
        lines += [f"  cut a{k}.1 , a{k + 1}.0 : Z" for k in range(n - 1)]
        return "\n".join(lines + [f"  out a0.0 , a{n - 1}.1", "end"]) + "\n"

    return build


@pytest.fixture(scope="session")
def closed_tensor_net():
    """Net text with k axioms ``id Q``, each end tensored by k-1 times links.

    One formula cut joins the two tensors and there are no conclusions, so
    the net denotes the scalar 2^k in pauli8, while contracting it keeps 2^k
    keys of 2k open edges before that cut.
    """

    def build(k):
        lines = ["net closed", "conclusions", "slice"] + [f"  ax a{i} : id Q" for i in range(k)]
        for side, slot in (("t", 1), ("u", 0)):
            below = f"a0.{slot}"
            for i in range(1, k):
                lines.append(f"  times {side}{i} = {below} a{i}.{slot}")
                below = f"{side}{i}.0"
        lines += [f"  cut t{k - 1}.0 , u{k - 1}.0 : id", "  out", "end"]
        return "\n".join(lines) + "\n"

    return build


@pytest.fixture(scope="session")
def swap_tree_net():
    """Net text with 2^depth slices: slice k selects leaf k of a sum tree, then cuts each pair.

    Every slice writes the sum tree of depth ``level`` as the other side of
    its plus link at that level, so the same few formula texts recur.
    """

    def sum_tree(depth):
        return "I" if depth == 0 else f"({sum_tree(depth - 1)} + {sum_tree(depth - 1)})"

    def build(depth, pairs, arrows):
        lines = ["net swap_tree", "conclusions " + " , ".join([sum_tree(depth)] + ["Q* , Q"] * pairs)]
        for leaf in range(2**depth):
            lines += ["slice", "  unit u"]
            below = "u.0"
            for level in range(depth):
                if (leaf >> level) & 1:
                    lines.append(f"  plus2 p{level} = {sum_tree(level)} | {below}")
                else:
                    lines.append(f"  plus1 p{level} = {below} | {sum_tree(level)}")
                below = f"p{level}.0"
            outs = [below]
            for k in range(pairs):
                g = arrows[(3 * leaf + k) % len(arrows)]
                lines += [f"  ax a{k} : id Q", f"  ax b{k} : id Q", f"  cut a{k}.1 , b{k}.0 : {g}"]
                outs += [f"a{k}.0", f"b{k}.1"]
            lines += ["  out " + " , ".join(outs), "end"]
        return "\n".join(lines) + "\n"

    return build


@pytest.fixture(scope="session")
def balanced_times_net():
    """Net text with k axioms ``id Q`` whose 2k ends one balanced tree of times links joins.

    The tree splits its ports in halves, the larger half on the left, so its
    one conclusion is ceil(log2 2k) deep.
    """

    def build(k):
        lines = []

        def join(ports):  # (port, formula text) of the tree over ports
            if len(ports) == 1:
                return ports[0]
            mid = (len(ports) + 1) // 2
            (left, lf), (right, rf) = join(ports[:mid]), join(ports[mid:])
            lines.append(f"  times t{len(lines)} = {left} {right}")
            return f"t{len(lines) - 1}.0", f"({lf} x {rf})"

        ends = [(f"a{i}.{end}", ("Q*", "Q")[end]) for i in range(k) for end in (0, 1)]
        top, formula = join(ends)
        axioms = [f"  ax a{i} : id Q" for i in range(k)]
        return "\n".join(["net balanced", f"conclusions {formula}", "slice"] + axioms + lines
                         + [f"  out {top}", "end"]) + "\n"

    return build
