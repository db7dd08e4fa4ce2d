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
