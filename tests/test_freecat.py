import random
from collections import Counter

import pytest

from cqlnet import fixtures, formula, freecat, load_category
from cqlnet import net as nets
from cqlnet.category import Category, Loop
from cqlnet.errors import ParseError
from cqlnet.formula import MAX_WORDS, Literal, anf, anf_kron_all, anf_star, parse_formula
from cqlnet.freecat import (
    UNIT,
    FreeArrow,
    _inject,
    boundary,
    complete,
    coname_of,
    denote,
    embed,
    epsilon,
    eta,
    fa_equal,
    fmt_arrow,
    identity,
    injection,
    name_of,
    parse_arrow,
    projection,
    scalar,
    symmetry,
    trace_arrow,
    wiring,
    wiring_dagger,
    wiring_dual,
    zero,
)
from cqlnet.model import eval_free, eval_net, load_model
from cqlnet.net import AxLink, Net, Slice, parse_net, print_net, validate_net
from cqlnet.randgen import random_anf, random_free_arrow, random_net, random_wiring
from cqlnet.rewrite import normalize, to_net


def _anf(text, cat):
    return anf(parse_formula(text, cat))


def _arrow_onto(cat, rng, dom, cod):
    entries = {}
    for i in range(len(cod)):
        for j in range(len(dom)):
            if rng.random() < 0.3:
                continue
            c = Counter()
            for _ in range(rng.randint(1, 2)):
                c[random_wiring(cat, rng, dom[j], cod[i])] += 1
            if c:
                entries[(i, j)] = c
    return FreeArrow(cat, dom, cod, entries)


def test_identity_laws(pauli8):
    rng = random.Random(3)
    for _ in range(20):
        f = random_free_arrow(pauli8, rng)
        assert fa_equal(identity(pauli8, f.dom) >> f, f)
        assert fa_equal(f >> identity(pauli8, f.cod), f)


def test_compose_associative(pauli8):
    rng = random.Random(7)
    for _ in range(15):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.cod, random_anf(pauli8, rng))
        h = _arrow_onto(pauli8, rng, g.cod, random_anf(pauli8, rng))
        assert fa_equal((f >> g) >> h, f >> (g >> h))


def test_tensor_associative_and_unital(pauli8):
    rng = random.Random(9)
    for _ in range(10):
        f = random_free_arrow(pauli8, rng)
        g = random_free_arrow(pauli8, rng)
        h = random_free_arrow(pauli8, rng)
        assert fa_equal((f @ g) @ h, f @ (g @ h))
        one = identity(pauli8, UNIT)
        assert fa_equal(one @ f, f)
        assert fa_equal(f @ one, f)


def test_interchange(pauli8):
    rng = random.Random(13)
    for _ in range(10):
        f1 = random_free_arrow(pauli8, rng)
        g1 = _arrow_onto(pauli8, rng, f1.cod, random_anf(pauli8, rng))
        f2 = random_free_arrow(pauli8, rng)
        g2 = _arrow_onto(pauli8, rng, f2.cod, random_anf(pauli8, rng))
        assert fa_equal((f1 @ f2) >> (g1 @ g2), (f1 >> g1) @ (f2 >> g2))


def test_embed_is_a_functor(pauli8):
    for f in ["X", "Z", "XZ", "m1"]:
        for g in ["X", "Z", "id Q"]:
            lhs = embed(pauli8, f) >> embed(pauli8, g)
            rhs = embed(pauli8, pauli8.compose(f, g))
            assert fa_equal(lhs, rhs)
    assert fa_equal(embed(pauli8, "id Q"), identity(pauli8, _anf("Q", pauli8)))
    assert fa_equal(embed(pauli8, "X").dagger(), embed(pauli8, pauli8.dagger("X")))


def test_snake_identities(pauli8):
    for text in ["Q", "(Q* x Q)", "((Q x Q) + I)"]:
        a = _anf(text, pauli8)
        sa = anf_star(a)
        left = (identity(pauli8, a) @ eta(pauli8, a)) >> (
            epsilon(pauli8, a) @ identity(pauli8, a)
        )
        assert fa_equal(left, identity(pauli8, a))
        right = (eta(pauli8, a) @ identity(pauli8, sa)) >> (
            identity(pauli8, sa) @ epsilon(pauli8, a)
        )
        assert fa_equal(right, identity(pauli8, sa))


def test_epsilon_is_swapped_eta_dagger(pauli8):
    for text in ["Q", "(Q* x Q)", "((Q x Q) + I)"]:
        a = _anf(text, pauli8)
        lhs = epsilon(pauli8, a)
        rhs = symmetry(pauli8, a, anf_star(a)) >> eta(pauli8, a).dagger()
        assert fa_equal(lhs, rhs)


def test_name_absorbs_postcomposition(pauli8):
    # (id_{A*} x g) after name(f) is name(f then g)
    rng = random.Random(17)
    for _ in range(10):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.cod, random_anf(pauli8, rng))
        lhs = name_of(f) >> (identity(pauli8, anf_star(f.dom)) @ g)
        assert fa_equal(lhs, name_of(f >> g))


def test_name_absorbs_precomposition(pauli8):
    # (k* x id_B) after name(f) is name(k then f)
    rng = random.Random(19)
    for _ in range(10):
        k = random_free_arrow(pauli8, rng)
        f = _arrow_onto(pauli8, rng, k.cod, random_anf(pauli8, rng))
        lhs = name_of(f) >> (k.dual() @ identity(pauli8, f.cod))
        assert fa_equal(lhs, name_of(k >> f))


def test_name_coname_compose(pauli8):
    # (coname f x id_C) after (id_A x name g) is f then g
    rng = random.Random(23)
    for _ in range(10):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.cod, random_anf(pauli8, rng))
        a, c = f.dom, g.cod
        lhs = (identity(pauli8, a) @ name_of(g)) >> (
            coname_of(f) @ identity(pauli8, c)
        )
        assert fa_equal(lhs, f >> g)


def test_name_pair_with_coname_bridge(pauli8):
    # (id x coname g x id) after (name f x name h) is name(f then g then h)
    rng = random.Random(29)
    for _ in range(8):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.cod, random_anf(pauli8, rng))
        h = _arrow_onto(pauli8, rng, g.cod, random_anf(pauli8, rng))
        lhs = (name_of(f) @ name_of(h)) >> (
            identity(pauli8, anf_star(f.dom)) @ coname_of(g) @ identity(pauli8, h.cod)
        )
        assert fa_equal(lhs, name_of(f >> g >> h))


def test_name_then_coname_traces(pauli8):
    q = _anf("Q", pauli8)
    for f, g in [("X", "Z"), ("Z", "X"), ("XZ", "XZ"), ("id Q", "m1")]:
        mid = symmetry(pauli8, anf_star(q), q)
        got = name_of(embed(pauli8, f)) >> mid >> coname_of(embed(pauli8, g))
        want = scalar(pauli8, [pauli8.loop_of(pauli8.compose(f, g))])
        assert fa_equal(got, want)


def test_biproduct_projection_injection(pauli8):
    parts = [_anf("Q", pauli8), _anf("(Q* x Q)", pauli8), UNIT]
    for j in range(3):
        for i in range(3):
            got = injection(pauli8, parts, j) >> projection(pauli8, parts, i)
            if i == j:
                assert fa_equal(got, identity(pauli8, parts[j]))
            else:
                assert fa_equal(got, zero(pauli8, parts[j], parts[i]))


def test_inject_equals_composing_with_the_injection(pauli8):
    rng = random.Random(67)
    arrows = [random_free_arrow(pauli8, rng) for _ in range(30)]
    arrows += [zero(pauli8, _anf("Q", pauli8), _anf("(Q* + I)", pauli8)), identity(pauli8, UNIT)]
    for f in arrows:
        b = random_anf(pauli8, rng)
        for parts, k in (([f.cod, b], 0), ([b, f.cod], 1)):
            assert fa_equal(_inject(f, parts, k), f >> injection(pauli8, parts, k))


def test_biproduct_injections_sum_to_identity(pauli8):
    parts = [_anf("Q", pauli8), _anf("(Q* x Q)", pauli8), UNIT]
    whole = tuple(w for p in parts for w in p)
    total = zero(pauli8, whole, whole)
    for k in range(3):
        total = total + (projection(pauli8, parts, k) >> injection(pauli8, parts, k))
    assert fa_equal(total, identity(pauli8, whole))


def test_addition_laws(pauli8):
    rng = random.Random(31)
    for _ in range(10):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.dom, f.cod)
        h = _arrow_onto(pauli8, rng, f.cod, random_anf(pauli8, rng))
        k = _arrow_onto(pauli8, rng, random_anf(pauli8, rng), f.dom)
        z = zero(pauli8, f.dom, f.cod)
        assert fa_equal(f + g, g + f)
        assert fa_equal(f + z, f)
        assert fa_equal((f + g) >> h, (f >> h) + (g >> h))
        assert fa_equal(k >> (f + g), (k >> f) + (k >> g))
        assert fa_equal(k >> z, zero(pauli8, k.dom, z.cod))


def test_tensor_distributes_over_sum(pauli8):
    rng = random.Random(37)
    for _ in range(8):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.dom, f.cod)
        h = random_free_arrow(pauli8, rng)
        assert fa_equal((f + g) @ h, (f @ h) + (g @ h))
        assert fa_equal(h @ (f + g), (h @ f) + (h @ g))


def test_scalars_commute_and_collect_loops(pauli8):
    la = pauli8.loop_of("X")
    lb = pauli8.loop_of("mXZ")
    sa = scalar(pauli8, [la])
    sb = scalar(pauli8, [lb])
    assert fa_equal(sa @ sb, scalar(pauli8, [la, lb]))
    assert fa_equal(sa @ sb, sb @ sa)
    two = scalar(pauli8, [], mult=2)
    assert fa_equal(two, scalar(pauli8, []) + scalar(pauli8, []))
    rng = random.Random(41)
    f = random_free_arrow(pauli8, rng)
    assert fa_equal(f.scale(sa), sa @ f)
    assert fa_equal(sa @ f, f @ sa)


def test_dagger_laws(pauli8):
    rng = random.Random(43)
    for _ in range(10):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.cod, random_anf(pauli8, rng))
        h = _arrow_onto(pauli8, rng, f.dom, f.cod)
        assert fa_equal(f.dagger().dagger(), f)
        assert fa_equal((f >> g).dagger(), g.dagger() >> f.dagger())
        assert fa_equal((f @ g).dagger(), f.dagger() @ g.dagger())
        assert fa_equal((f + h).dagger(), f.dagger() + h.dagger())


def test_dual_laws(pauli8):
    rng = random.Random(47)
    for _ in range(10):
        f = random_free_arrow(pauli8, rng)
        g = _arrow_onto(pauli8, rng, f.cod, random_anf(pauli8, rng))
        assert fa_equal(f.dual().dual(), f)
        assert fa_equal((f >> g).dual(), g.dual() >> f.dual())
        assert fa_equal(f.dagger().dual(), f.dual().dagger())


def test_wiring_dagger_and_dual_involutive(pauli8):
    rng = random.Random(53)
    for _ in range(25):
        dom = tuple(random_anf(pauli8, rng)[0])
        cod = tuple(random_anf(pauli8, rng)[0])
        t = random_wiring(pauli8, rng, dom, cod)
        assert wiring_dagger(pauli8, wiring_dagger(pauli8, t)) == t
        assert wiring_dual(wiring_dual(t)) == t


@pytest.mark.parametrize("which", ["inclusion", "hy"])
def test_algebra_laws_on_two_object_categories(which, request):
    # pauli8 has one object, so it cannot tell a strand's domain from its
    # codomain; here f: A -> B and g: B -> A cross objects, and cycles through
    # the interface close on either object
    cat, mod = request.getfixturevalue(which), request.getfixturevalue(which + "_mod")
    arrows = sorted(cat.arrows)
    composable = [(a, b) for a in arrows for b in arrows if cat.cod(a) == cat.dom(b)]
    rng = random.Random(71)
    for _ in range(12):
        a, b = rng.choice(composable)
        f0 = random_free_arrow(cat, rng)
        f = f0 @ embed(cat, a)
        g = _arrow_onto(cat, rng, f0.cod, random_anf(cat, rng)) @ embed(cat, b)
        assert eval_free(f >> g, mod) == eval_free(g, mod).mul(eval_free(f, mod))
        assert eval_free(f.dagger(), mod) == eval_free(f, mod).dagger()
        for op in (FreeArrow.dagger, FreeArrow.dual):
            assert fa_equal(op(op(f)), f)
            assert fa_equal(op(f >> g), op(g) >> op(f))
    for a, b in composable:
        ab = embed(cat, a) >> embed(cat, b)
        assert fa_equal(ab, embed(cat, cat.compose(a, b)))
        if cat.cod(b) == cat.dom(a):
            got = trace_arrow(ab, UNIT, UNIT, ((Literal(cat.dom(a)),),))
            assert fa_equal(got, scalar(cat, [cat.loop_of(cat.compose(a, b))]))


def test_symmetry_composes(pauli8):
    q = _anf("Q", pauli8)
    qq = _anf("(Q* x Q)", pauli8)
    both = symmetry(pauli8, q, qq) >> symmetry(pauli8, qq, q)
    from cqlnet.formula import anf_kron

    assert fa_equal(both, identity(pauli8, anf_kron(q, qq)))
    # words given as lists build the same arrows as the tuple form
    listed = [list(w) for w in qq]
    assert fa_equal(identity(pauli8, listed), identity(pauli8, qq))
    assert fa_equal(injection(pauli8, [listed, q], 0), injection(pauli8, [qq, q], 0))
    assert fa_equal(symmetry(pauli8, q, listed), symmetry(pauli8, q, qq))
    sym = symmetry(pauli8, q, q)
    assert fa_equal(sym >> sym, identity(pauli8, anf_kron(q, q)))


def test_symmetry_is_natural_and_involutive(pauli8):
    from cqlnet.formula import anf_kron

    rng = random.Random(89)
    for _ in range(60):
        f, g = random_free_arrow(pauli8, rng), random_free_arrow(pauli8, rng)
        lhs = (f @ g) >> symmetry(pauli8, f.cod, g.cod)
        rhs = symmetry(pauli8, f.dom, g.dom) >> (g @ f)
        assert fa_equal(lhs, rhs)
        a, b = f.dom, g.cod
        back = symmetry(pauli8, a, b) >> symmetry(pauli8, b, a)
        assert fa_equal(back, identity(pauli8, anf_kron(a, b)))


def test_trace_of_tensor_with_identity(pauli8):
    q = _anf("Q", pauli8)
    g = embed(pauli8, "X")
    f = g @ identity(pauli8, q)
    got = trace_arrow(f, q, q, q)
    want = g.scale(scalar(pauli8, [pauli8.loop_of("id Q")]))
    assert fa_equal(got, want)


def test_yanking(pauli8):
    q = _anf("Q", pauli8)
    got = trace_arrow(symmetry(pauli8, q, q), q, q, q)
    assert fa_equal(got, identity(pauli8, q))


def test_fmt_parse_round_trip(pauli8):
    rng = random.Random(59)
    for _ in range(15):
        f = random_free_arrow(pauli8, rng)
        back = parse_arrow(fmt_arrow(f), pauli8)
        assert fa_equal(back, f)
        assert str(f) == fmt_arrow(f) and f != str(f)
        assert back.dom == f.dom and back.cod == f.cod
    for fa in [eta(pauli8, _anf("((Q x Q) + I)", pauli8)), scalar(pauli8, [Loop("Q", "X")])]:
        assert fa_equal(parse_arrow(fmt_arrow(fa), pauli8), fa)


def test_parse_arrow_rejects_non_integer_pair(pauli8):
    text = "arrow : I -> Q* x Q\nentry (0,0): { (pairs: x<->1 : id Q; loops:) }\n"
    with pytest.raises(ParseError, match="line 2: bad pair"):
        parse_arrow(text, pauli8)


def test_wiring_rejects_bad_pairings(pauli8):
    from cqlnet.formula import Literal

    q, qs = Literal("Q"), Literal("Q", True)
    with pytest.raises(ValueError, match="polarity"):
        wiring((q,), (q,), [(1, 0, "id Q")], (), pauli8)
    with pytest.raises(ValueError, match="cover"):
        wiring((q,), (qs, q), [(0, 2, "id Q")], (), pauli8)
    with pytest.raises(ValueError, match="out of range"):
        wiring((q,), (q,), [(0, 5, "id Q")], (), pauli8)
    from cqlnet.category import load_category

    two = load_category("category two\nobject A\nobject B\n")
    a, b = Literal("A"), Literal("B")
    with pytest.raises(ValueError, match="does not join"):
        wiring((a,), (b,), [(0, 1, "id A")], (), two)


def test_boundary_orientation(pauli8):
    from cqlnet.formula import Literal

    q, qs = Literal("Q"), Literal("Q", True)
    assert boundary((q, qs), (q,)) == (qs, q, q)


def test_free_arrow_shape_checks(pauli8):
    rng = random.Random(61)
    f = random_free_arrow(pauli8, rng)
    with pytest.raises(ValueError, match="entry"):
        FreeArrow(pauli8, f.dom, f.cod, {(99, 0): Counter()})
    g = random_free_arrow(pauli8, rng)
    while g.dom == f.cod:
        g = random_free_arrow(pauli8, rng)
    with pytest.raises(ValueError, match="compose"):
        f >> g
    with pytest.raises(TypeError):
        hash(f)


def test_free_arrow_errors_pinned(pauli8, c2):
    q = Literal("Q")
    x, qq = embed(pauli8, "X"), identity(pauli8, ((q, q),))
    cases = [
        (lambda: wiring((q,), (q,), [(0, 1, "X")], ["X"], pauli8), ValueError, "bad loop 'X'"),
        (lambda: FreeArrow(pauli8, x.dom, qq.cod, {(0, 0): x.entries[(0, 0)]}),
         ValueError, "entry (0, 0): wiring has wrong words"),
        (lambda: x >> 3, TypeError, "not a free arrow: 3"),
        (lambda: x >> embed(c2, "X"), ValueError, "free arrows over different categories"),
        (lambda: x + qq, ValueError, "add: shapes differ"),
        (lambda: x.scale(x), ValueError, "scale: not a scalar"),
        (lambda: fa_equal(x, 3), TypeError, "fa_equal wants two free arrows"),
        (lambda: fa_equal(x, qq), ValueError, "fa_equal: shapes differ: Q -> Q vs Q x Q -> Q x Q"),
        (lambda: trace_arrow(x, x.dom, x.cod, x.dom), ValueError, "trace: shape mismatch"),
    ]
    for call, kind, message in cases:
        with pytest.raises(kind) as exc:
            call()
        assert str(exc.value) == message


def test_free_arrow_drops_wirings_of_no_multiplicity(pauli8):
    x = embed(pauli8, "X")
    (t,) = x.entries[(0, 0)]
    assert FreeArrow(pauli8, x.dom, x.cod, {(0, 0): Counter({t: 0})}).entries == {}
    (z,) = embed(pauli8, "Z").entries[(0, 0)]
    both = {(0, 0): Counter({t: 2, z: -1})}
    assert FreeArrow(pauli8, x.dom, x.cod, both).entries == {(0, 0): Counter({t: 2})}


def test_denote_fixtures(pauli8):
    bell = parse_net(fixtures.BELL_NET, pauli8)
    assert fa_equal(denote(bell), name_of(embed(pauli8, "id Q")))
    bellx = parse_net(fixtures.BELLX_NET, pauli8)
    assert fa_equal(denote(bellx), name_of(embed(pauli8, "X")))
    chain = parse_net(fixtures.CHAIN_NET, pauli8)
    assert fa_equal(denote(chain), denote(bell))
    ring = parse_net(fixtures.RING_NET, pauli8)
    assert fa_equal(denote(ring), scalar(pauli8, [Loop("Q", "Z")]))


def test_complete_round_trip_on_fixtures(pauli8):
    for fa in [
        embed(pauli8, "X"),
        eta(pauli8, _anf("Q", pauli8)),
        injection(pauli8, [_anf("Q", pauli8), UNIT], 0),
        scalar(pauli8, [Loop("Q", "XZ")], mult=2),
    ]:
        net = complete(fa)
        assert fa_equal(denote(net), name_of(fa))


def _renamed(net, rename):
    """The net with every link id of every slice replaced by ``rename(ids)[id]``."""
    slices = []
    for s in net.slices:
        new = rename(sorted(s.links))
        links = {new[lid]: link for lid, link in s.links.items()}
        wires = {(new[a], i): (new[b], j) for (a, i), (b, j) in s.wires.items()}
        slices.append(Slice(links, wires, tuple((new[lid], k) for lid, k in s.outs)))
    renamed = Net(net.name, net.conclusions, tuple(slices), net.cat)
    validate_net(renamed)
    return renamed


def test_denote_ignores_link_ids(c2, pauli8):
    # new ids in reversed (or shuffled) order reorder the axioms' names in denote
    def reverse(ids):
        return {lid: f"r{len(ids) - 1 - k:03d}" for k, lid in enumerate(ids)}

    def shuffle(ids):
        return {lid: f"r{k:03d}" for k, lid in zip(rng.sample(range(len(ids)), len(ids)), ids)}

    rng = random.Random(11)
    permuted = 0
    for i in range(60):
        net = random_net(pauli8 if i % 2 == 0 else c2, rng, name=f"n{i}", max_links=16)
        permuted += any(
            sum(isinstance(link, AxLink) for link in s.links.values()) > 2
            for s in net.slices
        )
        for rename in (reverse, shuffle):
            assert fa_equal(denote(_renamed(net, rename)), denote(net))
    assert permuted > 10


def test_denote_deep_sum_tree(pauli8, pauli8_mod, swap_tree_net):
    net = parse_net(swap_tree_net(5, 2, sorted(pauli8.arrows)), pauli8)
    assert len(net.slices) == 32
    fa = denote(net)
    assert len(fa.entries) == 32
    assert eval_net(net, pauli8_mod) == eval_free(fa, pauli8_mod)
    back = complete(parse_arrow(fmt_arrow(fa), pauli8))
    assert fa_equal(denote(back), fa)


def _count_calls(monkeypatch, *names, module=freecat):
    """Count calls to the named functions of ``module`` that look them up there."""
    calls = Counter()

    def counted(name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in names:
        monkeypatch.setattr(module, name, counted(name))
    return calls


def test_to_net_and_complete_check_nothing(pauli8, monkeypatch):
    # what they rebuild is well formed by construction: no validate_net, no labels
    swap = parse_net(fixtures.SWAPPING_NET, pauli8)
    nf = normalize(swap)
    assert nf.slices
    calls = _count_calls(monkeypatch, "validate_net", "labels", module=nets)
    back = complete(denote(to_net(nf, pauli8)))
    assert calls == {}
    assert fa_equal(denote(back), name_of(denote(swap)))


def test_denote_plus_chain_checks_and_composes_no_wiring(pauli8, plus_chain_net, monkeypatch):
    # a plus link moves the slice's row; it adds no wiring to check or compose
    calls = _count_calls(monkeypatch, "wiring", "wiring_compose")
    for n in (64, 256):
        net = parse_net(plus_chain_net(n), pauli8)
        calls.clear()
        denote(net)
        assert calls == {}


def test_denote_builds_each_anf_once_and_eval_net_none(swap_tree_net, monkeypatch):
    # plus links share their other side with the conclusions, so the one ANF
    # denote builds for the conclusions covers every plus link's word count
    cat = load_category(fixtures.PAULI8_CAT)  # no node of its formula table has an ANF yet
    mod = load_model(fixtures.PAULI8_MOD, cat)
    text = swap_tree_net(5, 2, sorted(cat.arrows))
    net = parse_net(text, cat)
    calls = _count_calls(monkeypatch, "anf", module=formula)  # anf's own recursion
    denote(net)
    assert calls == {"anf": 2 * 5}  # once into each sum of the shared depth-5 tree
    calls.clear()
    eval_net(net, mod)
    assert calls == {}
    # a second parse's conclusions are the table's nodes, whose ANFs are built
    again = denote(parse_net(text, cat))
    assert calls == {} and fa_equal(again, denote(net))


def _tower_slice(second):
    # a formula cut on (I + I) joins two plus links: zero when they pick different words
    return (
        "slice\n  ax a : id Q\n  unit u\n  unit v\n  plus1 p = u.0 | I\n"
        f"  {second}\n  cut p.0 , q.0 : id\n  out a.0 , a.1\nend\n"
    )


def test_denote_builds_one_wiring_per_nonzero_slice_and_one_arrow(
    pauli8, monkeypatch, cut_chain_net
):
    # each slice's wiring is read off its strands, with no composite of wirings;
    # only the sum is a FreeArrow
    tower = "net tower\nconclusions Q* , Q\n" + _tower_slice("plus2 q = I | v.0")
    tower += _tower_slice("plus1 q = v.0 | I")
    swap = parse_net(fixtures.SWAPPING_NET, pauli8)
    calls = _count_calls(monkeypatch, "wiring_compose", "_wiring", "_arrow")
    for net, nonzero in (
        (parse_net(cut_chain_net(800), pauli8), 1),
        (swap, len(swap.slices)),
        (parse_net(tower, pauli8), 1),
    ):
        calls.clear()
        fa = denote(net)
        assert calls == {"_wiring": nonzero, "_arrow": 1}
        assert sum(sum(c.values()) for c in fa.entries.values()) == nonzero
    assert fa_equal(fa, denote(parse_net(fixtures.BELL_NET, pauli8)))


def _slice_by_compose(s, cat):
    """A slice's ``(row, wiring)`` as ``names`` followed by ``roots``, or None for zero.

    ``names`` pairs each axiom's two outputs by its arrow; ``roots`` joins each
    cut's two sides and passes the outs' leaves through.  ``wiring_compose``
    traces their composite.  This is how ``denote_slice`` was first written.
    """
    word, axioms = [], {}

    def tree(port):
        lid, slot = port
        match s.links[lid]:
            case nets.AxLink(arrow=f):
                axioms.setdefault(lid, [0, 0, f])[slot] = len(word)
                word.append(Literal(cat.cod(f)) if slot else Literal(cat.dom(f), True))
                return 0, 1
            case nets.UnitLink():
                return 0, 1
            case nets.TimesLink():
                r0, n0 = tree(s.wires[(lid, 0)])
                r1, n1 = tree(s.wires[(lid, 1)])
                return r0 * n1 + r1, n0 * n1
            case nets.PlusLink(other, right=right):
                r, n = tree(s.wires[(lid, 0)])
                return r + len(anf(other)) * right, n + len(anf(other))

    row = 0
    for port in s.outs:
        r, n = tree(port)
        row = row * n + r
    out_word, pairs = tuple(word), []
    for lid in sorted(lid for lid, link in s.links.items() if isinstance(link, nets.CutLink)):
        a, (r0, _) = len(word), tree(s.wires[(lid, 0)])
        b, (r1, _) = len(word), tree(s.wires[(lid, 1)])
        g = s.links[lid].arrow
        if g is None and r0 != r1:
            return None
        pairs += [(a, b, g)] if g is not None else freecat._id_pairs(cat, word[a:b], a, b)
    pairs += freecat._id_pairs(cat, out_word, 0, len(word))
    names = wiring((), word, [tuple(ax) for ax in axioms.values()], (), cat)
    roots = wiring(word, out_word, pairs, (), cat)
    return row, freecat.wiring_compose(cat, names, roots)


def _denote_by_compose(net):
    entries = {}
    for d in (_slice_by_compose(s, net.cat) for s in net.slices):
        if d is not None:
            entries.setdefault((d[0], 0), Counter())[d[1]] += 1
    cod = anf_kron_all([anf(f) for f in net.conclusions])
    return FreeArrow(net.cat, UNIT, cod, entries)


def _cycle_net(cat, arrows, joins, ids):
    """A closed slice: axiom ``ids[i] : arrows[i]``, its output 1 cut to the next one's output 0.

    ``joins[i]`` labels that cut.  The two joins that are None go through one
    formula cut on ``(Q x Q)`` instead, one leaf each.
    """
    k = len(arrows)
    lines = ["net cycle", "conclusions", "slice"]
    lines += [f"  ax {ids[i]} : {f}" for i, f in enumerate(arrows)]
    via = [i for i, g in enumerate(joins) if g is None]
    if via:
        lines += [f"  times t = {ids[via[0]]}.1 {ids[via[1]]}.1",
                  f"  times u = {ids[(via[0] + 1) % k]}.0 {ids[(via[1] + 1) % k]}.0",
                  "  cut t.0 , u.0 : id"]
    lines += [f"  cut {ids[i]}.1 , {ids[(i + 1) % k]}.0 : {g}"
              for i, g in enumerate(joins) if g is not None]
    return parse_net("\n".join(lines + ["  out", "end"]) + "\n", cat)


def test_denote_matches_composing_names_with_roots(
    c2, pauli8, inclusion, hy, corpus, wide_corpus, swap_tree_net, cut_chain_net
):
    # the strand walk against the wiring_compose construction it replaced
    cases = [parse_net(t, pauli8) for name, t in fixtures.EXAMPLES.items() if name.endswith(".net")]
    cases += corpus + wide_corpus
    cases += [parse_net(swap_tree_net(d, 2, sorted(pauli8.arrows)), pauli8) for d in range(1, 7)]
    cases += [parse_net(cut_chain_net(n), pauli8) for n in (1, 2, 3, 40)]
    cases += [_cycle_net(pauli8, ["X"] * k, ["Z"] * k, [f"a{i}" for i in range(k)]) for k in (1, 2, 7)]
    cases.append(_cycle_net(pauli8, ["X", "Z", "XZ", "mX", "Z"], [None, "X", None, "Z", "XZ"],
                            [f"a{i}" for i in range(5)]))
    rng = random.Random(19)
    cases += [random_net(cat, rng, name=f"r{i}") for cat in (c2, pauli8, inclusion, hy)
              for i in range(150)]
    for net in cases:
        assert fmt_arrow(denote(net)) == fmt_arrow(_denote_by_compose(net)), print_net(net)


def test_denote_reads_each_out_word_off_the_conclusions(
    c2, pauli8, inclusion, hy, corpus, swap_tree_net, monkeypatch
):
    # each wiring's codomain is the very word of the conclusions' ANF, not a rebuilt copy
    cases = [parse_net(swap_tree_net(d, 2, sorted(pauli8.arrows)), pauli8) for d in range(1, 6)]
    rng = random.Random(23)
    cases += [random_net(cat, rng) for cat in (c2, pauli8, inclusion, hy) for _ in range(30)]
    built = []

    def recorded(parts):
        built.append(anf_kron_all(parts))
        return built[-1]

    monkeypatch.setattr(freecat, "anf_kron_all", recorded)
    for net in cases + corpus:
        built.clear()
        fa = denote(net)
        (cod,) = built
        assert fa.cod is cod
        for (row, _), c in fa.entries.items():
            for t in c:
                assert t.cod is cod[row]


def test_denote_of_a_cut_chain_looks_up_no_domain_or_codomain(pauli8, cut_chain_net, monkeypatch):
    net = parse_net(cut_chain_net(3200), pauli8)
    want = fmt_arrow(denote(net))
    calls = _count_calls(monkeypatch, "dom", "cod", module=Category)
    assert fmt_arrow(denote(net)) == want
    assert calls == {}


def test_denote_formula_cut_on_more_words_than_an_anf_holds(pauli8):
    # the cut's formula has 2^13 words, past MAX_WORDS, while the net's conclusions
    # have one: denote reads the cut's literals off its leaves, not off its ANF
    k = 13
    lines = ["net big", "conclusions Q* , Q", "slice", "  ax a : id Q"]
    for side in "lr":
        for i in range(k):
            lines += [f"  unit {side}u{i}", f"  plus1 {side}p{i} = {side}u{i}.0 | I"]
        below = f"{side}p0.0"
        for i in range(1, k):
            lines.append(f"  times {side}t{i} = {below} {side}p{i}.0")
            below = f"{side}t{i}.0"
    lines += [f"  cut lt{k - 1}.0 , rt{k - 1}.0 : id", "  out a.0 , a.1", "end"]
    net = parse_net("\n".join(lines) + "\n", pauli8)
    assert 2**k > MAX_WORDS
    assert fa_equal(denote(net), name_of(identity(pauli8, anf(parse_formula("Q")))))


def test_a_loop_class_does_not_depend_on_where_its_cycle_starts(pauli8):
    # five axioms in one cycle, joined by three arrow cuts and one formula cut on (Q x Q)
    arrows, joins = ["X", "Z", "XZ", "mX", "Z"], [None, "X", None, "Z", "XZ"]
    steps = [a for f, g in zip(arrows, joins) for a in (f, g or "id Q")]
    composites = set()
    for start in range(0, len(steps), 2):
        composite = "id Q"
        for a in steps[start:] + steps[:start]:
            composite = pauli8.compose(composite, a)
        composites.add(composite)
    loops = {pauli8.loop_of(c) for c in composites}
    assert len(composites) > 1 and len(loops) == 1
    want = fmt_arrow(scalar(pauli8, loops))
    for r in range(len(arrows)):
        # the axiom at position i gets id x{i + r mod 5}: axiom -r mod 5 sorts first
        net = _cycle_net(pauli8, arrows, joins, [f"x{(i + r) % 5}" for i in range(5)])
        assert fmt_arrow(denote(net)) == want


def test_what_the_library_builds_passes_the_checks_it_skips(
    c2, pauli8, corpus, wide_corpus, swap_tree_net, plus_chain_net
):
    # to_net, complete, denote and parse_arrow do not check what they return;
    # validate_net and the checking FreeArrow(...) accept all of it
    def rebuilt(fa):
        return FreeArrow(fa.cat, fa.dom, fa.cod, fa.entries)

    texts = [fixtures.BELL_NET, fixtures.BELLX_NET, fixtures.CHAIN_NET, fixtures.RING_NET,
             fixtures.SWAPPING_NET, swap_tree_net(5, 2, sorted(pauli8.arrows)), plus_chain_net(64)]
    arrows = []
    for net in [parse_net(t, pauli8) for t in texts] + corpus + wide_corpus:
        validate_net(to_net(normalize(net), net.cat))
        fa = denote(net)
        assert rebuilt(fa) == fa
        arrows.append(fa)
    rng = random.Random(15)
    arrows += [random_free_arrow((pauli8, c2)[i % 2], rng) for i in range(300)]
    for fa in arrows:
        validate_net(complete(fa))
        again = parse_arrow(fmt_arrow(fa), fa.cat)
        assert rebuilt(again) == again == fa


def _links(net, kind=object):
    return sum(isinstance(link, kind) for s in net.slices for link in s.links.values())


def test_completed_sum_trees_round_trip_with_d_times_2_to_the_d_plus_links(
    pauli8, swap_tree_net
):
    # each of the 2^d slices picks its word under d balanced sums; at depth 8,
    # sums nested to the left over words of 3 tensors would be 258 deep
    for d in range(1, 9):
        net = parse_net(swap_tree_net(d, 2, sorted(pauli8.arrows)), pauli8)
        fa = denote(net)
        back = complete(fa)
        validate_net(back)
        assert fa_equal(denote(back), name_of(fa))
        assert _links(back, nets.PlusLink) == d * 2**d
        assert _links(back) <= _links(net)


def test_every_net_denote_accepts_completes(corpus, wide_corpus, inclusion, hy):
    rng = random.Random(17)
    two_objects = [random_net(cat, rng, name=f"n{i}", max_links=16)
                   for cat in (inclusion, hy) for i in range(60)]
    for net in corpus + wide_corpus + two_objects:
        fa = denote(net)
        back = complete(fa)
        validate_net(back)
        assert fa_equal(denote(back), name_of(fa)), print_net(net)


def test_completing_a_parsed_word_of_258_literals_round_trips(pauli8, balanced_times_net):
    # the parsed conclusion is 9 deep; its one word of 258 literals, tensored
    # to the left, would be 257 deep
    net = parse_net(balanced_times_net(129), pauli8)
    fa = denote(net)
    back = parse_net(print_net(complete(fa)), pauli8)
    assert fa_equal(denote(back), fa)
    assert back.conclusions == net.conclusions
