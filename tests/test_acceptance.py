"""End-to-end acceptance checks, one reported line per criterion."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from cqlnet import fixtures
from cqlnet.category import Loop
from cqlnet.formula import Literal, anf, anf_star, parse_formula
from cqlnet.freecat import (
    UNIT,
    FreeArrow,
    complete,
    coname_of,
    denote,
    embed,
    epsilon,
    eta,
    fa_equal,
    identity,
    injection,
    name_of,
    projection,
    scalar,
    symmetry,
    wiring_dagger,
    zero,
)
from cqlnet.model import ExactRing, Matrix, Qi2, eval_free, eval_net
from cqlnet.net import AxLink, CutLink, Net, parse_net
from cqlnet.randgen import random_anf, random_free_arrow, random_net, random_wiring
from cqlnet.rewrite import (
    beta_equal,
    canonicalize_slice,
    find_redexes,
    normalize,
    normalize_slice,
    reconstruct_slice,
    step,
    to_net,
)


def _report(num, label, check):
    try:
        check()
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    print(f"criterion {num}: PASS - {label}")


def _q(n):
    return Qi2(Fraction(n))


def _mod_for(net, c2, pauli8, c2_mod, pauli8_mod):
    return pauli8_mod if net.cat is pauli8 else c2_mod


def _is_normal_slice(s, cat):
    parent = {lid: lid for lid in s.links}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (consumer, _), (producer, _) in s.wires.items():
        parent[find(consumer)] = find(producer)
    comps = {}
    for lid in s.links:
        comps.setdefault(find(lid), []).append(lid)
    for members in comps.values():
        cuts = [l for l in members if isinstance(s.links[l], CutLink)]
        if not cuts:
            continue
        if len(members) == 2 and len(cuts) == 1:
            axes = [l for l in members if isinstance(s.links[l], AxLink)]
            cut = s.links[cuts[0]]
            if len(axes) == 1 and cut.arrow is not None and cat.is_identity(cut.arrow):
                continue
        return False
    return True


def test_criterion_1_strong_normalization(corpus):
    def check():
        for net in corpus:
            assert len(net.slices) <= 4
            assert all(len(s.links) <= 12 for s in net.slices)
            for s in net.slices:
                nlinks = len(s.links)
                nf, steps = normalize_slice(s, net.cat)
                assert steps <= nlinks
            rebuilt = to_net(normalize(net), net.cat)
            for s in rebuilt.slices:
                assert find_redexes(s, net.cat) == []
                assert _is_normal_slice(s, net.cat)

    _report(1, "strong normalization, steps bounded by link count", check)


def test_criterion_2_confluence(corpus, pauli8):
    def check():
        for net in corpus:
            base = normalize(net, strategy="min")
            for seed in (1, 7):
                assert normalize(net, strategy="random", seed=seed) == base
        # associativity critical pair: reduce the chain's two cuts in both orders
        chain = parse_net(fixtures.CHAIN_NET, pauli8)
        results = []
        for first, second in [("#c0", "#c1"), ("#c1", "#c0")]:
            cur = chain.slices[0]
            for cid in (first, second):
                redex = next(r for r in find_redexes(cur, pauli8) if r.cut == cid)
                cur = step(cur, pauli8, redex)
            results.append(canonicalize_slice(cur, pauli8))
        assert results[0] == results[1]
        assert results[0].pairs == ((0, 1, "id Q"),)
        # loop critical pair: orders give different raw endos, same loop class
        ring = parse_net(fixtures.RING_NET, pauli8)
        raw = {}
        for first, second in [("#c0", "#c1"), ("#c1", "#c0")]:
            cur = ring.slices[0]
            for cid in (first, second):
                redex = next(r for r in find_redexes(cur, pauli8) if r.cut == cid)
                cur = step(cur, pauli8, redex)
            (arrow,) = [l.arrow for l in cur.links.values() if isinstance(l, AxLink)]
            raw[first] = arrow
            assert canonicalize_slice(cur, pauli8).loops == (Loop("Q", "Z"),)
        assert raw["#c0"] != raw["#c1"]

    _report(2, "confluence across strategies and both critical pairs", check)


def test_criterion_3_soundness(
    corpus, wide_corpus, c2, pauli8, c2_mod, pauli8_mod
):
    def check():
        for net in corpus + wide_corpus:
            mod = _mod_for(net, c2, pauli8, c2_mod, pauli8_mod)
            nf_net = to_net(normalize(net), net.cat)
            assert eval_net(net, mod) == eval_net(nf_net, mod)
            assert fa_equal(denote(net), denote(nf_net))

    _report(3, "normalization preserves value and denotation", check)


def test_criterion_4_faithfulness(c2, pauli8):
    def check():
        rng = random.Random(4096)
        n_equal = n_distinct = 0
        for i in range(100):
            cat = pauli8 if i % 2 == 0 else c2
            n1 = random_net(cat, rng, name="a", max_links=12)
            mode = rng.random()
            if mode < 0.25:
                n2 = to_net(normalize(n1), cat, name="b")
            elif mode < 0.45:
                shuffled = list(n1.slices)
                rng.shuffle(shuffled)
                n2 = Net("b", n1.conclusions, tuple(shuffled), cat)
            else:
                n2 = random_net(
                    cat, rng, name="b", conclusions=n1.conclusions, max_links=12
                )
            same_denotation = fa_equal(denote(n1), denote(n2))
            same_beta = beta_equal(n1, n2)
            assert same_denotation == same_beta
            if same_beta:
                n_equal += 1
            else:
                n_distinct += 1
        assert n_equal >= 10 and n_distinct >= 10

    _report(4, "denotational equality matches rewriting equality", check)


def test_criterion_5_completeness_round_trip(c2, pauli8, inclusion, hy):
    def check():
        arrows = []
        for cats, seed in (((pauli8, c2), 777), ((inclusion, hy), 778)):
            rng = random.Random(seed)
            arrows += [random_free_arrow(cats[i % 2], rng) for i in range(100)]
        for f in arrows:
            assert len(f.dom) <= 3 and len(f.cod) <= 3
            assert all(len(w) <= 4 for w in f.dom + f.cod)
        # per category, the name of an identity: one word of 260 literals,
        # past MAX_DEPTH if its tensors nested to the left
        for cat in (pauli8, c2, inclusion, hy):
            objs = sorted(cat.objects)
            word = tuple(Literal(objs[k % len(objs)]) for k in range(130))
            arrows.append(name_of(identity(cat, (word,))))
        for f in arrows:
            net = complete(f)
            assert fa_equal(denote(net), name_of(f))

    _report(5, "free arrows reconstruct to nets with the right denotation", check)


def test_criterion_6_law_suite(pauli8, pauli8_mod):
    def check():
        rng = random.Random(321)
        q = anf(parse_formula("Q", pauli8))
        mixed = anf(parse_formula("((Q x Q) + I)", pauli8))
        for a in (q, mixed):
            sa = anf_star(a)
            left = (identity(pauli8, a) @ eta(pauli8, a)) >> (
                epsilon(pauli8, a) @ identity(pauli8, a)
            )
            assert fa_equal(left, identity(pauli8, a))
            right = (eta(pauli8, a) @ identity(pauli8, sa)) >> (
                identity(pauli8, sa) @ epsilon(pauli8, a)
            )
            assert fa_equal(right, identity(pauli8, sa))
            assert fa_equal(
                epsilon(pauli8, a),
                symmetry(pauli8, a, sa) >> eta(pauli8, a).dagger(),
            )

        def fresh_pair():
            f = random_free_arrow(pauli8, rng)
            entries = {}
            cod = random_anf(pauli8, rng)
            for i in range(len(cod)):
                for j in range(len(f.cod)):
                    entries[(i, j)] = Counter(
                        {random_wiring(pauli8, rng, f.cod[j], cod[i]): 1}
                    )
            return f, FreeArrow(pauli8, f.cod, cod, entries)

        def chain_from(base):
            entries = {}
            cod = random_anf(pauli8, rng)
            for i in range(len(cod)):
                for j in range(len(base.cod)):
                    entries[(i, j)] = Counter(
                        {random_wiring(pauli8, rng, base.cod[j], cod[i]): 1}
                    )
            return FreeArrow(pauli8, base.cod, cod, entries)

        for _ in range(5):
            f, g = fresh_pair()
            h = chain_from(g)
            # naming laws: composition on either side absorbs into the name
            assert fa_equal(
                name_of(f) >> (identity(pauli8, anf_star(f.dom)) @ g),
                name_of(f >> g),
            )
            assert fa_equal(
                name_of(g) >> (f.dual() @ identity(pauli8, g.cod)),
                name_of(f >> g),
            )
            assert fa_equal(
                (identity(pauli8, f.dom) @ name_of(g)) >> (
                    coname_of(f) @ identity(pauli8, g.cod)
                ),
                f >> g,
            )
            assert fa_equal(
                (name_of(f) @ name_of(h)) >> (
                    identity(pauli8, anf_star(f.dom))
                    @ coname_of(g)
                    @ identity(pauli8, h.cod)
                ),
                name_of(f >> g >> h),
            )

        parts = [q, mixed, UNIT]
        for i in range(3):
            for j in range(3):
                got = injection(pauli8, parts, j) >> projection(pauli8, parts, i)
                want = (
                    identity(pauli8, parts[j])
                    if i == j
                    else zero(pauli8, parts[j], parts[i])
                )
                assert fa_equal(got, want)
        whole = tuple(w for p in parts for w in p)
        total = zero(pauli8, whole, whole)
        for k in range(3):
            total = total + (
                projection(pauli8, parts, k) >> injection(pauli8, parts, k)
            )
        assert fa_equal(total, identity(pauli8, whole))

        for _ in range(5):
            f, g = fresh_pair()
            g2 = FreeArrow(pauli8, g.dom, g.cod, g.entries)
            assert fa_equal(f >> (g + g2), (f >> g) + (f >> g2))
            assert fa_equal((g + g2).dagger() >> f.dagger(), ((f >> (g + g2))).dagger())

        m = Matrix(
            ExactRing,
            [
                [Qi2(Fraction(0), Fraction(0), Fraction(1)), _q(2)],
                [_q(3), Qi2(Fraction(1), Fraction(1))],
            ],
        )
        d = m.dagger()
        assert d.at(0, 0) == Qi2(Fraction(0), Fraction(0), Fraction(-1))
        assert d.at(0, 1) == _q(3)
        assert d.at(1, 0) == _q(2)
        fm = random_free_arrow(pauli8, rng)
        assert eval_free(fm.dagger(), pauli8_mod) == eval_free(fm, pauli8_mod).dagger()

        for _ in range(10):
            dom = random_anf(pauli8, rng)[0]
            cod = random_anf(pauli8, rng)[0]
            t = random_wiring(pauli8, rng, dom, cod)
            assert wiring_dagger(pauli8, wiring_dagger(pauli8, t)) == t

    _report(6, "triangle, naming, biproduct, bilinearity and dagger laws", check)


def test_criterion_7_entanglement_swapping(pauli8, pauli8_mod):
    def check():
        swap = parse_net(fixtures.SWAPPING_NET, pauli8)
        nn = normalize(swap)
        assert len(nn.slices) == 4
        seen = {}
        for cs in nn.slices:
            assert cs.loops == ()
            assert len(cs.pairs) == 1
            (i, j, label) = cs.pairs[0]
            seen[label] = cs.choices
        assert sorted(seen) == ["X", "XZ", "Z", "id Q"]
        assert len(set(seen.values())) == 4
        xslice = next(cs for cs in nn.slices if cs.pairs[0][2] == "X")
        xnet = Net(
            "xout",
            swap.conclusions,
            (reconstruct_slice(xslice, swap.conclusions, pauli8),),
            pauli8,
        )
        col = eval_net(xnet, pauli8_mod).column()
        want = [0] * 16
        want[4:8] = [0, 1, 1, 0]
        assert col == [_q(v) for v in want]

    _report(7, "swapping net yields four tagged Bell slices, X branch checks", check)


def test_criterion_8_eta_ambiguity(pauli8):
    def check():
        split = parse_net(fixtures.BELL_NET, pauli8)
        fused = parse_net(
            "net fused\nconclusions (Q* x Q)\nslice\n  ax a : id Q\n"
            "  times t = a.0 a.1\n  out t.0\nend\n",
            pauli8,
        )
        q = anf(parse_formula("Q", pauli8))
        assert fa_equal(denote(split), eta(pauli8, q))
        assert fa_equal(denote(fused), eta(pauli8, q))
        assert fa_equal(denote(split), denote(fused))
        assert split != fused
        assert split.conclusions != fused.conclusions

    _report(8, "distinct nets share the cap denotation", check)


def test_criterion_9_oracle_independence(
    corpus, wide_corpus, c2, pauli8, c2_mod, pauli8_mod
):
    def check():
        for net in corpus + wide_corpus:
            mod = _mod_for(net, c2, pauli8, c2_mod, pauli8_mod)
            assert eval_net(net, mod) == eval_free(denote(net), mod)
        for name, cat, mod in [
            ("bell", pauli8, pauli8_mod),
            ("bellx", pauli8, pauli8_mod),
            ("chain", pauli8, pauli8_mod),
            ("ring", pauli8, pauli8_mod),
            ("swapping", pauli8, pauli8_mod),
        ]:
            net = parse_net(fixtures.EXAMPLES[name + ".net"], cat)
            assert eval_net(net, mod) == eval_free(denote(net), mod)

    _report(9, "direct evaluation agrees with evaluating the denotation", check)
