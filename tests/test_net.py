import hashlib
import itertools
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest

from cqlnet import fixtures, load_category
from cqlnet.errors import FormulaError, NetError, ParseError
from cqlnet import category as category_module
from cqlnet import formula as formula_module
from cqlnet import net as net_module
from cqlnet.formula import (
    MAX_DEPTH, Atom, DualAtom, Plus, Tensor, Unit, Zero, fmt, parse_formula, star,
)
from cqlnet.freecat import complete, denote, fa_equal, fmt_arrow
from cqlnet.randgen import random_free_arrow, random_net
from cqlnet.model import eval_net
from cqlnet.rewrite import normalize, normalize_slice
from cqlnet.net import (
    AxLink,
    CutLink,
    Net,
    Plus1Link,
    Plus2Link,
    PlusLink,
    Slice,
    SliceBuilder,
    TimesLink,
    UnitLink,
    cut_inputs,
    id_cut,
    labels,
    parse_net,
    print_net,
    to_dot,
    topo_order,
    validate_net,
)


def test_parse_bell(pauli8):
    net = parse_net(fixtures.BELL_NET, pauli8)
    assert net.name == "bell"
    assert net.conclusions == (DualAtom("Q"), Atom("Q"))
    assert len(net.slices) == 1
    s = net.slices[0]
    assert s.links == {"a": AxLink("id Q")}
    assert s.outs == (("a", 0), ("a", 1))


def test_labels_bell(pauli8):
    net = parse_net(fixtures.BELL_NET, pauli8)
    labs = labels(net.slices[0], pauli8)
    assert labs[("a", 0)] == DualAtom("Q")
    assert labs[("a", 1)] == Atom("Q")


def test_parse_swapping(pauli8):
    net = parse_net(fixtures.SWAPPING_NET, pauli8)
    assert len(net.slices) == 4
    assert net.conclusions[0] == parse_formula("((I + I) + (I + I))")
    for s in net.slices:
        assert len(s.outs) == 3


# an id cut on I against I matches in both orders and keeps the written one
UNIT_CUT_NET = (
    "net units\n"
    "conclusions\n"
    "slice\n"
    "  unit u0\n"
    "  unit u1\n"
    "  cut u0.0 , u1.0 : id\n"
    "  out\n"
    "end\n"
)


def test_print_parse_round_trip(pauli8):
    for text in [
        fixtures.BELL_NET,
        fixtures.BELLX_NET,
        fixtures.CHAIN_NET,
        fixtures.RING_NET,
        fixtures.SWAPPING_NET,
        UNIT_CUT_NET,
    ]:
        net = parse_net(text, pauli8)
        printed = print_net(net)
        again = parse_net(printed, pauli8)
        assert print_net(again) == printed
    assert print_net(parse_net(UNIT_CUT_NET, pauli8)) == UNIT_CUT_NET


def test_print_parse_fixed_point_on_wide_nets(wide_corpus):
    # parse numbers cuts with one counter per net, so many slices here hold
    # both #c9 or lower and #c10 or higher: they print in number order
    straddling = 0
    for net in wide_corpus:
        text = print_net(parse_net(print_net(net), net.cat))
        again = parse_net(text, net.cat)
        assert print_net(again) == text
        for s in again.slices:
            cuts = [int(lid[2:]) for lid, link in s.links.items() if isinstance(link, CutLink)]
            straddling += bool(cuts) and min(cuts) < 10 <= max(cuts)
    assert straddling > 0


def _cut_wires(s):
    return {
        cid: (s.wires[(cid, 0)], s.wires[(cid, 1)])
        for cid, link in s.links.items()
        if isinstance(link, CutLink)
    }


def _assert_cuts_oriented(s, cat):
    labs = labels(s, cat)
    for cid, (p0, p1) in _cut_wires(s).items():
        assert (labs[p0], labs[p1]) == cut_inputs(s.links[cid], cat)


def test_cuts_stored_as_written(pauli8):
    net = parse_net(fixtures.CHAIN_NET, pauli8)
    s = net.slices[0]
    # both cuts were written plain side first
    assert _cut_wires(s) == {
        "#c0": (("a", 1), ("b", 0)),
        "#c1": (("b", 1), ("c", 0)),
    }
    _assert_cuts_oriented(s, pauli8)


REVERSED_RING_NET = fixtures.RING_NET.replace("cut a.1 , b.0 : X", "cut b.0 , a.1 : X")


def test_reversed_cut_stored_plain_side_first(pauli8):
    assert REVERSED_RING_NET != fixtures.RING_NET
    net = parse_net(REVERSED_RING_NET, pauli8)
    s = net.slices[0]
    assert _cut_wires(s)["#c0"] == (("a", 1), ("b", 0))
    _assert_cuts_oriented(s, pauli8)
    assert "  cut a.1 , b.0 : X\n" in print_net(net)


def test_reversed_cut_has_same_meaning(pauli8, pauli8_mod):
    fwd = parse_net(fixtures.RING_NET, pauli8)
    rev = parse_net(REVERSED_RING_NET, pauli8)
    assert normalize(rev) == normalize(fwd)
    assert fmt_arrow(denote(rev)) == fmt_arrow(denote(fwd))
    assert eval_net(rev, pauli8_mod) == eval_net(fwd, pauli8_mod)


def test_built_cut_starred_side_first_rejected(pauli8):
    s = Slice(
        {"a": AxLink("X"), "b": AxLink("X"), "#c0": CutLink(arrow="Z")},
        {("#c0", 0): ("b", 0), ("#c0", 1): ("a", 1)},
        (("a", 0), ("b", 1)),
    )
    net = Net("built", (DualAtom("Q"), Atom("Q")), (s,), pauli8)
    with pytest.raises(NetError, match="do not match"):
        validate_net(net)
    s.wires[("#c0", 0)], s.wires[("#c0", 1)] = ("a", 1), ("b", 0)
    validate_net(net)


def test_id_cut_inference_on_atoms(pauli8):
    text = (
        "net n\n"
        "conclusions Q* , Q\n"
        "slice\n"
        "  ax a : X\n"
        "  ax b : X\n"
        "  cut a.1 , b.0 : id\n"
        "  out a.0 , b.1\n"
        "end\n"
    )
    net = parse_net(text, pauli8)
    cut = [l for l in net.slices[0].links.values() if isinstance(l, CutLink)][0]
    assert cut.arrow == "id Q"
    assert cut.formula is None


NON_DUAL_ID_CUT_NET = (
    "net n\nconclusions Q* , Q*\nslice\n  ax a : id Q\n  ax b : id Q\n"
    "  cut a.1 , b.1 : id\n  out a.0 , b.0\nend\n"
)


def test_non_dual_id_cut_on_atoms_rejected_at_its_line(pauli8):
    with pytest.raises(ParseError) as exc:
        parse_net(NON_DUAL_ID_CUT_NET, pauli8)
    assert str(exc.value) == "line 6: id cut inputs Q, Q are not dual"


def test_id_cut_orients_its_ports(pauli8):
    f, fs = ("a", 1), ("b", 0)
    assert id_cut(pauli8, Atom("Q"), f, fs) == (CutLink(arrow="id Q"), f, fs)
    assert id_cut(pauli8, DualAtom("Q"), f, fs) == (CutLink(arrow="id Q"), fs, f)
    pair = Tensor(Atom("Q"), DualAtom("Q"))
    assert id_cut(pauli8, pair, f, fs) == (CutLink(formula=pair), f, fs)


def test_plus_links_are_one_kind_with_a_side():
    f = Atom("Q")
    assert Plus1Link(f) != Plus2Link(f)
    assert Plus1Link(f) == Plus1Link(f)
    assert isinstance(Plus1Link(f), PlusLink) and isinstance(Plus2Link(f), PlusLink)
    assert (Plus1Link.right, Plus2Link.right) == (False, True)


PLUS_SIDES_NET = (
    "net sides\n"
    "conclusions (Q* + I) , (I + Q)\n"
    "slice\n"
    "  ax a : id Q\n"
    "  plus1 p = a.0 | I\n"
    "  plus2 q = I | a.1\n"
    "  out p.0 , q.0\n"
    "end\n"
)


def test_plus_sides_print_and_reparse(pauli8):
    net = parse_net(PLUS_SIDES_NET, pauli8)
    s = net.slices[0]
    assert s.links["p"] == Plus1Link(Unit()) and s.links["q"] == Plus2Link(Unit())
    labs = labels(s, pauli8)
    assert labs[("p", 0)] == Plus(DualAtom("Q"), Unit())
    assert labs[("q", 0)] == Plus(Unit(), Atom("Q"))
    assert print_net(net) == PLUS_SIDES_NET
    assert parse_net(print_net(net), pauli8).slices[0].links == s.links


def test_parse_labels_each_link_once_at_its_line_without_labels(
    pauli8, balanced_times_net, monkeypatch
):
    # parse labels each link where it reads it, or once what it waits on is read:
    # never through labels, and one label node per times or plus link
    def no_labels(slice_, cat):
        raise AssertionError("parse_net called labels")

    built = Counter()

    def counted(kind):
        return lambda *parts: built.update([kind.__name__]) or kind(*parts)

    monkeypatch.setattr(net_module, "labels", no_labels)
    monkeypatch.setattr(net_module, "Tensor", counted(Tensor))
    monkeypatch.setattr(net_module, "Plus", counted(Plus))
    for text in (fixtures.SWAPPING_NET, balanced_times_net(8)):
        for permute in (list, lambda ls: ls[::-1]):
            built.clear()
            net = parse_net(_permute_link_lines(text, permute), pauli8)
            kinds = Counter(type(link).__name__ for s in net.slices for link in s.links.values())
            assert built["Tensor"] == kinds["TimesLink"]
            assert built["Plus"] == kinds["Plus1Link"] + kinds["Plus2Link"]
            assert built["Tensor"] + built["Plus"] > 0


def test_parse_orients_arrow_cuts_by_identity(pauli8, cut_chain_net, monkeypatch):
    # axiom labels and arrow cuts share the category's atoms, so orienting a cut
    # compares no atoms by name; only the conclusion checks do, whatever the length
    calls = []
    real = formula_module._Named.__eq__

    def counted(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(formula_module._Named, "__eq__", counted)
    counts = []
    for n in (16, 64):
        calls.clear()
        parse_net(cut_chain_net(n), pauli8)
        counts.append(len(calls))
    # Q* and Q each met once by the check for a 0 conclusion and once by their out
    assert counts == [4, 4]


def test_parse_shares_one_node_per_formula_text(pauli8, swap_tree_net):
    net = parse_net(swap_tree_net(4, 2, sorted(pauli8.arrows)), pauli8)
    by_text = {}
    for s in net.slices:
        for link in s.links.values():
            if isinstance(link, PlusLink):
                assert by_text.setdefault(fmt(link.other), link.other) is link.other
    assert len(by_text) == 4  # the sum trees of depth 0 to 3, over 16 slices
    assert net.conclusions[1] is net.conclusions[3] and net.conclusions[2] is net.conclusions[4]


def test_parse_reads_each_formula_text_once(swap_tree_net, monkeypatch):
    calls = []
    real = formula_module._read

    def counted(text, cat, lineno, nodes):
        calls.append(text)
        return real(text, cat, lineno, nodes)

    monkeypatch.setattr(formula_module, "_read", counted)
    cat = load_category(fixtures.PAULI8_CAT)  # its formula table has read nothing yet
    text = swap_tree_net(4, 2, sorted(cat.arrows))
    net = parse_net(text, cat)
    # the depth-4 sum tree, Q* and Q, and the trees of depth 0 to 3 under plus
    # links, each once though each slice writes them again
    assert len(calls) == len(set(calls)) == 3 + 4
    # and no two distinct nodes are equal: the trees under plus links are
    # subformulas of the conclusion, and are its nodes
    nodes = _nodes([*net.conclusions, *_others(net)])
    assert len(set(nodes.values())) == len(nodes) == 4 + 3
    # a second parse over the category reads no text: each is in its table
    calls.clear()
    again = parse_net(text, cat)
    assert calls == [] and again == net
    assert all(f is g for f, g in zip(again.conclusions, net.conclusions))


def _nodes(formulas):
    """The distinct nodes, by identity, of the formulas and their subformulas."""
    seen, todo = {}, list(formulas)
    while todo:
        f = todo.pop()
        if id(f) not in seen:
            seen[id(f)] = f
            if isinstance(f, (Tensor, Plus)):
                todo += [f.left, f.right]
    return seen


def _others(net):
    return [link.other for s in net.slices for link in s.links.values()
            if isinstance(link, PlusLink)]


def test_parse_shares_subformulas_so_conclusion_checks_stay_on_one_spine(
    pauli8, swap_tree_net, monkeypatch
):
    # each plus link's other side is a node of the conclusions, so checking a
    # slice's conclusion descends only the d fresh sums labels built
    compares = []
    real = Plus.__eq__

    def counted(self, other):
        compares.append(self)
        return real(self, other)

    monkeypatch.setattr(Plus, "__eq__", counted)
    for d in range(2, 8):
        compares.clear()
        net = parse_net(swap_tree_net(d, 2, sorted(pauli8.arrows)), pauli8)
        assert len(compares) <= 2 * d * len(net.slices)
        nodes = _nodes(net.conclusions)
        assert len(nodes) == d + 3  # the sum trees of depth 0 to d, Q* and Q
        assert all(id(other) in nodes for other in _others(net))


def test_each_category_reads_its_own_formulas(pauli8, c2, inclusion):
    # a text one category read and checked is read and checked again by another,
    # whose atoms differ (c2 and pauli8 share their one object Q)
    assert parse_formula("(Q + Q*)", pauli8) == parse_formula("(Q + Q*)", c2)
    with pytest.raises(ParseError, match="unknown atom 'Q'"):
        parse_formula("(Q + Q*)", inclusion)
    text = _net("(Q* x Q)", "ax a : id Q", "times t = a.0 a.1", "out t.0")
    parse_net(text, pauli8)
    with pytest.raises(ParseError) as exc:
        parse_net(text, inclusion)
    assert str(exc.value) == "line 2: unknown atom 'Q'"
    assert parse_formula("(A x B*)", inclusion) == Tensor(Atom("A"), DualAtom("B"))
    for cat in (pauli8, c2):
        with pytest.raises(ParseError, match="unknown atom 'A'"):
            parse_formula("(A x B*)", cat)


def test_a_bad_formula_text_fails_on_every_parse_at_its_own_line(pauli8):
    # a text is stored only once it is checked, so no parse is served a failed read
    for lineno, text in ((2, "net n\nconclusions (I x Q)\n"),
                         (3, "net n\n# again\nconclusions (I x Q)\n"),
                         (5, _net("Q* , Q", "ax a : id Q", "plus1 p = a.0 | (I x Q)", "out a.0"))):
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                parse_net(text, pauli8)
            assert str(exc.value) == f"line {lineno}: I may not appear under x"
    assert "(I x Q)" not in pauli8.formula_table()


def test_the_formula_table_starts_over_at_its_limit(monkeypatch):
    limit = 40
    monkeypatch.setattr(category_module, "MAX_FORMULAS", limit)
    cat = load_category(fixtures.PAULI8_CAT)
    seed = dict(cat.formulas)
    parts = ["Q", "Q*", "I", "(Q x Q)", "(Q x Q*)", "(Q* x Q)", "(Q* x Q*)", "(Q + I)",
             "(I + Q*)", "(Q + Q)"]
    texts = [f"({a} + {b})" for a in parts for b in parts]
    tables = [cat.formulas]
    for text in texts:
        parse_formula(text, cat)
        # a read adds its text, its sum, and at most two nodes of each side
        assert len(cat.formulas) < limit + 6
        if cat.formulas is not tables[-1]:
            tables.append(cat.formulas)
    assert len(tables) > 5
    for table in tables:  # each started from the category's atoms
        assert all(table[key] is atom for key, atom in seed.items())
    assert all(parse_formula(text, cat) == parse_formula(text) for text in texts)


def test_nets_parsed_across_a_reset_of_the_table_are_equal(swap_tree_net, monkeypatch):
    monkeypatch.setattr(category_module, "MAX_FORMULAS", 8)
    cat = load_category(fixtures.PAULI8_CAT)
    text = swap_tree_net(3, 2, sorted(cat.arrows))
    table = cat.formula_table()
    before = parse_net(text, cat)
    completed = print_net(complete(denote(before)))
    assert len(table) >= 8  # so the next call starts a new table
    after = parse_net(text, cat)
    assert cat.formulas is not table and after.conclusions[0] is not before.conclusions[0]
    assert after == before and print_net(after) == print_net(before)
    assert normalize(after) == normalize(before)
    assert fa_equal(denote(after), denote(before))
    assert print_net(complete(denote(before))) == completed
    # the two tables' nodes still meet by ==
    validate_net(Net("mixed", before.conclusions, after.slices, cat))


def _keeps(table, written):
    """Whether ``table`` holds an entry keyed by the line text ``written``."""
    return any(type(key) is tuple and written in key[1:] for key in table)


def test_a_bad_arrow_cut_label_or_plus_side_fails_on_every_parse_at_its_own_line(pauli8):
    # an arrow, a cut label or a plus side is stored only once it is checked, as a
    # formula text is, so no parse is served a failed read
    ends = ("ax a : id Q", "ax b : id Q")
    for lineno, written, message, text in (
        (4, " nope", "unknown arrow 'nope'", _net("Q* , Q", "ax a : nope", "out a.0 , a.1")),
        (6, " nope", "unknown cut label 'nope'",
         _net("Q* , Q", *ends, "cut a.1 , b.0 : nope", "out a.0 , b.1")),
        (6, " 0", "0 may only appear as a whole formula",
         _net("Q* , Q", *ends, "plus1 p = b.1 | 0", "out a.0 , p.0")),
        (6, " (I x Q)", "I may not appear under x",
         _net("Q* , Q", *ends, "plus1 p = b.1 | (I x Q)", "out a.0 , p.0")),
    ):
        for _ in range(2):
            with pytest.raises(ParseError) as exc:
                parse_net(text, pauli8)
            assert str(exc.value) == f"line {lineno}: {message}"
        assert not _keeps(pauli8.formula_table(), written)


def test_each_category_reads_its_own_arrows():
    # an arrow one category read and checked is read and checked again by another:
    # Z is an arrow of pauli8, not of c2
    text = _net("Q* , Q", "ax a : Z", "out a.0 , a.1")
    for order in ((fixtures.PAULI8_CAT, fixtures.C2_CAT), (fixtures.C2_CAT, fixtures.PAULI8_CAT)):
        cats = [load_category(cat_text) for cat_text in order]
        for _ in range(2):
            for cat in cats:
                if "Z" in cat.arrows:
                    assert parse_net(text, cat).slices[0].links["a"] == AxLink("Z")
                else:
                    with pytest.raises(ParseError) as exc:
                        parse_net(text, cat)
                    assert str(exc.value) == "line 4: unknown arrow 'Z'"


def test_parses_over_one_category_share_its_links(cut_chain_net):
    cat = load_category(fixtures.PAULI8_CAT)

    def links(net):
        return [link for s in net.slices for link in s.links.values()]

    text = _net("Q* , (Q + Q) , Q* , (Q + Q)", "ax a : X", "ax b :  X", "plus1 p = a.1 | Q",
                "plus1 q = b.1 |  Q", "out a.0 , p.0 , b.0 , q.0")
    one, two = links(parse_net(text, cat)), links(parse_net(text, cat))
    assert one[0] is one[1] is two[0] is two[1]  # one AxLink for X, as written either way
    assert one[2] is two[2] and one[3] is two[3]  # one PlusLink per written side
    assert one[2] == one[3] and one[2] is not one[3]
    # normalizing a chain of X axioms joined by Z cuts gives the category's one
    # AxLink for the composite, the one a parse of that arrow gives
    composite = cat.compose(cat.compose("X", "Z"), "X")
    nf, _ = normalize_slice(parse_net(cut_chain_net(2), cat).slices[0], cat)
    axiom = links(parse_net(_net("Q* , Q", f"ax a : {composite}", "out a.0 , a.1"), cat))[0]
    assert list(nf.links.values()) == [axiom] and nf.links["a0"] is axiom


def test_line_entries_start_over_with_the_formula_table(monkeypatch):
    limit = 8
    monkeypatch.setattr(category_module, "MAX_FORMULAS", limit)
    cat = load_category(fixtures.PAULI8_CAT)
    text = _net("Q* , (Q + Q)", "ax a : X", "ax b : Z", "plus1 p = b.1 | Q", "cut a.1 , b.0 : Z",
                "out a.0 , p.0")
    table = cat.formula_table()
    before = parse_net(text, cat)
    assert _keeps(table, " X") and _keeps(table, " Z") and _keeps(table, "Q* , (Q + Q)")
    assert len(table) >= limit  # so the next call starts a new table
    after = parse_net(text, cat)
    assert cat.formulas is not table and _keeps(cat.formulas, " X")
    links, again = before.slices[0].links, after.slices[0].links
    assert all(again[lid] is not links[lid] for lid in ("a", "b", "p", "#c0"))
    assert after == before and print_net(after) == print_net(before)
    assert normalize(after) == normalize(before)
    # each spelling of one arrow is an entry, yet the table never grows past its limit
    # by more than one call's entries
    for k in range(10_000):
        parse_net(_net("Q* , Q", "ax a :" + " " * k + "X", "out a.0 , a.1"), cat)
        assert len(cat.formulas) < limit + 6


def test_print_net_formats_each_distinct_node_once(swap_tree_net, monkeypatch):
    calls = Counter()
    real = formula_module._fmt

    def counted(f):
        calls[id(f)] += 1
        return real(f)

    monkeypatch.setattr(formula_module, "_fmt", counted)
    for d in (3, 6):
        cat = load_category(fixtures.PAULI8_CAT)  # no node of its table is formatted yet
        net_text = swap_tree_net(d, 2, sorted(cat.arrows))
        back = complete(denote(parse_net(net_text, cat)))
        calls.clear()
        text = print_net(back)
        assert calls.keys() == _nodes([*back.conclusions, *_others(back)]).keys()
        assert set(calls.values()) == {1}
        calls.clear()
        assert print_net(back) == text and not calls
        # a second completion is built of the table's nodes, each formatted already
        again = complete(denote(parse_net(net_text, cat)))
        assert print_net(again) == text and not calls


def test_id_cut_inference_on_compounds(pauli8):
    text = (
        "net n\n"
        "conclusions\n"
        "slice\n"
        "  ax a : id Q\n"
        "  ax b : id Q\n"
        "  times t = a.1 b.0\n"
        "  times u = a.0 b.1\n"
        "  cut t.0 , u.0 : id\n"
        "  out\n"
        "end\n"
    )
    net = parse_net(text, pauli8)
    cut = [l for l in net.slices[0].links.values() if isinstance(l, CutLink)][0]
    assert cut.formula == Tensor(Atom("Q"), DualAtom("Q"))


def test_port_used_twice_rejected(pauli8):
    text = (
        "net n\nconclusions Q* , Q*\nslice\n  ax a : id Q\n"
        "  out a.0 , a.0\nend\n"
    )
    with pytest.raises(NetError, match="2 times"):
        parse_net(text, pauli8)


def test_dangling_output_rejected(pauli8):
    text = "net n\nconclusions Q*\nslice\n  ax a : id Q\n  out a.0\nend\n"
    with pytest.raises(NetError, match="0 times"):
        parse_net(text, pauli8)


def test_conclusion_mismatch_rejected(pauli8):
    text = "net n\nconclusions Q , Q\nslice\n  ax a : id Q\n  out a.0 , a.1\nend\n"
    with pytest.raises(NetError, match="conclusion mismatch"):
        parse_net(text, pauli8)


def test_out_arity_mismatch_rejected(pauli8):
    text = "net n\nconclusions Q*\nslice\n  ax a : id Q\n  out a.0 , a.1\nend\n"
    with pytest.raises(NetError, match="declares"):
        parse_net(text, pauli8)


def test_cut_type_mismatch_rejected(pauli8):
    text = (
        "net n\nconclusions Q* , Q*\nslice\n  ax a : id Q\n  ax b : id Q\n"
        "  cut a.1 , b.1 : X\n  out a.0 , b.0\nend\n"
    )
    with pytest.raises(NetError, match="do not match"):
        parse_net(text, pauli8)


def test_dangling_unit_rejected(pauli8):
    text = "net n\nconclusions I\nslice\n  unit u\n  out u.0\nend\n"
    with pytest.raises(NetError, match="unit"):
        parse_net(text, pauli8)


def test_unit_under_times_rejected(pauli8):
    # the times links produce (Q x I) and (Q* x I), which the label pass rejects
    text = (
        "net n\nconclusions Q* , Q\nslice\n"
        "  unit u\n  unit v\n  ax a : id Q\n  ax b : id Q\n"
        "  times t = a.1 u.0\n  times w = b.0 v.0\n"
        "  cut t.0 , w.0 : id\n  out b.1 , a.0\nend\n"
    )
    with pytest.raises(NetError, match="I may not"):
        parse_net(text, pauli8)


def test_unit_feeding_id_cut_allowed(pauli8):
    text = (
        "net n\nconclusions\nslice\n  unit u\n  unit v\n"
        "  cut u.0 , v.0 : id\n  out\nend\n"
    )
    net = parse_net(text, pauli8)
    cut = [l for l in net.slices[0].links.values() if isinstance(l, CutLink)][0]
    assert cut.formula is not None


def test_zero_conclusion_with_slices_rejected(pauli8):
    # also a dangling a.1: the conclusion is reported before the slice
    text = "net n\nconclusions 0\nslice\n  ax a : id Q\n  out a.0\nend\n"
    with pytest.raises(NetError, match="conclusion 0 must have no slices"):
        parse_net(text, pauli8)


def test_zero_conclusion_empty_net(pauli8):
    net = parse_net("net n\nconclusions 0\n", pauli8)
    assert net.slices == ()
    validate_net(net)


def test_cyclic_wiring_rejected(pauli8):
    # two times links feeding each other
    text = (
        "net n\nconclusions\nslice\n  ax a : id Q\n"
        "  times t = w.0 a.0\n  times w = t.0 a.1\n  out\nend\n"
    )
    with pytest.raises(NetError, match="cyclic"):
        parse_net(text, pauli8)


def test_unknown_arrow_rejected(pauli8):
    text = "net n\nconclusions Q* , Q\nslice\n  ax a : W\n  out a.0 , a.1\nend\n"
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_net(text, pauli8)


def test_unknown_port_rejected(pauli8):
    text = "net n\nconclusions Q* , Q\nslice\n  ax a : id Q\n  out z.0 , a.1\nend\n"
    with pytest.raises(ParseError, match="unknown link"):
        parse_net(text, pauli8)


def test_non_ascii_digit_slot_rejected(pauli8):
    # str.isdigit accepts the superscript two, which int() cannot read
    # and a digit run past Python's int-conversion limit, which int() refuses
    for slot in ("\u00b2", "1" * 5000):
        text = f"net n\nconclusions Q* , Q\nslice\n  ax a : id Q\n  out a.0 , a.{slot}\nend\n"
        with pytest.raises(ParseError, match="line 5: bad port"):
            parse_net(text, pauli8)


def test_deep_link_chain_rejected(pauli8, plus_chain_net):
    # 1,500 nested plus links: labels are built producers first, so the first
    # link too deep is l256 whichever way the chain is written
    for top_down in (False, True):
        text = plus_chain_net(1500, top_down)
        with pytest.raises(NetError, match="link l256: label nested deeper than 256"):
            parse_net(text, pauli8)


def test_duplicate_link_id_rejected(pauli8):
    text = (
        "net n\nconclusions Q* , Q\nslice\n  ax a : id Q\n  ax a : X\n"
        "  out a.0 , a.1\nend\n"
    )
    with pytest.raises(ParseError, match="duplicate link id"):
        parse_net(text, pauli8)


def test_missing_out_rejected(pauli8):
    text = "net n\nconclusions Q* , Q\nslice\n  ax a : id Q\nend\n"
    with pytest.raises(ParseError, match="no out line"):
        parse_net(text, pauli8)


def test_topo_order_producers_first(pauli8):
    net = parse_net(fixtures.SWAPPING_NET, pauli8)
    for s in net.slices:
        order = topo_order(s)
        pos = {lid: k for k, lid in enumerate(order)}
        for (lid, _), (pid, _) in s.wires.items():
            if not isinstance(s.links[lid], CutLink):
                assert pos[pid] < pos[lid]


def _levels(slice_):
    """topo_order as a rescan: each round takes every link whose producers are placed."""
    order, remaining = [], {lid for lid, l in slice_.links.items() if not isinstance(l, CutLink)}
    while remaining:
        ready = sorted(
            lid for lid in remaining
            if all(slice_.wires[(lid, k)][0] in order for k in range(slice_.links[lid].n_in))
        )
        if not ready:
            raise NetError("cyclic wiring")
        order += ready
        remaining -= set(ready)
    return order


def test_topo_order_matches_a_level_by_level_rescan(pauli8, c2):
    rng = random.Random(29)
    texts = [text for name, text in fixtures.EXAMPLES.items() if name.endswith(".net")]
    nets = [parse_net(text, pauli8) for text in texts]
    nets += [random_net(c2 if i % 2 else pauli8, rng, max_links=32) for i in range(60)]
    for s in (s for net in nets for s in net.slices):
        assert topo_order(s) == _levels(s)
    links = {"a": AxLink("id Q"), "t": TimesLink(), "w": TimesLink()}
    wires = {("t", 0): ("w", 0), ("t", 1): ("a", 0), ("w", 0): ("t", 0), ("w", 1): ("a", 1)}
    with pytest.raises(NetError, match="cyclic wiring"):
        topo_order(Slice(links, wires, ()))
    with pytest.raises(NetError, match="cyclic wiring"):
        labels(Slice(links, wires, ()), pauli8)


def _labels_by_dfs(slice_, cat):
    """labels as a recursive walk down from each output, memoized, with its own cycle check."""
    memo, depth, state = {}, {}, {}

    def lab(port, frames):
        if port in memo:
            return memo[port]
        if state.get(port) == "open":
            raise NetError("cyclic wiring")
        lid, slot = port
        if frames > MAX_DEPTH:
            raise NetError(f"link {lid}: label nested deeper than {MAX_DEPTH}")
        state[port] = "open"
        link = slice_.links[lid]
        d = 0
        if isinstance(link, AxLink):
            out = DualAtom(cat.dom(link.arrow)) if slot == 0 else Atom(cat.cod(link.arrow))
        elif isinstance(link, UnitLink):
            out = Unit()
        elif isinstance(link, TimesLink):
            p0, p1 = slice_.wires[(lid, 0)], slice_.wires[(lid, 1)]
            l0, l1 = lab(p0, frames + 1), lab(p1, frames + 1)
            if isinstance(l0, Unit) or isinstance(l1, Unit):
                raise NetError(f"times {lid}: I may not appear under x")
            out, d = Tensor(l0, l1), 1 + max(depth[p0], depth[p1])
        else:
            p = slice_.wires[(lid, 0)]
            below = lab(p, frames + 1)
            out = Plus(link.other, below) if link.right else Plus(below, link.other)
            d = 1 + depth[p]
        if d > MAX_DEPTH:
            raise NetError(f"link {lid}: label nested deeper than {MAX_DEPTH}")
        depth[port], state[port], memo[port] = d, "done", out
        return out

    for lid, link in slice_.links.items():
        for slot in range(link.n_out):
            lab((lid, slot), 0)
    return memo


def test_labels_match_a_recursive_walk(pauli8, c2, corpus, wide_corpus):
    rng = random.Random(31)
    texts = [text for name, text in fixtures.EXAMPLES.items() if name.endswith(".net")]
    nets = [parse_net(text, pauli8) for text in texts] + corpus + wide_corpus
    nets += [random_net(c2 if i % 2 else pauli8, rng, max_links=32) for i in range(60)]
    for net in nets:
        for s in net.slices:
            assert labels(s, net.cat) == _labels_by_dfs(s, net.cat)


def _labels_along_topo_order(slice_, cat):
    """labels as it was first written: every producer in turn along ``topo_order``."""
    labs, depth, pairs = {}, {}, {}
    for lid in topo_order(slice_):
        link = slice_.links[lid]
        if isinstance(link, AxLink):
            if link.arrow not in pairs:
                pairs[link.arrow] = DualAtom(cat.dom(link.arrow)), Atom(cat.cod(link.arrow))
            labs[(lid, 0)], labs[(lid, 1)] = pairs[link.arrow]
            continue
        if isinstance(link, UnitLink):
            out, d = Unit(), 0
        elif isinstance(link, TimesLink):
            p0, p1 = slice_.wires[(lid, 0)], slice_.wires[(lid, 1)]
            l0, l1 = labs[p0], labs[p1]
            if isinstance(l0, Unit) or isinstance(l1, Unit):
                raise NetError(f"times {lid}: I may not appear under x")
            out, d = Tensor(l0, l1), 1 + max(depth.get(p0, 0), depth.get(p1, 0))
        else:
            p = slice_.wires[(lid, 0)]
            out = Plus(link.other, labs[p]) if link.right else Plus(labs[p], link.other)
            d = 1 + depth.get(p, 0)
        if d > MAX_DEPTH:
            raise NetError(f"link {lid}: label nested deeper than {MAX_DEPTH}")
        labs[(lid, 0)], depth[(lid, 0)] = out, d
    return labs


_LINK_HEADS = {"ax", "cut", "times", "plus1", "plus2", "unit"}


def _permute_link_lines(text, permute):
    """``text`` with each slice's link lines, in their places, in the order ``permute`` gives."""
    lines, block = text.splitlines(keepends=True), []
    for k, line in enumerate(lines):
        head = line.partition("#")[0].split()[:1]
        if head and head[0] in _LINK_HEADS:
            block.append(k)
        elif head == ["end"]:
            for at, moved in zip(block, permute([lines[i] for i in block])):
                lines[at] = moved
            block = []
    return "".join(lines)


def test_labels_in_written_order_match_topo_order_in_any_line_order(
    c2, pauli8, inclusion, hy, corpus, wide_corpus, swap_tree_net, cut_chain_net
):
    # the same labels whatever order a slice's links are written in: as printed
    # (producers first), reversed (consumers first) and shuffled
    cases = [(t, pauli8) for name, t in fixtures.EXAMPLES.items() if name.endswith(".net")]
    cases += [(print_net(net), net.cat) for net in corpus + wide_corpus]
    cases += [(swap_tree_net(d, 2, sorted(pauli8.arrows)), pauli8) for d in range(1, 7)]
    cases += [(cut_chain_net(n), pauli8) for n in (1, 2, 3, 40)]
    rng = random.Random(37)
    cases += [(print_net(random_net(cat, rng, name=f"r{i}")), cat)
              for cat in (c2, pauli8, inclusion, hy) for i in range(40)]
    for text, cat in cases:
        want = [_labels_along_topo_order(s, cat) for s in parse_net(text, cat).slices]
        for permute in (list, lambda ls: ls[::-1], lambda ls: rng.sample(ls, len(ls))):
            net = parse_net(_permute_link_lines(text, permute), cat)
            assert [labels(s, cat) for s in net.slices] == want, text


CYCLIC_NET = """net cyclic
conclusions Q* , Q
slice
  ax a : id Q
  ax b : id Q
  plus1 p = w.0 | I
  times t = p.0 a.0
  times w = t.0 a.1
  out b.0 , b.1
end
"""


def test_cyclic_wiring_in_every_line_order(pauli8):
    for order in itertools.permutations(range(5)):
        text = _permute_link_lines(CYCLIC_NET, lambda ls: [ls[i] for i in order])
        with pytest.raises(NetError, match="cyclic wiring"):
            parse_net(text, pauli8)


def test_plus_chain_written_consumers_first_parses_to_the_depth_limit(pauli8, plus_chain_net):
    net = parse_net(plus_chain_net(MAX_DEPTH, top_down=True), pauli8)
    (s,) = net.slices
    assert labels(s, pauli8) == _labels_along_topo_order(s, pauli8)
    with pytest.raises(NetError, match=f"nested deeper than {MAX_DEPTH}"):
        parse_net(plus_chain_net(MAX_DEPTH + 1, top_down=True), pauli8)


# sha256 of the texts below.  The benchmark's random workload is drawn by the
# same randgen calls, so a change in randgen's draws or in the ids it gives
# would silently change that workload: move the first two digests only on
# purpose.  The third pins what complete builds from the drawn arrows.
RANDGEN_NETS_DIGEST = "bb3ef74615953ac7950f063720b61136d5df2a9439084921e861236f5aabdb2a"
RANDGEN_ARROWS_DIGEST = "84ba16fa9577393fce8eab56a5e2c70bf78bcf7949e2ad4332fa7f082bc7632d"
COMPLETED_DIGEST = "881488060c6b22d6c9246c11bec414c9f45713e7d04d0561dcd0e6e5709d6fca"


def test_randgen_output_is_pinned(pauli8, c2):
    def digest(texts):
        return hashlib.sha256("".join(texts).encode()).hexdigest()

    rng = random.Random(13)
    nets = [print_net(random_net(pauli8 if i % 2 else c2, rng, max_links=24)) for i in range(40)]
    arrows = [random_free_arrow(pauli8 if i % 2 else c2, rng) for i in range(20)]
    assert digest(nets) == RANDGEN_NETS_DIGEST
    assert digest(map(fmt_arrow, arrows)) == RANDGEN_ARROWS_DIGEST
    assert digest(print_net(complete(fa)) for fa in arrows) == COMPLETED_DIGEST


def test_slice_builder_realizes_components(pauli8):
    f = parse_formula("((Q* x Q) + I)")
    b = SliceBuilder()
    lid = b.add("a", AxLink("id Q"))
    top = b.realize_choices(f, iter([False]), iter([(lid, 0), (lid, 1)]))
    assert top == ("p0", 0)
    assert b.links == {"a0": AxLink("id Q"), "t0": TimesLink(), "p0": Plus1Link(Unit())}
    assert b.wires == {("t0", 0): ("a0", 0), ("t0", 1): ("a0", 1), ("p0", 0): ("t0", 0)}
    net = Net("built", (f,), (Slice(b.links, b.wires, (top,)),), pauli8)
    validate_net(net)


def test_slice_builder_unit_component(pauli8):
    f = parse_formula("((Q* x Q) + I)")
    b = SliceBuilder()
    top = b.realize_choices(f, iter([True]), iter([]))
    assert b.links == {"u0": UnitLink(), "p0": Plus2Link(parse_formula("(Q* x Q)"))}
    net = Net("built", (f,), (Slice(b.links, b.wires, (top,)),), pauli8)
    validate_net(net)
    b.add_loop(pauli8, pauli8.loop_of("X"))
    assert b.wires[("#c0", 0)] == ("a0", 1) and b.wires[("#c0", 1)] == ("a0", 0)
    validate_net(Net("looped", (f,), (Slice(b.links, b.wires, (top,)),), pauli8))


def test_to_dot_mentions_slices_and_conclusions(pauli8):
    net = parse_net(fixtures.SWAPPING_NET, pauli8)
    dot = to_dot(net)
    assert "cluster_0" in dot and "cluster_3" in dot
    assert "concl_2" in dot
    assert dot.count("style=dashed") == 12


def test_to_dot_escapes_quotes_and_backslashes(pauli8):
    text = 'net n\nconclusions Q* , Q\nslice\n  ax a"b\\c : X\n  out a"b\\c.0 , a"b\\c.1\nend\n'
    dot = to_dot(parse_net(text, pauli8))
    assert 'label="ax a\\"b\\\\c: X"' in dot
    # every quote and backslash sits inside a well-formed DOT string
    assert not re.search(r'["\\]', re.sub(r'"(?:[^"\\]|\\.)*"', "", dot))


def test_to_dot_labels_times_links_and_their_tensor_edges(pauli8):
    # two times links whose outputs meet at a formula cut
    text = (
        "net n\nconclusions\nslice\n  ax a : id Q\n  ax b : id Q\n"
        "  times t = a.1 b.0\n  times u = a.0 b.1\n  cut t.0 , u.0 : id\n  out\nend\n"
    )
    dot = to_dot(parse_net(text, pauli8))
    assert '    s0_n3 [label="times t"];\n' in dot
    assert '    s0_n4 [label="times u"];\n' in dot
    assert '    s0_n0 [label="cut: id (Q x Q*)"];\n' in dot
    # each times link's out edge carries the tensor of its inputs' formulas
    assert '    s0_n3 -> s0_n0 [label="(Q x Q*)"];\n' in dot
    assert '    s0_n4 -> s0_n0 [label="(Q* x Q)"];\n' in dot


def test_net_str_is_printable(pauli8):
    net = parse_net(fixtures.BELL_NET, pauli8)
    assert str(net) == print_net(net)


# every NetError parse_net raises, with its exact text; one fault per net
# unless a case says otherwise
def _slice(body):
    return "slice\n" + "".join(f"  {line}\n" for line in body) + "end\n"


def _net(conclusions, *body):
    return f"net n\nconclusions {conclusions}\n" + _slice(body)


NET_ERROR_CASES = [
    (_net("Q*", "ax a : id Q", "out a.0"), "port a.1 used 0 times, want exactly 1"),
    (_net("Q* , Q*", "ax a : id Q", "out a.0 , a.0"), "port a.0 used 2 times, want exactly 1"),
    (_net("(Q* x Q) , Q*", "ax a : id Q", "times t = a.0 a.1", "out t.0 , a.0"),
     "port a.0 used 2 times, want exactly 1"),
    # a second use spelled another way than the first is counted all the same
    (_net("Q* , Q , Q", "ax a0 : id Q", "ax b : id Q", "cut a0.1 , b.0 : id",
          "out a0.0 , a0 .1 , b.1"),
     "port a0.1 used 2 times, want exactly 1"),
    (_net("Q*", "ax a0 : id Q", "ax b : id Q", "cut a0 .1 , b.0 : id", "out a0.0"),
     "port b.1 used 0 times, want exactly 1"),
    (_net("Q*", "ax a : id Q", "out a.0 , a.1"), "slice has 2 conclusions, net declares 1"),
    (_net("Q , Q", "ax a : id Q", "out a.0 , a.1"), "conclusion mismatch: Q* at a.0, want Q"),
    (_net("Q* , Q*", "ax a : id Q", "ax b : id Q", "cut a.1 , b.1 : X", "out a.0 , b.0"),
     "cut X: inputs Q, Q do not match"),
    # written starred side first and still wrong: reported as written
    (_net("Q , Q", "ax a : Z", "ax b : id Q", "cut b.0 , a.0 : X", "out a.1 , b.1"),
     "cut X: inputs Q*, Q* do not match"),
    (_net("I", "unit u", "out u.0"), "unit u feeds a conclusion; I must meet a plus or id cut"),
    # the cut is wrong too: the unit is reported first
    (_net("Q", "unit u", "ax a : id Q", "cut u.0 , a.0 : X", "out a.1"),
     "unit u must feed a plus link or an id cut on I"),
    (_net("0", "ax a : id Q", "out a.0 , a.1"), "a net with conclusion 0 must have no slices"),
    (_net("", "ax a : id Q", "times t = w.0 a.0", "times w = t.0 a.1", "out"), "cyclic wiring"),
    (_net("Q* , Q", "unit u", "unit v", "ax a : id Q", "ax b : id Q", "times t = a.1 u.0",
          "times w = b.0 v.0", "cut t.0 , w.0 : id", "out b.1 , a.0"),
     "times t: I may not appear under x"),
]


@pytest.mark.parametrize("text,message", NET_ERROR_CASES)
def test_parse_net_errors_pinned(pauli8, text, message):
    with pytest.raises(NetError) as exc:
        parse_net(text, pauli8)
    assert str(exc.value) == message


def test_parse_counts_port_uses_only_when_its_port_table_does_not_close(
    pauli8, cut_chain_net, swap_tree_net, monkeypatch
):
    calls = []
    real = net_module.validate_uses
    monkeypatch.setattr(net_module, "validate_uses", lambda s: calls.append(s) or real(s))
    # each output taken once out of the table, and none left: no recount
    parse_net(cut_chain_net(400), pauli8)
    parse_net(swap_tree_net(5, 2, sorted(pauli8.arrows)), pauli8)
    assert calls == []
    # a use spelled another way leaves its output in the table: the recount runs, and passes
    spaced = parse_net(_net("Q* , Q", "ax a : id Q", "out a .0 , a.1"), pauli8)
    assert calls == list(spaced.slices)
    # a net built in code is always counted, slice by slice
    calls.clear()
    b = SliceBuilder()
    a = b.add("a", AxLink("id Q"))
    one = Slice(b.links, b.wires, ((a, 0), (a, 1)))
    two = Slice(b.links, b.wires, ((a, 0), (a, 1)))
    validate_net(Net("built", (DualAtom("Q"), Atom("Q")), (one, two), pauli8))
    assert len(calls) == 2 and calls[0] is one and calls[1] is two


def test_parse_shares_one_axlink_per_arrow(pauli8, cut_chain_net, swap_tree_net):
    def axioms(net):
        return {id(link): link for s in net.slices for link in s.links.values()
                if isinstance(link, AxLink)}

    assert list(axioms(parse_net(cut_chain_net(50), pauli8)).values()) == [AxLink("X")]
    tree = parse_net(swap_tree_net(3, 2, sorted(pauli8.arrows)), pauli8)
    assert list(axioms(tree).values()) == [AxLink("id Q")]  # across all 8 slices
    # spelled two ways, one arrow is one link
    net = parse_net(_net("Q* , Q , Q* , Q , Q* , Q", "ax a : id  Q", "ax b : X", "ax c : id Q",
                         "out a.0 , a.1 , b.0 , b.1 , c.0 , c.1"), pauli8)
    assert sorted(link.arrow for link in axioms(net).values()) == ["X", "id Q"]


def test_label_nested_too_deep_pinned(pauli8, plus_chain_net):
    with pytest.raises(NetError) as exc:
        parse_net(plus_chain_net(MAX_DEPTH + 1), pauli8)
    assert str(exc.value) == f"link l{MAX_DEPTH}: label nested deeper than {MAX_DEPTH}"


def _two_slices(first, second):
    return "net n\nconclusions Q* , Q*\n" + _slice(first) + _slice(second)


def test_fault_reported_from_two_faulty_slices(pauli8):
    wrong_cut = ("ax a : X", "ax b : X", "cut a.1 , b.1 : Z", "out a.0 , b.0")
    twice = ("ax a : X", "out a.0 , a.0")
    cyclic = ("ax a : id Q", "times t = w.0 a.0", "times w = t.0 a.1", "out a.0 , a.0")
    cases = [
        # the typed checks run slice by slice once the whole net is read
        ((wrong_cut, twice), "cut Z: inputs Q, Q do not match"),
        ((twice, wrong_cut), "port a.0 used 2 times, want exactly 1"),
        # labels are built at each slice's end line, before any slice is checked
        ((twice, cyclic), "cyclic wiring"),
        ((cyclic, twice), "cyclic wiring"),
    ]
    for (first, second), message in cases:
        with pytest.raises(NetError) as exc:
            parse_net(_two_slices(first, second), pauli8)
        assert str(exc.value) == message, (first, second)


def _line_of(text, fragment):
    return next(k for k, line in enumerate(text.splitlines(), 1) if fragment in line)


def test_of_two_faults_the_one_checked_first_is_raised_in_any_line_order(pauli8):
    # a slice's faults are raised in the order of the checks, whatever line finds them
    # first: its ports, then labels, then id cuts, at its end line; its uses, outs,
    # units and arrow cuts once the whole net is read
    deep = [f"plus1 p{k} = {f'p{k - 1}' if k else 'u'}.0 | I" for k in range(MAX_DEPTH + 1)]
    cases = [
        # a port that names no output, on a line below a times link over I
        (_net("Q*", "unit u", "ax a : id Q", "times t = a.1 u.0", "plus1 p = a.x | I", "out t.0"),
         ParseError, lambda text: f"line {_line_of(text, 'a.x')}: bad port 'a.x'"),
        # cyclic wiring, and an output no link takes
        (_net("Q*", "ax a : id Q", "ax b : id Q", "times t = w.0 a.0", "times w = t.0 a.1",
              "out b.0"),
         NetError, lambda text: "cyclic wiring"),
        # a label that breaks a rule in slice 1, and an unknown directive in slice 2
        (_two_slices(("unit u", "ax a : id Q", "times t = a.1 u.0", "out t.0 , a.0"), ("frob",)),
         NetError, lambda text: "times t: I may not appear under x"),
        # an id cut on inputs that are not dual, written above a label nested too deep
        (_net("Q* , Q", "ax a : id Q", "ax b : id Q", "cut a.1 , b.1 : id", "unit u", *deep,
              "out a.0 , b.0"),
         NetError, lambda text: f"link p{MAX_DEPTH}: label nested deeper than {MAX_DEPTH}"),
        # a conclusion that does not match in slice 1, and a last slice with no end line
        (_net("Q , Q", "ax a : id Q", "out a.0 , a.1") + "slice\n  ax a : id Q\n  out a.0 , a.1\n",
         ParseError, lambda text: f"line {len(text.splitlines())}: unterminated slice"),
    ]
    for text, kind, message in cases:
        for permute in (list, lambda ls: ls[::-1]):
            written = _permute_link_lines(text, permute)
            with pytest.raises((ParseError, NetError)) as exc:
                parse_net(written, pauli8)
            assert type(exc.value) is kind and str(exc.value) == message(written), written


def test_parse_peaks_under_500_bytes_per_link(pauli8, cut_chain_net):
    # the one pass keeps no table of pending inputs beside the table of outputs:
    # a chain written producers first peaked at about 415 bytes per link (CPython
    # 3.11), against about 645 when every input waited for the slice's end line
    n = 3200
    text = cut_chain_net(n)
    parse_net(text, pauli8)  # the category's formula table holds the net's formulas
    tracemalloc.start()
    try:
        parse_net(text, pauli8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (2 * n - 1) < 500


def _built(links, wires, outs, conclusions, cat):
    concl = tuple(parse_formula(f) for f in conclusions)
    return Net("built", concl, (Slice(links, wires, outs),), cat)


def test_validate_net_errors_pinned(pauli8):
    b = SliceBuilder()
    a = b.add("a", AxLink("id Q"))
    t = b.add("t", TimesLink(), (a, 0), (a, 1))
    u = b.add("u", UnitLink())
    # the same faults as NET_ERROR_CASES, on slices built in code
    cases = [
        ((b.links, b.wires, ((t, 0),), ["(Q* x Q)"]), "port u0.0 used 0 times, want exactly 1"),
        ((b.links, b.wires, ((t, 0), (a, 0), (u, 0)), ["(Q* x Q)", "Q*", "I"]),
         "port a0.0 used 2 times, want exactly 1"),
        ((b.links, b.wires, ((t, 0), (u, 1)), ["(Q* x Q)", "I"]),
         "out lists unknown port u0.1"),
        ((b.links, b.wires, ((t, 0), (u, 0)), ["(Q* x Q)"]),
         "slice has 2 conclusions, net declares 1"),
        ((b.links, b.wires, ((t, 0), (u, 0)), ["(Q x Q)", "I"]),
         "conclusion mismatch: (Q* x Q) at t0.0, want (Q x Q)"),
        ((b.links, b.wires, ((t, 0), (u, 0)), ["(Q* x Q)", "I"]),
         "unit u0 feeds a conclusion; I must meet a plus or id cut"),
        (({"u": UnitLink(), "a": AxLink("id Q"), "#c0": CutLink(arrow="X")},
          {("#c0", 0): ("u", 0), ("#c0", 1): ("a", 0)}, (("a", 1),), ["Q"]),
         "unit u must feed a plus link or an id cut on I"),
        (({"a": AxLink("id Q"), "b": AxLink("id Q"), "#c0": CutLink(arrow="X")},
          {("#c0", 0): ("a", 1), ("#c0", 1): ("b", 1)}, (("a", 0), ("b", 0)), ["Q*", "Q*"]),
         "cut X: inputs Q, Q do not match"),
        (({"a": AxLink("id Q"), "b": AxLink("id Q"),
           "#c0": CutLink(formula=parse_formula("(Q x Q)"))},
          {("#c0", 0): ("a", 1), ("#c0", 1): ("b", 1)}, (("a", 0), ("b", 0)), ["Q*", "Q*"]),
         "cut id (Q x Q): inputs Q, Q do not match"),
        (({"a": AxLink("id Q"), "t": TimesLink(), "w": TimesLink()},
          {("t", 0): ("w", 0), ("t", 1): ("a", 0), ("w", 0): ("t", 0), ("w", 1): ("a", 1)},
          (), []), "cyclic wiring"),
        # wiring faults only a slice built in code can have
        (({"a": AxLink("id Q"), "t": TimesLink()}, {("t", 0): ("a", 0)}, (("t", 0),), ["Q*"]),
         "bad wiring: missing inputs [('t', 1)], stray []"),
        (({"a": AxLink("id Q")}, {("b", 0): ("a", 0)}, (("a", 1),), ["Q"]),
         "bad wiring: missing inputs [], stray [('b', 0)]"),
        (({"a": AxLink("id Q"), "t": TimesLink()}, {("t", 0): ("a", 0), ("t", 1): ("a", 2)},
          (("t", 0),), ["(Q* x Q)"]), "wire into ('t', 1) from unknown port ('a', 2)"),
        # shapes only a slice built in code can have, checked before anything reads them
        (({"a": AxLink("id Q")}, {}, ("a", ("a", 1)), ["Q*", "Q"]), "out lists bad port 'a'"),
        (({"a": AxLink("id Q")}, {}, (3, ("a", 1)), ["Q*", "Q"]), "out lists bad port 3"),
        (({"a": AxLink("id Q")}, {}, (("a", 0, 0), ("a", 1)), ["Q*", "Q"]),
         "out lists bad port ('a', 0, 0)"),
        (({"a": AxLink("id Q"), "x": "x"}, {}, (("a", 0), ("a", 1)), ["Q*", "Q"]),
         "bad link 'x': 'x'"),
        (({"a": AxLink("id Q"), 1: UnitLink()}, {}, (("a", 0), ("a", 1)), ["Q*", "Q"]),
         "bad link 1: UnitLink()"),
        (({"a": AxLink("id Q"), "p": PlusLink(Atom("Q"))}, {("p", 0): ("a", 1)},
          (("a", 0), ("p", 0)), ["Q*", "(Q + Q)"]), "bad link 'p': PlusLink(other=Atom(name='Q'))"),
        (({"a": AxLink("id Q")}, {("z", 0): ("a", 0), (1, 0): ("a", 1)}, (), []),
         "bad wiring: missing inputs [], stray [('z', 0), (1, 0)]"),
        (({"a": AxLink("id Q"), "t": TimesLink()}, {("t", 0): ("a", 0), ("t", 1): ["a", 1]},
          (("t", 0),), ["(Q* x Q)"]), "wire into ('t', 1) from unknown port ['a', 1]"),
    ]
    for (links, wires, outs, conclusions), message in cases:
        with pytest.raises(NetError) as exc:
            validate_net(_built(links, wires, outs, conclusions, pauli8))
        assert str(exc.value) == message
    # the faults print_net can write: parsing the text gives the same verdict.  The
    # others differ by design: u0.1 is a ParseError in text, print_net writes a
    # formula cut as id, and it raises on cyclic wiring
    for (links, wires, outs, conclusions), message in cases[:2] + cases[3:8]:
        text = print_net(_built(links, wires, outs, conclusions, pauli8))
        with pytest.raises(NetError) as exc:
            parse_net(text, pauli8)
        assert str(exc.value) == message, text
    # cuts the parser never builds, which would crash normalize: rejected, so a
    # caller that checks first never gets that far
    ends = {("#c0", 0): ("a", 1), ("#c0", 1): ("b", 0)}
    for cut, message in [
        (CutLink(formula=Atom("Q")), "cut id Q: a cut on an atom is the arrow cut id Q"),
        (CutLink(formula=DualAtom("Q")), "cut id Q*: a cut on an atom is the arrow cut id Q"),
        (CutLink(), "a cut takes exactly one of an arrow and a formula"),
        (CutLink(arrow="id Q", formula=Atom("Q")),
         "a cut takes exactly one of an arrow and a formula"),
        (CutLink(arrow="X", formula=parse_formula("(Q x Q*)")),
         "a cut takes exactly one of an arrow and a formula"),
        (CutLink(arrow="nope"), "unknown cut label 'nope'"),
    ]:
        net = _built({"a": AxLink("id Q"), "b": AxLink("id Q"), "#c0": cut}, ends,
                     (("a", 0), ("b", 1)), ["Q*", "Q"], pauli8)
        with pytest.raises(NetError) as exc:
            validate_net(net)
            normalize(net)
        assert str(exc.value) == message
    # an arrow or a plus side the text could not name: the parser's words, and the
    # printed text fails at the link's line
    ax = _built({"a": AxLink("nope")}, {}, (("a", 0), ("a", 1)), ["Q*", "Q"], pauli8)
    with pytest.raises(NetError) as exc:
        validate_net(ax)
    assert str(exc.value) == "unknown arrow 'nope'"
    q = Atom("Q")
    for side, message in [
        (Atom("Nope"), "unknown atom 'Nope'"),
        (Tensor(Unit(), q), "I may not appear under x"),
        (Zero(), "0 may only appear as a whole formula"),
    ]:
        # both sides of an id cut on (Q + side), as validate_net took them before
        net = _built({"a": AxLink("id Q"), "b": AxLink("id Q"), "p": Plus1Link(side),
                      "r": Plus1Link(star(side)), "#c0": CutLink(formula=Plus(q, side))},
                     {("p", 0): ("a", 1), ("r", 0): ("b", 0), ("#c0", 0): ("p", 0),
                      ("#c0", 1): ("r", 0)}, (("a", 0), ("b", 1)), ["Q*", "Q"], pauli8)
        with pytest.raises(NetError) as exc:
            validate_net(net)
        assert str(exc.value) == message
        with pytest.raises(ParseError) as exc:
            parse_net(print_net(net), pauli8)
        assert str(exc.value) == f"line 6: {message}"
    zero = Net("built", (parse_formula("0"),), (Slice(b.links, b.wires, ((t, 0), (u, 0))),), pauli8)
    with pytest.raises(NetError) as exc:
        validate_net(zero)
    assert str(exc.value) == "a net with conclusion 0 must have no slices"
    deep = SliceBuilder()
    a = deep.add("a", AxLink("id Q"))
    below, f = (a, 1), Atom("Q")
    for _ in range(MAX_DEPTH + 1):
        below, f = (deep.add("p", Plus1Link(Unit()), below), 0), Plus(f, Unit())
    s = Slice(deep.links, deep.wires, (("a0", 0), below))
    net = Net("built", (DualAtom("Q"), f), (s,), pauli8)
    with pytest.raises(NetError) as exc:
        validate_net(net)
    assert str(exc.value) == f"link p{MAX_DEPTH}: label nested deeper than {MAX_DEPTH}"
    # a plus side, or a cut's formula, nested deeper than the parser reads: the parser's
    # words, in labelling's turn and in the cuts' turn, at any depth and with no walk that
    # recurses past the bound
    for n in (300, 3000):
        side, dual = _nested_sum(n, q), _nested_sum(n, DualAtom("Q"))
        net = _built({"a": AxLink("id Q"), "b": AxLink("id Q"), "p": Plus2Link(side),
                      "r": Plus2Link(dual), "#c0": CutLink(formula=Plus(side, q))},
                     {("p", 0): ("a", 1), ("r", 0): ("b", 0), ("#c0", 0): ("p", 0),
                      ("#c0", 1): ("r", 0)}, (("a", 0), ("b", 1)), ["Q*", "Q"], pauli8)
        with pytest.raises(NetError) as exc:
            validate_net(net)
        assert str(exc.value) == f"formula nested deeper than {MAX_DEPTH}"
        if n == 300:  # printable: its text fails at the plus link's line
            with pytest.raises(ParseError) as exc:
                parse_net(print_net(net), pauli8)
            assert str(exc.value) == f"line 6: formula nested deeper than {MAX_DEPTH}"
        # the cut's fault, and in the cuts' turn: after a unit's that feeds a conclusion
        ends = {("#c0", 0): ("a", 1), ("#c0", 1): ("b", 0)}
        for extra, outs, message in [
            ({}, (("a", 0), ("b", 1)), f"formula nested deeper than {MAX_DEPTH}"),
            ({"u": UnitLink()}, (("a", 0), ("b", 1), ("u", 0)),
             "unit u feeds a conclusion; I must meet a plus or id cut"),
        ]:
            links = {"a": AxLink("id Q"), "b": AxLink("id Q"), **extra,
                     "#c0": CutLink(formula=side)}
            with pytest.raises(NetError) as exc:
                validate_net(_built(links, ends, outs, ["Q*", "Q", "I"][:len(outs)], pauli8))
            assert str(exc.value) == message
        with pytest.raises(NetError) as exc:
            cut_inputs(CutLink(formula=side), pauli8)
        assert str(exc.value) == f"formula nested deeper than {MAX_DEPTH}"


def test_of_two_misused_ports_both_routes_name_the_least_by_its_text(pauli8):
    # b.1 is used twice and a's ports not at all; the built slice lists b first and
    # print_net writes a first, yet in any line order both routes name a.0
    links = {"b": AxLink("id Q"), "t": TimesLink(), "a": AxLink("id Q")}
    net = _built(links, {("t", 0): ("b", 1), ("t", 1): ("b", 1)}, (("b", 0), ("t", 0)),
                 ["Q*", "(Q x Q)"], pauli8)
    message = "port a.0 used 0 times, want exactly 1"
    with pytest.raises(NetError) as exc:
        validate_net(net)
    assert str(exc.value) == message
    text = print_net(net)
    assert text.index("ax a") < text.index("ax b")
    rng = random.Random(34)
    for permute in (list, lambda ls: ls[::-1], *[lambda ls: rng.sample(ls, len(ls))] * 8):
        written = _permute_link_lines(text, permute)
        with pytest.raises(NetError) as exc:
            parse_net(written, pauli8)
        assert str(exc.value) == message, written


def test_validate_net_walks_a_shared_part_of_a_built_formula_once(pauli8):
    # g = (g + g), 40 levels: 41 nodes that stand for 2^40 leaves
    q, g = Atom("Q"), Atom("Q")
    for _ in range(40):
        g = Plus(g, g)
    side = Net("built", (DualAtom("Q"), Plus(q, g)),
               (Slice({"a": AxLink("id Q"), "p": Plus1Link(g)}, {("p", 0): ("a", 1)},
                      (("a", 0), ("p", 0))),), pauli8)
    start = time.perf_counter()
    validate_net(side)
    # a formula cut on (g + Q), written first: its depth and its dual are taken where
    # the checker meets it, and the bad atom on its other input's side is labelling's
    # fault, raised before the cut's inputs are compared
    cut = _built({"#c0": CutLink(formula=Plus(g, q)), "a": AxLink("id Q"), "b": AxLink("id Q"),
                  "p": Plus2Link(g), "r": Plus2Link(Plus(star(g), Atom("Nope")))},
                 {("p", 0): ("a", 1), ("r", 0): ("b", 0), ("#c0", 0): ("p", 0),
                  ("#c0", 1): ("r", 0)}, (("a", 0), ("b", 1)), ["Q*", "Q"], pauli8)
    with pytest.raises(NetError) as exc:
        validate_net(cut)
    assert str(exc.value) == "unknown atom 'Nope'"
    assert time.perf_counter() - start < 0.5


def _nested_sum(n, base):
    """``base`` under ``n`` nested ``(... + I)``, built with no walk that recurses."""
    for _ in range(n):
        base = Plus(base, Unit())
    return base


def _one_link_mutants(net, rng):
    """Each (slice index, slice) that changes one link, wire or out of a slice of ``net``: an
    arrow the category lacks, a plus side that may not stand under + or is nested deeper
    than the parser reads, an input wired from another output, an out dropped or repeated."""
    bad_sides = (Atom("Nope"), Tensor(Unit(), Atom(net.cat.objects[0])), Zero())
    deep = _nested_sum(300, Atom(net.cat.objects[0]))  # too deep to read, not to print
    for k, s in enumerate(net.slices):
        for lid, link in s.links.items():
            links = dict(s.links)
            if isinstance(link, AxLink):
                links[lid] = AxLink("nope")
            elif isinstance(link, CutLink) and link.arrow is not None:
                links[lid] = CutLink(arrow="nope")
            elif isinstance(link, PlusLink):
                links[lid] = type(link)(rng.choice(bad_sides))
                yield k, Slice({**s.links, lid: type(link)(deep)}, dict(s.wires), s.outs)
            else:
                continue
            yield k, Slice(links, dict(s.wires), s.outs)
        ports = [(lid, n) for lid, link in s.links.items() for n in range(link.n_out)]
        for _ in range(3):
            wires = dict(s.wires)
            wires[rng.choice(sorted(wires))] = rng.choice(ports)
            yield k, Slice(dict(s.links), wires, s.outs)
        if s.outs:
            outs = list(s.outs)
            del outs[rng.randrange(len(outs))]
            yield k, Slice(dict(s.links), dict(s.wires), tuple(outs))
            yield k, Slice(dict(s.links), dict(s.wires), s.outs + (rng.choice(s.outs),))


def _in_print_order(s):
    """``s`` with its links listed as ``print_net`` writes them: producers first, then cuts
    by number.  Raises NetError on cyclic wiring, as ``print_net`` does."""
    cuts = sorted(sorted(lid for lid, link in s.links.items() if isinstance(link, CutLink)),
                  key=len)
    return Slice({lid: s.links[lid] for lid in topo_order(s) + cuts}, s.wires, s.outs)


def _cut_differs_by_design(s, cat):
    """A cut ``print_net`` cannot write as built: a formula cut (written ``id``) whose inputs'
    labels are not its own, or an arrow cut whose inputs carry its labels starred side first
    (the parser turns it)."""
    try:
        labs = labels(s, cat)
    except NetError:  # labelling's fault comes first on both routes
        return False
    for cid, link in s.links.items():
        if isinstance(link, CutLink):
            got = labs.get(s.wires[(cid, 0)]), labs.get(s.wires[(cid, 1)])
            try:
                want = cut_inputs(link, cat)
            except NetError:  # an arrow the category lacks: text fails at the cut's line
                continue
            if got != want and (link.formula is not None or got[::-1] == want):
                return True
    return False


def test_built_and_printed_nets_get_one_verdict(pauli8, inclusion):
    # validate_net on a built net and parse_net on its print pass or fail together,
    # with one text; a link the text could not hold fails there with the same words.
    # Each slice lists its links as print_net writes them, so that of two faults of one
    # kind, each found by a scan over the links, both routes name the same one
    rng = random.Random(33)
    compared = Counter()
    for i in range(100):
        net = random_net(inclusion if i % 2 else pauli8, rng, max_links=16)
        for k, mutant in [(0, net.slices[0]), *_one_link_mutants(net, rng)]:
            try:
                mutant = _in_print_order(mutant)
            except NetError:  # cyclic wiring: print_net writes no text
                continue
            if _cut_differs_by_design(mutant, net.cat):
                continue
            slices = net.slices[:k] + (mutant,) + net.slices[k + 1:]
            net_k = Net(net.name, net.conclusions, slices, net.cat)
            text = print_net(net_k)
            try:
                validate_net(net_k)
                built = None
            except (NetError, FormulaError) as exc:
                built = exc
            try:
                parse_net(text, net.cat)
                parsed = None
            except (NetError, ParseError) as exc:
                parsed = exc
            assert (built is None) == (parsed is None), (text, built, parsed)
            if isinstance(parsed, ParseError):
                assert type(built) is NetError and str(parsed) == f"line {parsed.lineno}: {built}"
            elif parsed is not None:
                assert type(built) is NetError and str(parsed) == str(built), text
            compared[type(parsed).__name__] += 1
            compared["deep side"] += "formula nested deeper" in str(built)
    assert compared["NoneType"] > 100 and compared["NetError"] > 300
    assert compared["ParseError"] > 300 and compared["deep side"] > 50, compared


def _snapshot(net):
    return [(list(s.links.items()), list(s.wires.items()), s.outs) for s in net.slices]


def test_validate_net_changes_nothing_it_checks(pauli8, c2, corpus):
    # a built cut is checked as written, never turned: no slice's links, wires or
    # outs change, nor their order, whether the net passes or not
    rng = random.Random(41)
    nets = [parse_net(t, pauli8) for name, t in fixtures.EXAMPLES.items() if name.endswith(".net")]
    nets += corpus + [random_net(c2 if i % 2 else pauli8, rng, max_links=24) for i in range(100)]
    rejected = 0
    for net in nets:
        before = _snapshot(net)
        validate_net(net)
        assert _snapshot(net) == before
        # the first cut of each slice with its inputs swapped
        slices = tuple(Slice(dict(s.links), dict(s.wires), s.outs) for s in net.slices)
        for s in slices:
            if cuts := [cid for cid, link in s.links.items() if isinstance(link, CutLink)]:
                w = s.wires
                w[(cuts[0], 0)], w[(cuts[0], 1)] = w[(cuts[0], 1)], w[(cuts[0], 0)]
        swapped = Net(net.name, net.conclusions, slices, net.cat)
        before = _snapshot(swapped)
        try:
            validate_net(swapped)
        except NetError as exc:
            rejected += "do not match" in str(exc)
        assert _snapshot(swapped) == before
    assert rejected > 50


def test_unusual_port_spellings(pauli8):
    # a space before the dot and a leading zero are read as they always were,
    # on the out line and on wires; a space after the dot is a bad port
    plain = _net("(Q* + I) , Q", "ax a : id Q", "plus1 p = a.0 | I", "out p.0 , a.1")
    spelled = _net("(Q* + I) , Q", "ax a : id Q", "plus1 p = a .0 | I", "out p .0 , a.01")
    assert print_net(parse_net(spelled, pauli8)) == print_net(parse_net(plain, pauli8))
    for bad in ("a . 1", "a. 1"):
        with pytest.raises(ParseError) as exc:
            parse_net(_net("Q* , Q", "ax a : id Q", f"out a.0 , {bad}"), pauli8)
        assert str(exc.value) == f"line 5: bad port {bad!r}"
    with pytest.raises(ParseError) as exc:
        parse_net(_net("(Q* + I) , Q", "ax a : id Q", "plus1 p = a . 0 | I", "out p.0 , a.1"),
                  pauli8)
    assert str(exc.value) == "line 5: bad port 'a . 0'"


def test_times_reads_its_ports_as_the_other_directives_do(pauli8):
    # a token that starts with a dot belongs to the one before it; a lone dot does not
    plain = _net("(Q* x Q)", "ax a : id Q", "times t = a.0 a.1", "out t.0")
    for ports in ("a .0 a .1", "a .0 a.1", "a.0   a .1"):
        spelled = plain.replace("a.0 a.1", ports)
        assert print_net(parse_net(spelled, pauli8)) == print_net(parse_net(plain, pauli8))
    assert "  times t = a.0 a.1\n" in print_net(parse_net(plain, pauli8))
    # a space after the dot is still an error
    for ports in ("a . 0 a.1", "a . 0", "a. 0 a.1", "a.0 a . 1"):
        with pytest.raises(ParseError) as exc:
            parse_net(plain.replace("a.0 a.1", ports), pauli8)
        assert str(exc.value) == "line 5: times takes exactly two ports"


def test_times_glues_a_dot_after_any_space_as_the_substitution_on_every_line_did(pauli8):
    # times splits its ports and glues `a .0` only when a token after the first
    # starts with a dot; it reads the tokens that gluing every whitespace run
    # before a dot and a non-space first gave, for spaces, tabs and other
    # whitespace alike.  The glued text reads as itself where gluing it again
    # changes nothing (not so for `a  . .0`, which glues to `a  ..0`).
    rng = random.Random(5)
    spaces = ["", " ", "  ", "\t", "\u00a0", "\u2003"]
    outcomes = Counter()
    for _ in range(3000):
        pieces = ["a", ".0", "a", ".1"]
        for _ in range(rng.randrange(3)):
            pieces.insert(rng.randrange(5), rng.choice(["a", "b", ".", "0", ".1", "a.0"]))
        ports = "".join(piece + rng.choice(spaces) for piece in pieces)
        glued = re.sub(r"\s+(?=\.\S)", "", ports)
        if re.sub(r"\s+(?=\.\S)", "", glued) != glued:
            outcomes["skipped"] += 1
            continue
        outcomes["glued"] += glued != ports
        results = []
        for spelled in (ports, glued):
            text = _net("(Q* x Q) , Q* , Q", "ax a : id Q", "ax b : id Q",
                        f"times t = {spelled}", "out t.0 , b.0 , b.1")
            try:
                results.append(print_net(parse_net(text, pauli8)))
            except (ParseError, NetError) as exc:
                results.append(str(exc))
        assert results[0] == results[1], ports
        outcomes["read" if results[0].startswith("net ") else "error"] += 1
    assert outcomes["read"] > 100 and outcomes["error"] > 100
    assert outcomes["glued"] > 1000 and outcomes["skipped"] < 300, outcomes


def test_parsing_twice_shares_no_slice(pauli8):
    first, second = (parse_net(fixtures.SWAPPING_NET, pauli8) for _ in range(2))
    printed = print_net(second)
    for s, t in zip(first.slices, second.slices):
        assert s is not t and s.links is not t.links and s.wires is not t.wires
    s = first.slices[0]
    s.links.clear()
    s.wires.clear()
    first.slices[1].outs = ()
    assert print_net(second) == printed
