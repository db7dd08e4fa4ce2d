"""Seeded mutation fuzzing of every input format.

Each seed text (the fixture categories, models and nets, printed random nets
and printed random arrows) is mutated by deleting or duplicating each line in
turn, and by seeded token deletions, swaps and duplications.  Every mutant
must load, and a net that loads must also normalize, denote and evaluate, or
else fail with one of the five documented errors.  A net that gets through
must pass ``validate_net`` again with its labels computed from scratch, print
to a text that parses and prints back to itself, normalize each slice in at
most as many steps as it has links, have the same denotation as its normal
form, and ``eval_net`` must agree with ``eval_free`` of its denotation.  Its
normal form rebuilt by ``to_net`` and the completion of its denotation must
pass ``validate_net``, which neither runs itself.  An arrow that loads must
print to a text that parses back to the same arrow and prints back to itself,
equal the arrow the checking ``FreeArrow(...)`` builds from its parts, and
complete to a net that passes ``validate_net``.
"""

import random
import re

from cqlnet import fixtures
from cqlnet.category import load_category
from cqlnet.errors import CategoryError, FormulaError, ModelError, NetError, ParseError
from cqlnet.freecat import FreeArrow, complete, denote, fa_equal, fmt_arrow, parse_arrow
from cqlnet.model import eval_free, eval_net, load_model
from cqlnet.net import parse_net, print_net, validate_net
from cqlnet.randgen import random_free_arrow, random_net
from cqlnet.rewrite import normalize, normalize_slice, to_net

DOCUMENTED = (ParseError, CategoryError, FormulaError, NetError, ModelError)
TOKEN_MUTANTS = 150
# formula cuts on two-literal words, which the fixtures do not have
TIMES_CUT_NET = (
    "net n\nconclusions\nslice\n  ax a : id Q\n  ax b : id Q\n"
    "  times t = a.1 b.0\n  times u = a.0 b.1\n"
    "  cut t.0 , u.0 : id\n  out\nend\n"
)


def line_mutants(text):
    lines = text.splitlines(keepends=True)
    for k in range(len(lines)):
        yield "".join(lines[:k] + lines[k + 1:])
        yield "".join(lines[:k + 1] + lines[k:])


def token_mutants(text, rng):
    parts = re.split(r"(\s+)", text)
    words = [k for k, p in enumerate(parts) if p and not p.isspace()]
    for _ in range(TOKEN_MUTANTS):
        out = list(parts)
        i, j = rng.choice(words), rng.choice(words)
        op = rng.randrange(3)
        if op == 0:
            out[i] = ""
        elif op == 1:
            out[i], out[j] = out[j], out[i]
        else:
            out[i] = out[i] + " " + out[i]
        yield "".join(out)


def mutants(text, rng):
    yield from line_mutants(text)
    yield from token_mutants(text, rng)


def must(check, *args):
    """``check(*args)``, where a documented error would be a defect, not a rejection."""
    try:
        return check(*args)
    except DOCUMENTED as exc:
        raise AssertionError(f"{check.__name__} fails on what was accepted: {exc}") from exc


def test_mutants_end_in_a_result_or_a_documented_error():
    rng = random.Random(5)
    c2 = load_category(fixtures.C2_CAT)
    pauli8 = load_category(fixtures.PAULI8_CAT)
    model_of = {
        c2: load_model(fixtures.C2_MOD, c2),
        pauli8: load_model(fixtures.PAULI8_MOD, pauli8),
    }

    def net_pipeline(cat):
        def run(text):
            net = parse_net(text, cat)
            must(validate_net, net)  # no labels passed: each slice's are computed again
            printed = print_net(net)
            assert print_net(must(parse_net, printed, cat)) == printed
            for s in net.slices:  # the step budget of a strongly normalising calculus
                assert normalize_slice(s, cat)[1] <= len(s.links)
            nf_net = to_net(normalize(net), cat)
            must(validate_net, nf_net)
            fa = denote(net)
            assert fa_equal(denote(nf_net), fa)
            must(validate_net, complete(fa))
            assert eval_net(net, model_of[cat]) == eval_free(fa, model_of[cat])

        return run

    def arrow_pipeline(cat):
        def run(text):
            fa = parse_arrow(text, cat)
            printed = fmt_arrow(fa)
            again = must(parse_arrow, printed, cat)
            assert again == fa and fmt_arrow(again) == printed
            assert FreeArrow(cat, fa.dom, fa.cod, fa.entries) == fa
            must(validate_net, complete(fa))

        return run

    seeds = [
        (fixtures.C2_CAT, load_category),
        (fixtures.PAULI8_CAT, load_category),
        (fixtures.C2_MOD, lambda t: load_model(t, c2)),
        (fixtures.C2_BOOL_MOD, lambda t: load_model(t, c2)),
        (fixtures.PAULI8_MOD, lambda t: load_model(t, pauli8)),
    ]
    for net_text in (
        fixtures.BELL_NET,
        fixtures.BELLX_NET,
        fixtures.CHAIN_NET,
        fixtures.RING_NET,
        fixtures.SWAPPING_NET,
        TIMES_CUT_NET,
    ):
        seeds.append((net_text, net_pipeline(pauli8)))
    for i in range(5):
        cat = (pauli8, c2)[i % 2]
        seeds.append((print_net(random_net(cat, rng, max_links=24)), net_pipeline(cat)))
    for i in range(5):
        cat = (pauli8, c2)[i % 2]
        seeds.append((fmt_arrow(random_free_arrow(cat, rng)), arrow_pipeline(cat)))

    tried = 0
    for text, load in seeds:
        load(text)  # every seed text is valid
        for mutant in mutants(text, rng):
            tried += 1
            try:
                load(mutant)
            except DOCUMENTED:
                pass
            except Exception as exc:
                raise AssertionError(f"{type(exc).__name__}: {exc} on\n{mutant}") from exc
    assert tried > 3000
