"""The benchmark's workloads: seeded job lists, the job bodies, and their checks.

A job is plain data made from the seed before timing starts; the timed body
begins from net text.  Every call into the library goes through
``call(layer_name, fn, *args)`` so that a traced run can time it from outside
(an untraced run passes ``spans.untraced``, which only calls ``fn``).

Each workload gives four functions:

``make(env, rng, blocks)``
    the job list: ``blocks`` repetitions of a fixed block of input sizes, in a
    fixed order, with contents drawn from ``rng``;
``run(env, job, call)``
    the timed body; returns a dict of outputs;
``check(env, job, out)``
    compares the outputs with the job's reference; returns a list of problems;
``wrong(env, job, out)``
    a copy of ``(job, out)`` whose reference is deliberately wrong, so that a run
    can show that ``check`` reports it.

``counts(out)`` gives the exact per-job counts the determinism check
compares: input links, normal-form slices, rewrite steps, wirings.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field

from cqlnet import (
    Matrix,
    complete,
    denote,
    eval_free,
    eval_net,
    fa_equal,
    fmt_arrow,
    normalize,
    parse_arrow,
    parse_net,
    print_net,
    randgen,
    to_net,
)
from cqlnet.net import AxLink, Plus1Link, Plus2Link, TimesLink


@dataclass(frozen=True)
class Env:
    """What every job shares: the pauli8 category, its model, arrow names."""

    cat: object
    model: object
    arrows: tuple


@dataclass(frozen=True)
class Job:
    texts: tuple  # net texts the timed body parses
    size: tuple  # the block entry this job was made for
    expect: dict = field(default_factory=dict)  # references known in advance


def links_of(net):
    return sum(len(s.links) for s in net.slices)


def counts(out):
    """Exact counts of one job: links, normal-form slices, steps, wirings."""
    return (out["links"], out["nf_slices"], len(out["steps"]), out.get("wirings", 0))


def _wirings(fa):
    return sum(sum(c.values()) for c in fa.entries.values())


def _bump(m):
    """A copy of a one-column matrix with its first entry changed."""
    rows = [list(r) for r in m.rows]
    rows[0][0] = m.ring.add(rows[0][0], m.ring.one)
    return Matrix(m.ring, rows, m.ncols)


# ---------------------------------------------------------------------------
# chain: one-slice cut chains compared with a one-axiom net

# Chain lengths 16..64 in seven strata of seven; block b takes length
# 16 + 7k + (b mod 7) from stratum k, so every seven blocks hold each length once.
CHAIN_ORDER = (3, 0, 6, 2, 5, 1, 4)


def chain_text(axioms, cuts):
    lines = ["net chain", "conclusions Q* , Q", "slice"]
    lines += [f"  ax a{k} : {f}" for k, f in enumerate(axioms)]
    lines += [f"  cut a{k}.1 , a{k + 1}.0 : {g}" for k, g in enumerate(cuts)]
    lines += [f"  out a0.0 , a{len(axioms) - 1}.1", "end"]
    return "\n".join(lines) + "\n"


def axiom_text(f):
    return f"net one\nconclusions Q* , Q\nslice\n  ax a : {f}\n  out a.0 , a.1\nend\n"


def make_chain(env, rng, blocks):
    jobs = []
    for b in range(blocks):
        for k in CHAIN_ORDER:
            n = 16 + 7 * k + b % 7
            axioms = [rng.choice(env.arrows) for _ in range(n)]
            cuts = [rng.choice(env.arrows) for _ in range(n - 1)]
            composite = axioms[0]
            for g, f in zip(cuts, axioms[1:]):
                composite = env.cat.compose(env.cat.compose(composite, g), f)
            equal = len(jobs) % 2 == 0
            target = composite
            if not equal:
                target = rng.choice([f for f in env.arrows if f != composite])
            jobs.append(
                Job((chain_text(axioms, cuts), axiom_text(target)), (n,), {"equal": equal})
            )
    return jobs


def run_chain(env, job, call):
    chain = call("net.parse", parse_net, job.texts[0], env.cat)
    one = call("net.parse", parse_net, job.texts[1], env.cat)
    steps = []
    nf_chain = call("rewrite.normalize", normalize, chain, trace=steps)
    nf_one = call("rewrite.normalize", normalize, one, trace=steps)
    return {
        "equal": nf_chain == nf_one,
        "links": links_of(chain) + links_of(one),
        "nf_slices": len(nf_chain.slices),
        "steps": steps,
    }


def check_chain(env, job, out):
    if out["equal"] != job.expect["equal"]:
        return [f"verdict {out['equal']}, composite fold says {job.expect['equal']}"]
    return []


def wrong_chain(env, job, out):
    expect = {"equal": not job.expect["equal"]}
    return dataclasses.replace(job, expect=expect), out


# ---------------------------------------------------------------------------
# swap_tree: entanglement-swapping nets over a sum tree of depth d

# (depth, Bell pairs), 32 jobs interleaved: 5 (3, 1), 6 (3, 2), 9 (4, 1),
# 11 (4, 2) and one depth-5 job whose pairs alternate from block to block.
# Sorted by cost, the classes put p50 inside (4, 1) and p90 inside (4, 2),
# away from the class boundaries where a sample quantile jumps.
SWAP_BLOCK = (
    (4, 2), (4, 1), (3, 2), (3, 1), (4, 2), (4, 1), (4, 2), (3, 2),
    (4, 1), (3, 1), (4, 2), (4, 1), (4, 2), (3, 2), (5, None), (3, 1),
    (4, 2), (4, 1), (3, 2), (4, 2), (4, 1), (4, 2), (3, 1), (4, 1),
    (3, 2), (4, 2), (4, 1), (4, 2), (3, 1), (3, 2), (4, 1), (4, 2),
)


def sum_tree(d):
    return "I" if d == 0 else f"({sum_tree(d - 1)} + {sum_tree(d - 1)})"


def swap_text(rng, arrows, depth, pairs):
    """2^depth slices; slice k selects leaf k and corrects each pair by a cut."""
    concl = " , ".join([sum_tree(depth)] + ["Q* , Q"] * pairs)
    lines = ["net swap_tree", f"conclusions {concl}"]
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
            lines += [
                f"  ax a{k} : id Q",
                f"  ax b{k} : id Q",
                f"  cut a{k}.1 , b{k}.0 : {rng.choice(arrows)}",
            ]
            outs += [f"a{k}.0", f"b{k}.1"]
        lines += ["  out " + " , ".join(outs), "end"]
    return "\n".join(lines) + "\n"


def make_swap_tree(env, rng, blocks):
    jobs = []
    for b in range(blocks):
        for depth, pairs in SWAP_BLOCK:
            pairs = pairs or 1 + b % 2
            text = swap_text(rng, env.arrows, depth, pairs)
            jobs.append(Job((text,), (depth, pairs), {"nf_slices": 2**depth}))
    return jobs


def run_swap_tree(env, job, call):
    net = call("net.parse", parse_net, job.texts[0], env.cat)
    steps = []
    nf = call("rewrite.normalize", normalize, net, trace=steps)
    fa = call("freecat.denote", denote, net)
    vec = call("model.eval_net", eval_net, net, env.model)
    free = call("model.eval_free", eval_free, fa, env.model)
    text = call("freecat.text", fmt_arrow, fa)
    fa_text = call("freecat.text", parse_arrow, text, env.cat)
    back = call("freecat.complete", complete, fa_text)
    fa_back = call("freecat.denote", denote, back)
    return {
        "links": links_of(net),
        "nf_slices": len(nf.slices),
        "steps": steps,
        "wirings": _wirings(fa),
        "fa": fa,
        "fa_back": fa_back,
        "vec": vec,
        "free": free,
    }


def check_swap_tree(env, job, out):
    problems = []
    if out["vec"] != out["free"]:
        problems.append("eval_net differs from eval_free(denote)")
    if not fa_equal(out["fa"], out["fa_back"]):
        problems.append("text round trip changed the denotation")
    if out["nf_slices"] != job.expect["nf_slices"]:
        problems.append(f"{out['nf_slices']} normal slices, want {job.expect['nf_slices']}")
    return problems


def wrong_free(env, job, out):
    """The eval_free reference with one entry changed."""
    return job, dict(out, free=_bump(out["free"]))


# ---------------------------------------------------------------------------
# random: randgen nets, stratified by the sizes of eval_net's and eval_free's state

MAX_LINKS = 24
MAX_LEAVES = 10


def leaves(s):
    """Atom leaves under a slice's conclusions: its eval_free block has 2^leaves rows."""
    n = 0
    stack = list(s.outs)
    while stack:
        lid, _ = stack.pop()
        link = s.links[lid]
        if isinstance(link, AxLink):
            n += 1
        elif isinstance(link, TimesLink):
            stack += [s.wires[(lid, 0)], s.wires[(lid, 1)]]
        elif isinstance(link, (Plus1Link, Plus2Link)):
            stack.append(s.wires[(lid, 0)])
    return n


def random_key(net):
    """The stratum of a random net, or None to draw again.

    A job's time goes mostly to eval_net, whose state holds about 2^axioms
    entries per slice, and to eval_free, which fills a dense block of
    2^leaves rows per wiring; the rest grows with the links.  Nets are keyed
    by round(log2(sum over slices of 2^axioms + 2^leaves + links)), clamped
    to 4..11; inside a stratum, job times then spread with a log standard
    deviation of about 0.3.  Nets with a slice of more than MAX_LEAVES
    leaves (about 1 draw in 300, each 3 s or more in eval_free) are drawn
    again, so that no single job dominates a run.
    """
    widths = [leaves(s) for s in net.slices]
    if max(widths) > MAX_LEAVES:
        return None
    cost = sum(
        2 ** sum(isinstance(l, AxLink) for l in s.links.values()) + 2**w + len(s.links)
        for s, w in zip(net.slices, widths)
    )
    return min(max(round(math.log2(cost)), 4), 11)


# 40 jobs per block, near the strata's natural shares but arranged so that,
# sorted by cost, p50 falls inside stratum 7 and p90 inside stratum 9, away
# from the boundaries where a sample quantile jumps.  Interleaved so that any
# prefix of a block has about the block's mix.
RANDOM_BLOCK = (
    7, 8, 9, 6, 5, 4, 7, 8, 9, 6, 7, 5, 8, 9, 7, 6, 10, 8, 11, 7,
    9, 5, 4, 8, 6, 7, 9, 8, 5, 7, 6, 9, 8, 7, 4, 5, 6, 9, 8, 7,
)


def make_random(env, rng, blocks):
    """Draw nets until every stratum has its jobs; surplus draws are dropped."""
    keys = list(RANDOM_BLOCK) * blocks
    want = Counter(keys)
    pools = {key: [] for key in want}
    k = 0
    while any(len(pools[key]) < n for key, n in want.items()):
        net = randgen.random_net(env.cat, rng, name=f"random{k}", max_links=MAX_LINKS)
        k += 1
        key = random_key(net)
        if key in pools and len(pools[key]) < want[key]:
            pools[key].append(print_net(net))
    return [Job((pools[key].pop(),), (key,)) for key in keys]


def run_random(env, job, call):
    net = call("net.parse", parse_net, job.texts[0], env.cat)
    steps = []
    nf = call("rewrite.normalize", normalize, net, trace=steps)
    nf_net = call("rewrite.to_net", to_net, nf, env.cat)
    printed = call("net.print", print_net, nf_net)
    reparsed = call("net.parse", parse_net, printed, env.cat)
    nf_again = call("rewrite.normalize", normalize, reparsed, trace=steps)
    fa = call("freecat.denote", denote, net)
    vec = call("model.eval_net", eval_net, net, env.model)
    free = call("model.eval_free", eval_free, fa, env.model)
    return {
        "links": links_of(net),
        "nf_slices": len(nf.slices),
        "steps": steps,
        "wirings": _wirings(fa),
        "nf": nf,
        "nf_again": nf_again,
        "vec": vec,
        "free": free,
    }


def check_random(env, job, out):
    problems = []
    if out["vec"] != out["free"]:
        problems.append("eval_net differs from eval_free(denote)")
    if out["nf_again"] != out["nf"]:
        problems.append("printed normal form normalizes to something else")
    return problems



@dataclass(frozen=True)
class Workload:
    make: object
    run: object
    check: object
    wrong: object
    block: int  # jobs per block
    blocks: int  # blocks in the job list of a timed run
    trace_blocks: int  # blocks in the fixed job list of a traced run; even


WORKLOADS = {
    "chain": Workload(make_chain, run_chain, check_chain, wrong_chain, 7, 40, 6),
    "swap_tree": Workload(
        make_swap_tree, run_swap_tree, check_swap_tree, wrong_free, 32, 10, 2
    ),
    "random": Workload(make_random, run_random, check_random, wrong_free, 40, 15, 2),
}
