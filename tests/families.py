"""Net texts of the families the tests and CI build at scale, as plain functions.

Each family returns the text of one net over pauli8 (its object ``Q`` and
arrows ``X``, ``Z``, ``XZ`` ...); ``cut_chain`` and ``parallel_axioms`` also
parse over c2.  The module imports nothing, so a script can put ``tests`` on
``PYTHONPATH`` and import it beside an installed ``cqlnet``.
"""


def cut_chain(n, axioms=("X",), cuts=("Z",)):
    """The cut chain: one slice of n axioms joined by n-1 arrow cuts, 2n-1 links.

    Axiom k is ``axioms[k % len(axioms)]`` and cut k, between axioms k and
    k+1, is ``cuts[k % len(cuts)]``.  The conclusions are ``Q* , Q``.
    """
    lines = ["net chain", "conclusions Q* , Q", "slice"]
    lines += [f"  ax a{k} : {axioms[k % len(axioms)]}" for k in range(n)]
    lines += [f"  cut a{k}.1 , a{k + 1}.0 : {cuts[k % len(cuts)]}" for k in range(n - 1)]
    return "\n".join(lines + [f"  out a0.0 , a{n - 1}.1", "end"]) + "\n"


def closed_tensor(k):
    """The closed tensor net: k axioms ``id Q``, each end tensored by k-1 times links.

    One formula cut joins the two tensors and there are no conclusions, so
    the net has 3k-1 links and denotes the scalar 2^k in pauli8, while
    contracting it keeps 2^k keys of 2k open edges before that cut.
    """
    lines = ["net closed", "conclusions", "slice"] + [f"  ax a{i} : id Q" for i in range(k)]
    for side, slot in (("t", 1), ("u", 0)):
        below = f"a0.{slot}"
        for i in range(1, k):
            lines.append(f"  times {side}{i} = {below} a{i}.{slot}")
            below = f"{side}{i}.0"
    lines += [f"  cut t{k - 1}.0 , u{k - 1}.0 : id", "  out", "end"]
    return "\n".join(lines) + "\n"


def _sum_tree(depth):
    return "I" if depth == 0 else f"({_sum_tree(depth - 1)} + {_sum_tree(depth - 1)})"


def swap_tree(depth, pairs, arrows):
    """The swap tree: 2^depth slices; slice k selects leaf k of a sum tree, then cuts each pair.

    The conclusions are the sum tree of ``I`` of that depth and ``Q* , Q``
    once per pair.  Each slice has 1 + depth + 3·pairs links: a unit, one
    plus link per level, and per pair two axioms ``id Q`` and a cut on
    ``arrows[(3 * k + pair) % len(arrows)]``.  Every slice writes the sum
    tree of depth ``level`` as the other side of its plus link at that
    level, so the same few formula texts recur.
    """
    lines = ["net swap_tree", "conclusions " + " , ".join([_sum_tree(depth)] + ["Q* , Q"] * pairs)]
    for leaf in range(2**depth):
        lines += ["slice", "  unit u"]
        below = "u.0"
        for level in range(depth):
            if (leaf >> level) & 1:
                lines.append(f"  plus2 p{level} = {_sum_tree(level)} | {below}")
            else:
                lines.append(f"  plus1 p{level} = {below} | {_sum_tree(level)}")
            below = f"p{level}.0"
        outs = [below]
        for k in range(pairs):
            g = arrows[(3 * leaf + k) % len(arrows)]
            lines += [f"  ax a{k} : id Q", f"  ax b{k} : id Q", f"  cut a{k}.1 , b{k}.0 : {g}"]
            outs += [f"a{k}.0", f"b{k}.1"]
        lines += ["  out " + " , ".join(outs), "end"]
    return "\n".join(lines) + "\n"


def balanced_times(k):
    """The balanced times net: k axioms ``id Q`` whose 2k ends one balanced tree of times links joins.

    It has 3k-1 links.  The tree splits its ports in halves, the larger half
    on the left, so its one conclusion is ceil(log2 2k) deep.
    """
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


def plus_chain(n, top_down=False):
    """The plus chain: two chains of n plus1 links over units, cut against each other.

    It has 2n+6 links.  The conclusions are ``Q* , Q , (I + I)``, so the
    chains' label, nested n deep, appears only at the cut.  ``top_down``
    lists each chain from its top link down.
    """
    links = []
    for side in "lr":
        chain = [f"  unit {side}u"]
        chain += [f"  plus1 {side}{k} = {side}{k - 1 if k else 'u'}.0 | I" for k in range(n)]
        links += chain[::-1] if top_down else chain
    lines = ["net chain", "conclusions Q* , Q , (I + I)", "slice", "  ax a : id Q"]
    lines += ["  unit v", "  plus1 w = v.0 | I"] + links
    lines += [f"  cut l{n - 1}.0 , r{n - 1}.0 : id", "  out a.0 , a.1 , w.0", "end"]
    return "\n".join(lines) + "\n"


def parallel_axioms(n):
    """The parallel axioms: n axioms X side by side, n links, conclusions Q* , Q repeated n times."""
    lines = ["net par", "conclusions " + " , ".join(["Q* , Q"] * n), "slice"]
    lines += [f"  ax a{k} : X" for k in range(n)]
    lines += ["  out " + " , ".join(f"a{k}.0 , a{k}.1" for k in range(n)), "end"]
    return "\n".join(lines) + "\n"


_LINK_HEADS = {"ax", "cut", "times", "plus1", "plus2", "unit"}


def permute_link_lines(text, permute):
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
