"""Command line front end.

Exit codes: 0 success (or: nets equal), 1 nets semantically distinct,
2 usage or validation error, 3 internal error (a bug; the traceback goes to
stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .category import load_category
from .errors import CategoryError, FormulaError, ModelError, NetError, ParseError
from .formula import fmt
from .freecat import complete, denote, fmt_arrow, parse_arrow
from .model import eval_net, load_model
from .net import parse_net, print_net, to_dot
from .rewrite import beta_equal, normalize, to_net

_ERRORS = (
    ParseError, CategoryError, FormulaError, NetError, ModelError, OSError, UnicodeDecodeError
)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _net(args, cat, path=None):
    return parse_net(_read(path if path is not None else args.net), cat)


def _dispatch(args):
    if args.cmd == "examples":
        from . import fixtures  # only this command reads them: other calls skip compiling them

        paths = fixtures.write_examples(args.dir)
        for p in paths:
            print(p)
        return 0

    cat = load_category(_read(args.category))
    if args.cmd == "check":
        net = _net(args, cat)
        print(f"net {net.name}: {len(net.slices)} slice(s)")
        print(("conclusions " + " , ".join(fmt(f) for f in net.conclusions)).rstrip())
        return 0
    if args.cmd == "normalize":
        net = _net(args, cat)
        trace = [] if args.trace else None
        nn = normalize(net, strategy=args.strategy, seed=args.seed, trace=trace)
        if trace:
            for line in trace:
                print(line, file=sys.stderr)
        sys.stdout.write(print_net(to_net(nn, cat, name=net.name)))
        return 0
    if args.cmd == "denote":
        net = _net(args, cat)
        sys.stdout.write(fmt_arrow(denote(net)))
        return 0
    if args.cmd == "eval":
        interp = load_model(_read(args.model), cat)
        net = _net(args, cat)
        vec = eval_net(net, interp)
        print("[" + ", ".join(interp.ring.fmt(x) for x in vec.column()) + "]")
        return 0
    if args.cmd == "equal":
        n1 = _net(args, cat, args.net1)
        n2 = _net(args, cat, args.net2)
        if beta_equal(n1, n2):
            print("equal")
            return 0
        print("distinct")
        return 1
    if args.cmd == "complete":
        fa = parse_arrow(_read(args.arrow), cat)
        sys.stdout.write(print_net(complete(fa)))
        return 0
    if args.cmd == "dot":
        net = _net(args, cat)
        sys.stdout.write(to_dot(net))
        return 0
    raise AssertionError(args.cmd)


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="cqlnet",
        description="Proof nets over a finite dagger category: check, "
        "normalize, denote, evaluate, compare.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def net_cmd(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--category", required=True, help="category file")
        return p

    p = net_cmd("check", "validate a net file")
    p.add_argument("net")
    p = net_cmd("normalize", "print the normal form of a net")
    p.add_argument("--strategy", choices=("min", "random"), default="min")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", action="store_true", help="log steps to stderr")
    p.add_argument("net")
    p = net_cmd("denote", "print the free-category arrow of a net")
    p.add_argument("net")
    p = net_cmd("eval", "evaluate a net in a matrix model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("net")
    p = net_cmd("equal", "decide whether two nets are equal up to rewriting")
    p.add_argument("net1")
    p.add_argument("net2")
    p = net_cmd("complete", "rebuild a net from a free-category arrow file")
    p.add_argument("arrow")
    p = net_cmd("dot", "emit a GraphViz rendering of a net")
    p.add_argument("net")
    p = sub.add_parser("examples", help="write the bundled example files")
    p.add_argument("dir")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
