import os
import pathlib
import subprocess
import sys
from itertools import accumulate

import pytest

from cqlnet import cli, fixtures
from cqlnet.errors import FormulaError
from cqlnet.formula import MAX_DEPTH, MAX_WORDS, Literal
from cqlnet.freecat import denote, embed, fa_equal, fmt_arrow, identity, name_of, parse_arrow
from cqlnet.model import MAX_ENTRIES
from cqlnet.net import parse_net

from families import closed_tensor, plus_chain


@pytest.fixture(scope="module")
def exdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("examples")
    fixtures.write_examples(d)
    return d


def _p(exdir, name):
    return str(exdir / name)


def test_examples_command(tmp_path, capsys):
    rc = cli.main(["examples", str(tmp_path)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(fixtures.EXAMPLES)
    for line in lines:
        assert (tmp_path / line.rsplit("/", 1)[-1]).exists()


def test_check_command(exdir, capsys):
    rc = cli.main(["check", "--category", _p(exdir, "pauli8.cat"), _p(exdir, "bell.net")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "net bell: 1 slice(s)"
    assert out[1] == "conclusions Q* , Q"


def test_check_rejects_bad_net(exdir, tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text("net bad\nconclusions Q\nslice\n  ax a : id Q\n  out a.0 , a.1\nend\n")
    rc = cli.main(["check", "--category", _p(exdir, "pauli8.cat"), str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_normalize_deterministic(exdir, capsys, pauli8):
    argv = ["normalize", "--category", _p(exdir, "pauli8.cat"), _p(exdir, "chain.net")]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    net = parse_net(first, pauli8)
    assert net.name == "chain"
    assert len(net.slices) == 1


def test_normalize_strategies_agree(exdir, capsys):
    base = ["--category", _p(exdir, "pauli8.cat"), _p(exdir, "swapping.net")]
    assert cli.main(["normalize"] + base) == 0
    got_min = capsys.readouterr().out
    assert cli.main(["normalize", "--strategy", "random", "--seed", "9"] + base) == 0
    got_rand = capsys.readouterr().out
    assert got_min == got_rand


def test_normalize_trace(exdir, capsys):
    argv = [
        "normalize",
        "--trace",
        "--category",
        _p(exdir, "pauli8.cat"),
        _p(exdir, "chain.net"),
    ]
    assert cli.main(argv) == 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 2
    assert all("ax-ax" in line for line in err)


def test_denote_round_trips(exdir, capsys, pauli8):
    rc = cli.main(["denote", "--category", _p(exdir, "pauli8.cat"), _p(exdir, "bell.net")])
    assert rc == 0
    out = capsys.readouterr().out
    bell = parse_net(fixtures.BELL_NET, pauli8)
    assert fa_equal(parse_arrow(out, pauli8), denote(bell))


def test_denote_prints_the_readme_block(exdir, capsys):
    # the arrow text and nothing after it: no blank line at the end
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    command = "$ cqlnet denote --category ex/pauli8.cat ex/ring.net\n"
    want = readme.split(command)[1].split("```")[0]
    assert want.count("\n") == 2
    assert cli.main(["denote", "--category", _p(exdir, "pauli8.cat"), _p(exdir, "ring.net")]) == 0
    assert capsys.readouterr().out == want


def test_eval_command(exdir, capsys):
    base = ["eval", "--category", _p(exdir, "pauli8.cat"), "--model", _p(exdir, "pauli8.mod")]
    assert cli.main(base + [_p(exdir, "bell.net")]) == 0
    assert capsys.readouterr().out.strip() == "[1, 0, 0, 1]"
    assert cli.main(base + [_p(exdir, "bellx.net")]) == 0
    assert capsys.readouterr().out.strip() == "[0, 1, 1, 0]"


def test_eval_bool_model(exdir, capsys):
    base = ["eval", "--category", _p(exdir, "c2.cat"), "--model", _p(exdir, "c2bool.mod")]
    assert cli.main(base + [_p(exdir, "bell.net")]) == 0
    assert capsys.readouterr().out.strip() == "[1, 0, 0, 1]"


def test_equal_command(exdir, capsys):
    cat = ["--category", _p(exdir, "pauli8.cat")]
    rc = cli.main(["equal"] + cat + [_p(exdir, "chain.net"), _p(exdir, "bell.net")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "equal"
    rc = cli.main(["equal"] + cat + [_p(exdir, "bell.net"), _p(exdir, "bellx.net")])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "distinct"


def test_complete_long_words(exdir, tmp_path, capsys, pauli8):
    # the name of the identity on Q x ... x Q is one word of 2n literals,
    # whose balanced tensors nest ceil(log2 2n) deep
    cat = ["--category", _p(exdir, "pauli8.cat")]
    for literals in (MAX_DEPTH, 1200):
        want = fmt_arrow(name_of(identity(pauli8, ((Literal("Q"),) * (literals // 2),))))
        arrow, net = tmp_path / f"long{literals}.arrow", tmp_path / f"long{literals}.net"
        arrow.write_text(want)
        assert cli.main(["complete"] + cat + [str(arrow)]) == 0
        net.write_text(capsys.readouterr().out)
        assert cli.main(["check"] + cat + [str(net)]) == 0
        capsys.readouterr()
        head, conclusions = net.read_text().splitlines()[1].split(" ", 1)
        assert head == "conclusions"
        depth = max(accumulate((c == "(") - (c == ")") for c in conclusions))
        assert depth == (literals - 1).bit_length() <= 11
        assert cli.main(["denote"] + cat + [str(net)]) == 0
        assert capsys.readouterr().out == want


def test_complete_round_trip(exdir, tmp_path, capsys, pauli8):
    fa = embed(pauli8, "X")
    arrow_file = tmp_path / "x.arrow"
    arrow_file.write_text(fmt_arrow(fa))
    rc = cli.main(["complete", "--category", _p(exdir, "pauli8.cat"), str(arrow_file)])
    assert rc == 0
    net = parse_net(capsys.readouterr().out, pauli8)
    assert fa_equal(denote(net), name_of(fa))


def test_dot_command(exdir, capsys):
    rc = cli.main(["dot", "--category", _p(exdir, "pauli8.cat"), _p(exdir, "swapping.net")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "cluster_0" in out and "cluster_3" in out


def test_missing_file_is_an_error(exdir, capsys):
    rc = cli.main(["check", "--category", _p(exdir, "pauli8.cat"), "/no/such/file.net"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_non_utf8_input_is_an_error(exdir, tmp_path, capsys):
    bad_net = tmp_path / "bad.net"
    bad_net.write_bytes(fixtures.BELL_NET.encode() + b"# \xff\n")
    bad_cat = tmp_path / "bad.cat"
    bad_cat.write_bytes(fixtures.C2_CAT.encode() + b"# \xff\n")
    for category, net in ((_p(exdir, "pauli8.cat"), bad_net), (bad_cat, _p(exdir, "bell.net"))):
        rc = cli.main(["check", "--category", str(category), str(net)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "internal error" not in err


def test_utf8_comments_are_read_whatever_the_locale(exdir, tmp_path):
    net = tmp_path / "bell.net"
    net.write_bytes(fixtures.BELL_NET.encode() + "# \u00e9t\u00e9\n".encode())
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    argv = ["check", "--category", _p(exdir, "pauli8.cat"), str(net)]
    proc = subprocess.run([sys.executable, "-m", "cqlnet.cli", *argv], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_model_category_mismatch(exdir, capsys):
    rc = cli.main(
        [
            "eval",
            "--category",
            _p(exdir, "pauli8.cat"),
            "--model",
            _p(exdir, "c2.mod"),
            _p(exdir, "bell.net"),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_internal_error_exits_three(exdir, monkeypatch, capsys):
    # an exception outside the documented errors stands in for a crash
    for exc_type in (RuntimeError, ValueError):

        def crash(text, cat):
            raise exc_type("crash")

        monkeypatch.setattr(cli, "parse_net", crash)
        net = _p(exdir, "bell.net")
        rc = cli.main(["equal", "--category", _p(exdir, "pauli8.cat"), net, net])
        assert rc == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.rstrip().endswith("internal error")


def test_equal_different_conclusions_exits_two(exdir, capsys):
    cat, bell, ring = (_p(exdir, n) for n in ("pauli8.cat", "bell.net", "ring.net"))
    assert cli.main(["equal", "--category", cat, bell, ring]) == 2
    assert capsys.readouterr().err.strip() == "error: nets have different conclusions"


def _nested_net(tmp_path, depth):
    deep = "(Q x " * depth + "Q" + ")" * depth
    net = tmp_path / f"deep{depth}.net"
    net.write_text(f"net deep\nconclusions {deep}\n")
    return str(net)


def test_deep_formula_exits_two(exdir, tmp_path, capsys):
    net = _nested_net(tmp_path, 1200)
    rc = cli.main(["equal", "--category", _p(exdir, "pauli8.cat"), net, net])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.strip() == f"error: line 2: formula nested deeper than {MAX_DEPTH}"


def test_formula_at_depth_limit_is_accepted(exdir, tmp_path, capsys):
    net = _nested_net(tmp_path, MAX_DEPTH)
    for cmd in ("check", "normalize"):
        assert cli.main([cmd, "--category", _p(exdir, "pauli8.cat"), net]) == 0
    assert capsys.readouterr().err == ""


def test_deep_link_chain_exits_two(exdir, tmp_path, capsys):
    net = tmp_path / "chain.net"
    net.write_text(plus_chain(1500))
    for cmd in ("check", "dot"):
        assert cli.main([cmd, "--category", _p(exdir, "pauli8.cat"), str(net)]) == 2
        err = capsys.readouterr().err
        assert err.strip() == "error: link l256: label nested deeper than 256"


def test_link_chain_at_depth_limit_passes_every_command(exdir, tmp_path, capsys):
    net = tmp_path / "chain.net"
    net.write_text(plus_chain(MAX_DEPTH, top_down=True))
    cat = ["--category", _p(exdir, "pauli8.cat")]
    for args in (
        ["check"],
        ["normalize"],
        ["denote"],
        ["eval", "--model", _p(exdir, "pauli8.mod")],
        ["dot"],
        ["equal", str(net)],
    ):
        assert cli.main(args[:1] + cat + args[1:] + [str(net)]) == 0
    assert capsys.readouterr().err == ""


def test_one_way_dagger_exits_two(exdir, tmp_path, capsys):
    cat = tmp_path / "oneway.cat"
    cat.write_text(fixtures.PAULI8_CAT.replace("dagger mXZ = XZ\n", ""))
    assert cli.main(["check", "--category", str(cat), _p(exdir, "bell.net")]) == 2
    assert capsys.readouterr().err.strip() == "error: dagger undefined for mXZ"


def _sum_net(tmp_path, k):
    """k axioms ``id Q``, each injected into ``(Q + Q)`` and tensored: 8^k outputs."""
    lines = ["slice"]
    concl, top = "(Q + Q)", "p0.0"
    for j in range(k):
        lines += [f"  ax a{j} : id Q", f"  plus1 p{j} = a{j}.1 | Q"]
        if j:
            concl = f"({concl} x (Q + Q))"
            lines.append(f"  times t{j} = {top} p{j}.0")
            top = f"t{j}.0"
    lines.append("  out " + " , ".join([f"a{j}.0" for j in range(k)] + [top]))
    head = [f"net sum{k}", "conclusions " + " , ".join(["Q*"] * k + [concl])]
    net = tmp_path / f"sum{k}.net"
    net.write_text("\n".join(head + lines + ["end"]) + "\n")
    return str(net)


def test_eval_size_limit(exdir, tmp_path, capsys):
    base = ["eval", "--category", _p(exdir, "pauli8.cat"), "--model", _p(exdir, "pauli8.mod")]
    assert 8**6 <= MAX_ENTRIES < 8**7
    assert cli.main(base + [_sum_net(tmp_path, 6)]) == 0
    out, err = capsys.readouterr()
    assert out.count(",") == 8**6 - 1 and err == ""
    assert cli.main(base + [_sum_net(tmp_path, 7)]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: net sum7: {8**7} output entries, more than {MAX_ENTRIES}"


def test_anf_word_limit_exits_two(exdir, tmp_path, capsys, pauli8):
    # sum16's conclusion stands for 2^16 words; anf stops at the first product past the limit
    assert 2**12 <= MAX_WORDS < 2**13
    net = _sum_net(tmp_path, 16)
    with pytest.raises(FormulaError, match=f"ANF of {2**13} words, more than {MAX_WORDS}"):
        denote(parse_net((tmp_path / "sum16.net").read_text(), pauli8))
    assert cli.main(["denote", "--category", _p(exdir, "pauli8.cat"), net]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: ANF of {2**13} words, more than {MAX_WORDS}"


def test_eval_closed_tensor_net_exits_zero(exdir, tmp_path, capsys):
    net = tmp_path / "closed16.net"
    net.write_text(closed_tensor(16))
    argv = ["eval", "--category", _p(exdir, "pauli8.cat"), "--model", _p(exdir, "pauli8.mod")]
    assert cli.main(argv + [str(net)]) == 0
    assert capsys.readouterr() == ("[65536]\n", "")


def test_non_dual_id_cut_exits_two(exdir, tmp_path, capsys):
    net = tmp_path / "nondual.net"
    net.write_text(
        "net n\nconclusions Q* , Q*\nslice\n  ax a : id Q\n  ax b : id Q\n"
        "  cut a.1 , b.1 : id\n  out a.0 , b.0\nend\n"
    )
    assert cli.main(["check", "--category", _p(exdir, "pauli8.cat"), str(net)]) == 2
    assert capsys.readouterr().err.strip() == "error: line 6: id cut inputs Q, Q are not dual"


def test_model_dim_limit_exits_two(exdir, tmp_path, capsys):
    mod = tmp_path / "big.mod"
    mod.write_text(fixtures.PAULI8_MOD.replace("dim Q = 2", "dim Q = 200000"))
    argv = ["eval", "--category", _p(exdir, "pauli8.cat"), "--model", str(mod)]
    assert cli.main(argv + [_p(exdir, "bell.net")]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"error: dim Q = 200000: {200000**2} matrix entries, more than {MAX_ENTRIES}"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_readme_library_block_runs(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    (block,) = [part.split("```")[0] for part in readme.split("```python\n")[1:]]
    fixtures.write_examples(tmp_path / "ex")
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[ [1] ; [0] ; [0] ; [1] ]\n"
