"""Command line behavior: outputs pinned byte-for-byte, exit codes, and
the stdout/stderr split."""

import subprocess
import sys

import pytest

from digrank import serialize_digraph, serialize_forest
from digrank.cli import main

from common import bidirected_path, least_pivot_path_forest


C4 = "digraph 4\n0 1\n1 2\n2 3\n3 0\n"
K3 = "digraph 3\n0 1\n1 0\n0 2\n2 0\n1 2\n2 1\n"
C3 = "digraph 3\n0 1\n1 2\n2 0\n"


@pytest.fixture
def graph(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_crank_exact(graph, capsys):
    code, out, err = run(capsys, ["crank", "exact", graph("c4.dg", C4)])
    assert (code, out, err) == (0, "crank 1\n0 {0,1,2,3}\n", "")


def test_crank_brute(graph, capsys):
    code, out, _ = run(capsys, ["crank", "brute", graph("c4.dg", C4)])
    assert (code, out) == (0, "crank 1\n")


def test_crank_approx(graph, capsys):
    code, out, _ = run(capsys, ["crank", "approx", graph("k3.dg", K3)])
    assert code == 0
    assert out == "height 2\n0 {0,1,2}\n  1 {1,2}\n"


@pytest.mark.parametrize("flags", [
    ["--base-threshold", "x"],
    ["--base-threshold", "0"],
    ["--separator", "greedy"],  # the option no longer exists
], ids=["threshold-x", "threshold-0", "separator"])
def test_crank_approx_flag_validation(graph, capsys, flags):
    code, _, err = run(capsys, ["crank", "approx", *flags, graph("k3.dg", K3)])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_kv_format(graph, capsys):
    code, out, _ = run(capsys, ["crank", "exact", "--format", "kv",
                                graph("c4.dg", C4)])
    assert (code, out) == (0, "crank=1\n0 {0,1,2,3}\n")


def test_forest_validate_ok(graph, capsys):
    code, out, _ = run(capsys, ["forest", "validate", graph("c3.dg", C3),
                                graph("f.txt", "0 {0,1,2}\n")])
    assert (code, out) == (0, "valid yes\n")


def test_forest_validate_deep_forest(graph, capsys):
    # 1200 levels: deeper than Python's default recursion limit.
    n = 1201
    path = graph("path.dg", serialize_digraph(bidirected_path(n)))
    forest = graph("f.txt", serialize_forest(least_pivot_path_forest(n)))
    code, out, err = run(capsys, ["forest", "validate", path, forest])
    assert (code, out, err) == (0, "valid yes\n", "")


def test_forest_validate_bad(graph, capsys):
    code, out, _ = run(capsys, ["forest", "validate", graph("c3.dg", C3),
                                graph("f.txt", "0 {0,1}\n")])
    assert code == 2
    assert out.startswith("valid no\n")
    assert "violation:" in out


def test_dpw(graph, capsys):
    code, out, _ = run(capsys, ["dpw", graph("c4.dg", C4)])
    assert (code, out) == (0, "dpw 1\n{0,3}\n{1,3}\n{2,3}\n{3}\n")


def test_dpw_empty_graph_flag(graph, capsys):
    code, out, _ = run(capsys, ["dpw", graph("e.dg", "digraph 0\n")])
    assert (code, out) == (0, "dpw 0\nempty yes\n")


def test_snum(graph, capsys):
    assert run(capsys, ["snum", graph("c4.dg", C4)]) == (0, "snum 1\n", "")


def test_bounds_k3(graph, capsys):
    code, out, _ = run(capsys, ["bounds", graph("k3.dg", K3)])
    assert (code, out) == (0, "snum 2 dpw 2 crank 2 rk-1 2 chain ok\n")


def test_bounds_acyclic_dashes_the_bound(graph, capsys):
    code, out, _ = run(capsys, ["bounds", graph("a.dg", "digraph 2\n0 1\n")])
    assert (code, out) == (0, "snum 0 dpw 0 crank 0 rk-1 - chain ok\n")


def test_bounds_kv(graph, capsys):
    code, out, _ = run(capsys, ["bounds", "--format", "kv", graph("k3.dg", K3)])
    assert code == 0
    assert out == "snum=2\ndpw=2\ncrank=2\nrk-1=2\nchain=ok\n"


def test_bounds_rejects_loops(graph, capsys):
    code, _, err = run(capsys, ["bounds", graph("l.dg", "digraph 1\n0 0\n")])
    assert code == 1
    assert err.startswith("error:")


def test_dfvs_min(graph, capsys):
    code, out, _ = run(capsys, ["dfvs", "min", graph("c3.dg", C3)])
    assert (code, out) == (0, "size 1\nmin {0}\nforced {}\n")


def test_dfvs_enumerate(graph, capsys):
    code, out, _ = run(capsys, ["dfvs", "enumerate", graph("c3.dg", C3)])
    assert (code, out) == (0, "count 3\n{0}\n{1}\n{2}\n")


def test_count_sc(graph, capsys):
    code, out, _ = run(capsys, ["count-sc", graph("k3.dg", K3)])
    assert (code, out) == (0, "nontrivial 4\ntotal 7\n")


def test_sh_regex(capsys):
    assert run(capsys, ["sh", "regex", "(a*b)*"]) == (0, "sh 2\n", "")


def test_sh_regex_long_input(capsys):
    # Concatenation nests left-deep and stars nest directly: both chains
    # are as deep as the input is long.
    assert run(capsys, ["sh", "regex", "a" * 5000]) == (0, "sh 0\n", "")
    assert run(capsys, ["sh", "regex", "a" + "*" * 2000]) == (0, "sh 2000\n", "")


def test_sh_regex_nesting_is_capped(capsys):
    deep = "(" * 3000 + "a" + ")" * 3000
    code, out, err = run(capsys, ["sh", "regex", deep])
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    at_cap = "(" * 100 + "a*" + ")" * 100
    assert run(capsys, ["sh", "regex", at_cap]) == (0, "sh 1\n", "")


def test_sh_regex_syntax_error(capsys):
    code, _, err = run(capsys, ["sh", "regex", "(a"])
    assert code == 1
    assert err.startswith("error:")


def test_walk_pipeline(graph, capsys, tmp_path):
    code, out, _ = run(capsys, ["reduce", "walk", graph("c3.dg", C3), "0"])
    assert code == 0
    assert out.startswith("states 3\n")
    auto = tmp_path / "walk.aut"
    auto.write_text(out)
    code, out, _ = run(capsys, ["sh", "bidet", str(auto)])
    assert code == 0
    assert out.splitlines()[0] == "sh 1"


def test_walk_rejects_disconnected(graph, capsys):
    code, _, err = run(capsys, ["reduce", "walk",
                                graph("p.dg", "digraph 2\n0 1\n"), "0"])
    assert code == 2
    assert err.startswith("error:")


def test_binarize_pipeline(graph, capsys, tmp_path):
    code, out, _ = run(capsys, ["reduce", "walk", graph("c3.dg", C3), "0"])
    walk = tmp_path / "walk.aut"
    walk.write_text(out)
    code, out, _ = run(capsys, ["reduce", "binarize", str(walk)])
    assert code == 0
    assert "alphabet a b" in out
    binary = tmp_path / "bin.aut"
    binary.write_text(out)
    code, out, _ = run(capsys, ["sh", "bidet", str(binary)])
    assert code == 0
    assert out.splitlines()[0] == "sh 1"


def test_binarize_rejects_nondeterministic_file(graph, capsys):
    text = "states 2\nalphabet a\ninitial 0\nfinals 1\n0 a 1\n0 a 0\n"
    code, _, err = run(capsys, ["reduce", "binarize", graph("n.aut", text)])
    assert code == 1  # not even a DFA file
    assert err.startswith("error:")


def test_bench_shape_and_streams(capsys):
    code, out, err = run(capsys, ["bench", "crank", "--n", "6", "--trials", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("trial 0 crank ")
    assert lines[1].startswith("trial 1 crank ")
    assert lines[2].startswith("max-memo ")
    assert lines[3].startswith("bound ")
    assert all("within yes" in line for line in lines[:2])
    assert "ms" in err  # timings go to the diagnostic stream only


def test_bench_stdout_is_reproducible(capsys):
    first = run(capsys, ["bench", "crank", "--n", "8", "--trials", "3",
                         "--seed", "5"])
    second = run(capsys, ["bench", "crank", "--n", "8", "--trials", "3",
                          "--seed", "5"])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_bench_trivial_n0(capsys):
    code, out, _ = run(capsys, ["bench", "crank", "--n", "0", "--trials", "1"])
    assert code == 0
    assert "trial 0 crank 0 memo 0 within yes" in out


def test_bench_argument_errors(capsys):
    assert run(capsys, ["bench", "crank", "--n", "70"])[0] == 3
    assert run(capsys, ["bench", "crank", "--n", "5", "--outdeg", "0"])[0] == 1
    assert run(capsys, ["bench", "crank", "--n", "5", "--trials", "-1"])[0] == 1


def test_unknown_arguments_exit_1(capsys):
    code, _, err = run(capsys, ["crank", "exact", "--nope", "x"])
    assert code == 1
    assert err.startswith("error:")
    assert run(capsys, ["frobnicate"])[0] == 1


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["crank", "exact", "/nonexistent/g.dg"])
    assert code == 1
    assert "cannot read" in err


def test_capacity_exit_3(graph, capsys):
    big = "digraph 25\n" + "".join(
        f"{i} {(i + 1) % 25}\n" for i in range(25))
    code, _, err = run(capsys, ["dpw", graph("big.dg", big)])
    assert code == 3
    assert err.startswith("error:")


def test_duplicate_edges_warn_on_stderr(graph, capsys):
    code, out, err = run(capsys, ["crank", "exact",
                                  graph("d.dg", "digraph 2\n0 1\n0 1\n1 0\n")])
    assert code == 0
    assert out.startswith("crank 1\n")
    assert err.startswith("warning:")


def test_graph_parse_error_exit_1(graph, capsys):
    code, _, err = run(capsys, ["crank", "exact", graph("bad.dg", "digraph 2\n0 5\n")])
    assert code == 1
    assert err.startswith("error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("digrank ")


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "digrank", "sh", "regex", "a*"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "sh 1\n"
