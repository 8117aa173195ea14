"""Command line behavior: outputs pinned byte-for-byte, exit codes, and
the stdout/stderr split."""

import io
import os
import random
import resource
import shlex
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from digrank import cli, serialize_digraph, serialize_forest
from digrank.cli import main
from digrank.dfvs import DFVS_VERTEX_LIMIT
from digrank.digraph import MASK_VERTEX_LIMIT
from digrank.generate import random_strongly_connected

from common import bidirected_path, clique, least_pivot_path_forest


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


@pytest.mark.parametrize("mode, flags", [
    ("approx", ["--memo-limit", "1"]),
    ("brute", ["--memo-limit", "5"]),
    ("exact", ["--base-threshold", "7"]),
    ("brute", ["--base-threshold", "auto"]),
], ids=["approx-memo-limit", "brute-memo-limit", "exact-threshold", "brute-threshold"])
def test_crank_rejects_flags_the_mode_ignores(graph, capsys, mode, flags):
    code, out, err = run(capsys, ["crank", mode, *flags, graph("c3.dg", C3)])
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_crank_exact_memo_limit(graph, capsys):
    path = graph("k8.dg", serialize_digraph(clique(8)))
    code, out, err = run(capsys, ["crank", "exact", "--memo-limit", "5", path])
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    unlimited = run(capsys, ["crank", "exact", path])
    assert run(capsys, ["crank", "exact", "--memo-limit", "1000", path]) == unlimited
    assert unlimited[1].startswith("crank 7\n")


@pytest.mark.parametrize("limit", ["0", "x"], ids=["zero", "non-integer"])
def test_crank_exact_memo_limit_validation(graph, capsys, limit):
    code, _, err = run(capsys, ["crank", "exact", "--memo-limit", limit,
                                graph("k3.dg", K3)])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["reduce", "walk", "--format", "kv", "G", "0"],
    ["reduce", "--format", "kv", "walk", "G", "0"],
    ["reduce", "binarize", "--format", "text", "A"],
], ids=["walk-kv", "reduce-kv", "binarize-text"])
def test_reduce_rejects_format(graph, capsys, args):
    # reduce prints automaton text only; a --format it would ignore is an
    # input error, as on the other subcommands.
    files = {"G": graph("c3.dg", C3),
             "A": graph("c3.aut", "states 1\nalphabet a\ninitial 0\nfinals 0\n0 a 0\n")}
    code, out, err = run(capsys, [files.get(arg, arg) for arg in args])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_kv_format(graph, capsys):
    code, out, _ = run(capsys, ["crank", "exact", "--format", "kv",
                                graph("c4.dg", C4)])
    assert (code, out) == (0, "crank=1\n0 {0,1,2,3}\n")


def test_forest_validate_ok(graph, capsys):
    code, out, _ = run(capsys, ["forest", "validate", graph("c3.dg", C3),
                                graph("f.txt", "0 {0,1,2}\n")])
    assert (code, out) == (0, "valid yes\n")


def test_forest_validate_reads_comments(graph, capsys):
    forest = graph("f.txt", "# witness\n0 {0,1,2}  # the root\n")
    code, out, err = run(capsys, ["forest", "validate", graph("c3.dg", C3), forest])
    assert (code, out, err) == (0, "valid yes\n", "")


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


def test_forest_validate_rejects_tab_indentation(graph, capsys):
    # A tab would otherwise pass as blank space and read as a second root.
    g = graph("g.dg", "digraph 2\n0 1\n1 0\n1 1\n")
    code, out, err = run(capsys, ["forest", "validate", g,
                                  graph("f.txt", "0 {0,1}\n\t1 {1}\n")])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "line 2" in err


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


def test_dfvs_enumerate_cap(graph, capsys):
    # The search finds the three minimal sets of the 3-cycle and no others.
    path = graph("c3.dg", C3)
    code, out, err = run(capsys, ["dfvs", "enumerate", "--cap", "2", path])
    assert (code, out) == (3, "")
    assert err.startswith("error:")
    unlimited = run(capsys, ["dfvs", "enumerate", path])
    assert run(capsys, ["dfvs", "enumerate", "--cap", "3", path]) == unlimited
    assert run(capsys, ["dfvs", "enumerate", "--cap", "1000", path]) == unlimited


def test_dfvs_enumerate_cap_counts_minimal_sets(graph, capsys):
    # Uncut, the search would reach 12 feedback sets here, 7 of them
    # minimal; the cap counts the minimal ones.
    g = random_strongly_connected(random.Random(3), 7, max_outdeg=3)
    path = graph("g.dg", serialize_digraph(g))
    unlimited = run(capsys, ["dfvs", "enumerate", path])
    assert unlimited[1].startswith("count 7\n")
    assert run(capsys, ["dfvs", "enumerate", "--cap", "7", path]) == unlimited
    code, out, err = run(capsys, ["dfvs", "enumerate", "--cap", "6", path])
    assert (code, out) == (3, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("mode, cap", [
    ("enumerate", "0"), ("enumerate", "-1"), ("enumerate", "x"), ("min", "5"),
], ids=["zero", "negative", "non-integer", "min"])
def test_dfvs_cap_validation(graph, capsys, mode, cap):
    code, _, err = run(capsys, ["dfvs", mode, "--cap", cap, graph("c3.dg", C3)])
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


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


def test_sh_regex_deep_nesting(capsys):
    deep = "(" * 3000 + "a" + ")" * 3000
    assert run(capsys, ["sh", "regex", deep]) == (0, "sh 0\n", "")
    starred = "(" * 3000 + "a*" + ")" * 3000
    assert run(capsys, ["sh", "regex", starred]) == (0, "sh 1\n", "")


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


def test_empty_language_warns_before_the_error(graph, capsys):
    text = "states 4\nalphabet b a x\ninitial 1\nfinals 3\n"
    code, out, err = run(capsys, ["sh", "bidet", graph("e.aut", text)])
    assert (code, out) == (2, "")
    assert err == ("warning: empty language: trim kept only the initial state\n"
                   "error: trimmed automaton is not bideterministic\n")


HUGE = "1" + "0" * 30
def test_bounds_on_a_huge_declared_size_is_a_capacity_error(graph, capsys):
    # The loop check reads the edges, not every declared vertex.
    text = f"digraph {HUGE}\n0 1\n1 0\n"
    code, out, err = run(capsys, ["bounds", graph("h.dg", text)])
    assert (code, out) == (3, "")
    assert "snum_exact limited to n <= 15" in err


def test_bounds_on_a_huge_declared_size_rejects_loops(graph, capsys):
    text = f"digraph {HUGE}\n0 1\n1 0\n0 0\n"
    code, out, err = run(capsys, ["bounds", graph("h.dg", text)])
    assert (code, out) == (1, "")
    assert "bounds chain requires a loop-free digraph" in err


def _one_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# Each input file is one of these two texts with n set to the declared size.
HUGE_DG = "digraph {n}\n0 1\n1 0\n"
HUGE_AUT = "states {n}\nalphabet a\ninitial 0\nfinals 0\n0 a 0\n"


@pytest.mark.parametrize("command, text, rest, limit, n", [
    (["crank", "approx"], HUGE_DG, [], MASK_VERTEX_LIMIT, HUGE),
    (["forest", "validate"], HUGE_DG, ["f.txt"], MASK_VERTEX_LIMIT, HUGE),
    (["dfvs", "enumerate"], HUGE_DG, [], DFVS_VERTEX_LIMIT, HUGE),
    (["reduce", "walk"], HUGE_DG, ["0"], MASK_VERTEX_LIMIT, HUGE),
    (["sh", "bidet"], HUGE_AUT, [], MASK_VERTEX_LIMIT, HUGE),
    (["reduce", "binarize"], HUGE_AUT, [], MASK_VERTEX_LIMIT, HUGE),
    # Small enough to allocate, so without the check these run for
    # seconds and end in a MemoryError under the cap.
    (["reduce", "walk"], HUGE_DG, ["0"], MASK_VERTEX_LIMIT, "200000000"),
    (["sh", "bidet"], HUGE_AUT, [], MASK_VERTEX_LIMIT, "200000000"),
    (["reduce", "binarize"], HUGE_AUT, [], MASK_VERTEX_LIMIT, "200000000"),
], ids=["crank-approx", "forest-validate", "dfvs-enumerate", "reduce-walk", "sh-bidet",
        "reduce-binarize", "reduce-walk-2e8", "sh-bidet-2e8", "reduce-binarize-2e8"])
def test_mask_solvers_refuse_a_huge_declared_size_up_front(graph, command, text, rest,
                                                           limit, n):
    # Without the size check each walks every declared vertex or state;
    # the child's address space is capped so that fails in a MemoryError,
    # not by exhausting the machine.
    path = graph("h.in", text.format(n=n))
    rest = [graph(arg, "0 {0,1}\n") if arg == "f.txt" else arg for arg in rest]
    proc = subprocess.run([sys.executable, "-m", "digrank", *command, path, *rest],
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=_one_gib_address_space)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert f"limited to n <= {limit}, got n={n}" in proc.stderr


def test_memory_error_is_a_capacity_error(graph, capsys, monkeypatch):
    # MemoryError usually carries no message; the line still says what.
    def exhaust(args):
        raise MemoryError()

    monkeypatch.setitem(cli._HANDLERS, "crank", exhaust)
    code, out, err = run(capsys, ["crank", "exact", graph("c3.dg", C3)])
    assert (code, out, err) == (3, "", "error: input too large: MemoryError\n")


def test_superscript_digit_count_is_an_input_error(graph, capsys):
    # str.isdigit accepts "²", which int() then rejects with a ValueError.
    text = "states ²\nalphabet a\ninitial 0\nfinals 0\n"
    code, out, err = run(capsys, ["sh", "bidet", graph("s.aut", text)])
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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
    for fmt, expected in [
            ("text", "trial 0 crank 0 memo 0 within yes\nmax-memo 0\nbound 1.0\n"),
            ("kv", "trial=0 crank=0 memo=0 within=yes\nmax-memo=0\nbound=1.0\n")]:
        args = ["bench", "crank", "--n", "0", "--trials", "1", "--format", fmt]
        assert run(capsys, args)[:2] == (0, expected)


def test_bench_argument_errors(capsys):
    assert run(capsys, ["bench", "crank", "--n", "70"])[0] == 3
    assert run(capsys, ["bench", "crank", "--n", "5", "--outdeg", "0"])[0] == 1
    assert run(capsys, ["bench", "crank", "--n", "5", "--trials", "-1"])[0] == 1


def readme_transcript():
    """The commands of README's three-cycle block, each split as a shell
    would split it, with the stdout lines shown under it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("A three-cycle, end to end:", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:]), []))
        else:
            steps[-1][1].append(line)
    return steps


def test_readme_transcript(capsys, tmp_path, monkeypatch):
    # Replays the README block in a scratch directory: `printf ... > FILE`
    # writes FILE, `> FILE` captures stdout and `2>/dev/null` drops stderr.
    monkeypatch.chdir(tmp_path)
    steps = readme_transcript()
    assert len(steps) == 8
    for argv, want in steps:
        if argv[0] == "printf":
            assert argv[2] == ">" and len(argv) == 4 and not want
            Path(argv[3]).write_text(argv[1].replace("\\n", "\n"))
            continue
        assert argv[0] == "digrank", argv
        args = argv[1:]
        keep_err = "2>/dev/null" not in args
        if not keep_err:
            args.remove("2>/dev/null")
        out_file = None
        if ">" in args:
            args, out_file = args[:args.index(">")], args[-1]
        code, out, err = run(capsys, args)
        assert code == 0, argv
        if keep_err:
            assert err == "", argv
        if out_file:
            Path(out_file).write_text(out)
            out = ""
        assert out.splitlines() == want, argv


def test_unknown_arguments_exit_1(capsys):
    code, _, err = run(capsys, ["crank", "exact", "--nope", "x"])
    assert code == 1
    assert err.startswith("error:")
    assert run(capsys, ["frobnicate"])[0] == 1


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["crank", "exact", "/nonexistent/g.dg"])
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("argv,n", [(["dpw"], 25), (["dfvs", "min"], 65)],
                         ids=["dpw", "dfvs-min"])
def test_capacity_exit_3(graph, capsys, argv, n):
    big = f"digraph {n}\n" + "".join(
        f"{i} {(i + 1) % n}\n" for i in range(n))
    code, _, err = run(capsys, argv + [graph("big.dg", big)])
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


@pytest.mark.parametrize("n, mode", [(300, "approx"), (3, "exact")],
                         ids=["large-output", "small-output"])
def test_closed_stdout_exits_without_traceback(graph, n, mode):
    # The large forest fails while the handler prints; the small one only
    # in the flush at exit.  Either way the reader is gone before the
    # child writes.
    path = graph("g.dg", serialize_digraph(
        random_strongly_connected(random.Random(n), n, max_outdeg=3)))
    proc = subprocess.Popen([sys.executable, "-m", "digrank", "crank", mode, path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert 0 <= proc.wait() <= 3
    assert "Traceback" not in err and "Error" not in err, err


# Fuzzed input files: mostly well formed, with bad headers, stray tokens
# and odd indentation mixed into some of them.
# Header counts are drawn from the numeric-looking stray tokens.  "²" is a
# digit to str.isdigit but not to int; it comes first because hypothesis
# draws early elements most often.
COUNTS = st.sampled_from(["²", "x", "-1", "0", "1", "7"])
STRAY = st.lists(st.one_of(COUNTS, st.sampled_from(
    ["a", "eps", "{", "}", "{0,1}", "{}", ",", "#", "digraph", "states", "finals"])),
    min_size=1, max_size=4).map(" ".join)


@st.composite
def fuzzed_text(draw, headers, body):
    lines = [draw(st.sampled_from(headers)), *draw(st.lists(body, max_size=10))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(STRAY))
    indents = st.sampled_from(["", " ", "  ", "\t"] if draw(st.booleans()) else [""])
    return "".join(draw(indents) + line + "\n" for line in lines)


@st.composite
def digraph_texts(draw):
    n = draw(st.integers(0, 6))
    vertex = st.integers(0, max(n - 1, 0))
    headers = [f"digraph {n}"] * 4 + ["digraph", "digraph x", "graph 3", "digraph -1",
                                     f"digraph {draw(COUNTS)}"]
    edge = st.tuples(vertex, vertex).map(lambda e: f"{e[0]} {e[1]}")
    return draw(fuzzed_text(headers, edge))


@st.composite
def forest_texts(draw):
    vertex = st.integers(0, 5)
    node = st.tuples(st.integers(0, 3), vertex, st.sets(vertex, max_size=5)).map(
        lambda t: "  " * t[0] + f"{t[1]} {{{','.join(map(str, sorted(t[2])))}}}")
    return draw(fuzzed_text([""], node))


@st.composite
def automaton_texts(draw):
    k = draw(st.integers(1, 6))
    state = st.integers(0, k - 1)
    alphabet = draw(st.lists(st.sampled_from("abx"), min_size=1, max_size=3, unique=True))
    finals = " ".join(map(str, draw(st.lists(state, max_size=3))))
    header = (f"states {k}\nalphabet {' '.join(alphabet)}\n"
              f"initial {draw(state)}\nfinals {finals}")
    stray = (f"states {draw(COUNTS)}\nalphabet {' '.join(alphabet)}\n"
             f"initial {draw(COUNTS)}\nfinals {finals}")
    headers = [header] * 3 + [stray] * 3 + [f"states {k}\ninitial 0", "alphabet a"]
    move = st.tuples(state, st.sampled_from([*alphabet] * 3 + ["eps"]), state).map(
        lambda t: f"{t[0]} {t[1]} {t[2]}")
    return draw(fuzzed_text(headers, move))


@st.composite
def regex_texts(draw):
    # Well formed, with stray characters spliced into some.
    text = draw(st.recursive(st.sampled_from("ab²#@"), lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join), st.tuples(inner, inner).map("+".join),
        inner.map("({})*".format)), max_leaves=8))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("ab()+*#@ ²")) + text[i:]
    return text


COMMANDS = st.sampled_from([
    ["crank", "exact", "G"], ["crank", "brute", "G"], ["crank", "approx", "G"],
    ["forest", "validate", "G", "F"], ["dpw", "G"], ["snum", "G"],
    ["bounds", "G"], ["dfvs", "min", "G"], ["dfvs", "enumerate", "G"],
    ["count-sc", "G"], ["sh", "bidet", "A"], ["reduce", "walk", "G", "V"],
    ["reduce", "binarize", "A"], ["sh", "regex", "R"],
])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(COMMANDS, digraph_texts(), forest_texts(), automaton_texts(),
       st.sampled_from(["0", "1", "5", "-1", "x"]), regex_texts(),
       st.booleans())
def test_cli_contract_on_fuzzed_files(command, g_text, f_text, a_text, vertex, expr, kv):
    with tempfile.TemporaryDirectory() as tmp:
        files = {"V": vertex, "R": expr}
        for key, text in [("G", g_text), ("F", f_text), ("A", a_text)]:
            files[key] = os.path.join(tmp, key)
            with open(files[key], "w") as fh:
                fh.write(text)
        argv = [files.get(arg, arg) for arg in command]
        argv[1:1] = ["--format", "kv"] if kv and argv[0] != "reduce" else []
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), \
                warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 1, 2, 3)
    # A warning that escapes main would reach stderr raw, without a prefix.
    assert not escaped, (argv, [str(w.message) for w in escaped])
    for line in err.getvalue().splitlines():
        assert line.startswith(("warning:", "error:")), (argv, line)
