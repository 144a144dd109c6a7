"""End-to-end command-line tests driven through ``rep132.cli.main``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rep132
from conftest import LOAD_PACKAGE, run_child
from rep132.cli import main
from rep132.constructions import path_representant

GOOD_STAR_TEXT = "n 4\n1 2\n1 3\n1 4\n"
ODD_STAR_TEXT = "n 4\n1 4\n2 4\n3 4\n"
WHEEL5_TEXT = (
    "n 6\n1 2\n2 3\n3 4\n4 5\n1 5\n1 6\n2 6\n3 6\n4 6\n5 6\n"
)


@pytest.fixture
def cli(capsys):
    def run(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:        # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.graph"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


# --------------------------------------------------------------- check-word


def test_check_word_avoider(cli):
    code, out, _ = cli("check-word", "43451251")
    assert code == 0
    assert "word: 43451251" in out
    assert "length: 8" in out
    assert "reduced: 43451251" in out
    assert "alphabet: {1, 2, 3, 4, 5}" in out
    assert "occurrences: 1:2 2:1 3:1 4:2 5:2" in out
    assert "pattern 132: avoided" in out
    assert "graph: n=5 edges 1-2 1-5 2-3 2-5 3-4" in out


def test_check_word_with_pattern(cli):
    code, out, _ = cli("check-word", "3474")
    assert code == 0
    assert "reduced: 1232" in out
    assert "pattern 132: contained — letters 3,7,4 at positions 1,3,4" in out
    assert "graph (of reduced word; alphabet is not 1..n): n=3 edges 1-3 2-3" in out


def test_check_word_single_letter(cli):
    code, out, _ = cli("check-word", "1")
    assert code == 0
    assert "graph: n=1 edges (none)" in out


def test_check_word_parse_error(cli):
    code, _, err = cli("check-word", "1.2.x")
    assert code == 2
    assert err.startswith("error: cannot parse word '1.2.x'")


# ---------------------------------------------------------------- represent


@pytest.mark.parametrize("n, word", [("1", "1"), ("2", "212"), ("4", "4342312")])
def test_represent_path(cli, n, word):
    assert cli("represent", "path", n) == (0, word + "\n", "")


def test_represent_cycle(cli):
    assert cli("represent", "cycle", "5") == (0, "45342312\n", "")


def test_represent_cycle_too_small(cli):
    code, _, err = cli("represent", "cycle", "2")
    assert code == 2
    assert "cycle needs n >= 3" in err


def test_represent_complete_shortest(cli):
    assert cli("represent", "complete", "8")[:2] == (0, "12345678\n")
    assert cli("represent", "complete", "2")[:2] == (0, "12\n")


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("enumerate_flag", [[], ["--enumerate"]], ids=["shortest", "enumerate"])
def test_represent_complete_rejects_fewer_than_one_vertex(cli, n, enumerate_flag):
    assert cli("represent", "complete", n, *enumerate_flag) == (
        2, "", "error: n must be >= 1\n")


def test_represent_complete_enumerate(cli):
    code, out, _ = cli("represent", "complete", "3", "--enumerate")
    assert code == 0
    assert out == (
        "case 1.1 (1 word):\n"
        "  231231\n"
        "case 1.2 (1 word):\n"
        "  23123\n"
        "case 1.3 (1 word):\n"
        "  31231\n"
        "case 1.4 (2 words):\n"
        "  3123\n"
        "  3213\n"
        "case 2.1 (5 words):\n"
        "  123\n"
        "  213\n"
        "  231\n"
        "  312\n"
        "  321\n"
        "case 2.2 (2 words):\n"
        "  1231\n"
        "  2312\n"
        "total: 12 (formula: 12)\n"
    )


def test_represent_complete_small_needs_bound(cli):
    code, _, err = cli("represent", "complete", "2", "--enumerate")
    assert code == 2
    assert "length_bound is required for n = 2" in err

    code, out, _ = cli("represent", "complete", "2", "--enumerate",
                       "--length-bound", "4")
    assert code == 0
    assert out.splitlines() == ["12", "21", "121", "212", "1212", "2121",
                                "total: 6 (length bound 4)"]


@pytest.mark.parametrize("argv, message", [
    (["2", "--enumerate", "--length-bound", "-3"], "error: length_bound must be >= 0\n"),
    (["4", "--length-bound", "3"], "error: --length-bound needs --enumerate\n"),
    (["2", "--length-bound", "3"], "error: --length-bound needs --enumerate\n"),
], ids=["negative", "no-enumerate-k4", "no-enumerate-k2"])
def test_represent_complete_rejects_a_bound_it_cannot_use(argv, message, cli):
    # a negative bound used to print an empty family, and a bound without
    # --enumerate was ignored; both exited 0
    assert cli("represent", "complete", *argv) == (2, "", message)


@pytest.mark.parametrize("largest, argv", [
    (500_000, "path {}"), (500_001, "cycle {}"), (10, "complete {} --enumerate"),
    (1000, "complete 1 --enumerate --length-bound {}"),
    (707, "complete 2 --enumerate --length-bound {}"),
], ids=["path", "cycle", "enumerate", "bound-k1", "bound-k2"])
def test_represent_prints_at_most_a_million_letters(largest, argv, cli):
    # the largest n (or --length-bound) that the help text names is printed,
    # and the next one is refused before anything is built
    assert cli("represent", *argv.format(largest).split())[0] == 0
    code, out, err = cli("represent", *argv.format(largest + 1).split())
    assert (code, out) == (2, "")
    assert err.startswith("error: represent prints at most 10**6 letters")


def test_represent_tree(cli, tmp_path):
    path = tmp_path / "t.tree"
    path.write_text("n 3\nroot 1\n1 2\n2 3\n")
    assert cli("represent", "tree", str(path)) == (0, "32312\n", "")


def test_represent_tree_of_a_deep_path(cli, tmp_path):
    # 3,000 levels: the word is built without recursion
    path = tmp_path / "deep.tree"
    path.write_text("n 3000\nroot 1\n" + "".join(f"{k} {k + 1}\n" for k in range(1, 3000)))
    assert cli("represent", "tree", str(path)) == (
        0, f"{path_representant(3000)}\n", "")


def test_represent_tree_relabels_when_needed(cli, tmp_path):
    path = tmp_path / "crooked.tree"
    path.write_text("n 8\nroot 8\n8 7\n7 6\n7 5\n8 4\n8 2\n2 3\n2 1\n")
    code, out, _ = cli("represent", "tree", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tree is not pre-order labeled; relabeled as:"
    assert "  8 -> 1" in lines
    assert lines[-1] == "876785432341256"


def test_represent_tree_missing_file(cli, tmp_path):
    code, _, err = cli("represent", "tree", str(tmp_path / "nope.tree"))
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------------------- search


def test_search_fixed_labeling(cli, graph_file):
    code, out, _ = cli("search", graph_file(GOOD_STAR_TEXT), "--fixed")
    assert code == 0
    assert "graph: n=4 edges 1-2 1-3 1-4" in out
    assert "outcome: representable" in out
    assert "witness: 2123414" in out
    assert "stats: nodes=17 words_tested=6 labelings_tried=1" in out


def test_search_find_all(cli, graph_file):
    code, out, _ = cli("search", graph_file(GOOD_STAR_TEXT), "--fixed", "--all")
    assert code == 0
    assert "all witnesses (8):" in out
    assert "  43212341\n" in out


def test_search_all_labelings(cli, graph_file):
    code, out, _ = cli("search", graph_file(ODD_STAR_TEXT))
    assert code == 0
    assert "witness: 3432141" in out
    assert "labeling: 1 2 3 4" in out


def test_search_not_representable(cli, graph_file):
    code, out, _ = cli("search", graph_file(WHEEL5_TEXT))
    assert code == 3
    assert "outcome: not-representable\ncomplete decision: yes\n" in out
    assert "witness" not in out
    assert "labelings_tried=720" in out
    # under its own labeling only, or with one copy per letter, the same
    # verdict is bounded and exits 5
    for bounded in (["--fixed"], ["--max-copies", "1"]):
        code, out, _ = cli("search", graph_file(WHEEL5_TEXT), *bounded)
        assert code == 5
        assert "outcome: not-representable\ncomplete decision: no\n" in out


def test_search_past_order_six_is_marked_bounded(cli, graph_file, tmp_path):
    # K4 and K4 apart on 8 vertices: not representable with two copies of
    # each letter, but the copy bound is checked only through order 6
    text = "n 8\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n5 6\n5 7\n5 8\n6 7\n6 8\n7 8\n"
    report = tmp_path / "report.json"
    code, out, _ = cli("search", graph_file(text), "--json", str(report))
    assert code == 5
    assert "outcome: not-representable\ncomplete decision: no\n" in out
    assert json.loads(report.read_text())["complete_decision"] is False


def test_search_fixed_negative_is_marked_bounded(cli, graph_file, tmp_path):
    # Not representable under this labeling with at most two copies of each
    # letter, yet 45235125 represents it: the fixed verdict is bounded.
    text = "n 5\n1 2\n1 3\n1 4\n2 3\n2 5\n3 4\n"
    report = tmp_path / "report.json"
    code, out, _ = cli("search", graph_file(text), "--fixed", "--json", str(report))
    assert code == 5
    assert "outcome: not-representable\ncomplete decision: no\n" in out
    assert json.loads(report.read_text())["complete_decision"] is False
    code, out, _ = cli("search", graph_file(text), "--fixed", "--max-copies", "3")
    assert code == 0
    assert "witness: 45235125" in out


def test_search_budget_exceeded(cli, graph_file):
    code, out, _ = cli("search", graph_file(WHEEL5_TEXT),
                       "--node-budget", "500")
    assert code == 4
    assert "outcome: budget-exceeded" in out
    assert "note: node budget exhausted; results may be incomplete" in out


def test_search_json_report(cli, graph_file, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = cli("search", graph_file(GOOD_STAR_TEXT), "--fixed",
                     "--json", str(report))
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["outcome"] == "representable"
    assert obj["witness"] == "2123414"
    assert obj["labeling"] == [1, 2, 3, 4]
    assert obj["stats"] == {"nodes": 17, "words_tested": 6,
                            "labelings_tried": 1}
    assert obj["budget_exhausted"] is False


def test_search_rejects_bad_graph_file(cli, graph_file):
    code, _, err = cli("search", graph_file("n 3\n2 1\n"))
    assert code == 2
    assert "must satisfy u < v" in err


@pytest.mark.parametrize("text", ["n 16\n15 16\n", "n 20\n1 20\n"])
@pytest.mark.parametrize("fixed", [[], ["--fixed"]])
def test_search_rejects_more_letters_than_the_kernel_has(cli, graph_file, text, fixed):
    # an edge past vertex 15 used to crash packing its row (OverflowError)
    code, out, err = cli("search", graph_file(text), *fixed)
    assert (code, out, err) == (2, "", "error: n must be in 1..15\n")


# ----------------------------------------------------------- circle-witness


def test_circle_witness_found(cli, graph_file):
    code, out, _ = cli("circle-witness", graph_file(GOOD_STAR_TEXT))
    assert code == 0
    assert out == "witness: 12341432\nendpoints: 1 2 3 4 1 4 3 2\n"


def test_circle_witness_single_vertex(cli, graph_file):
    code, out, _ = cli("circle-witness", graph_file("n 1\n"))
    assert code == 0
    assert out == "witness: 11\nendpoints: 1 1\n"


def test_circle_witness_absent(cli, graph_file):
    code, out, _ = cli("circle-witness", graph_file(WHEEL5_TEXT))
    assert code == 3
    assert out == "not a circle graph (no 2-uniform representant exists)\n"


# --------------------------------------------------------------------- scan


def test_scan_order_two(cli):
    code, out, _ = cli("scan", "--order", "2")
    assert code == 0
    assert out == (
        "class 1/1: edges 1-2 -> representable (witness 12)\n"
        "summary: 1 classes, 1 representable, 0 not representable, "
        "0 budget-exceeded\n"
    )


def test_scan_order_four(cli):
    code, out, _ = cli("scan", "--order", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "class 1/7: edges 1-2 3-4 -> representable (witness 121234)"
    assert lines[-1] == ("summary: 7 classes, 7 representable, "
                         "0 not representable, 0 budget-exceeded")


def test_scan_has_no_reduce_option(cli):
    code, _, err = cli("scan", "--order", "4", "--reduce")
    assert code == 2
    assert "unrecognized arguments: --reduce" in err


def test_scan_artifacts(cli, tmp_path):
    catalog = tmp_path / "catalog.json"
    dot_dir = tmp_path / "dots"
    code, _, _ = cli("scan", "--order", "3", "--json", str(catalog),
                     "--dot-dir", str(dot_dir))
    assert code == 0

    obj = json.loads(catalog.read_text())
    assert obj["order"] == 3
    assert obj["summary"] == {"classes": 2, "representable": 2,
                              "not_representable": 0, "budget_exceeded": 0}

    names = sorted(p.name for p in dot_dir.iterdir())
    assert names == ["class-001.dot", "class-002.dot"]
    text = (dot_dir / "class-001.dot").read_text()
    assert text.startswith("graph class_1 {")
    assert "// witness: 12313" in text


def test_scan_order_six_flags_wheel(cli):
    code, out, _ = cli("scan", "--order", "6")
    assert code == 0
    lines = out.splitlines()
    assert ("summary: 122 classes, 118 representable, 4 not representable, "
            "0 budget-exceeded") in lines
    assert lines[-1] == ("wheel(5) is non-representable but not the only "
                         "such class found")


# The order-6 scan's report bytes, on the backend the child process selects:
# the sha256 of stdout without and with --json, then of the JSON file.
SCAN6_DIGESTS = LOAD_PACKAGE + """
import contextlib, hashlib, io, os, tempfile
from rep132 import cli
with tempfile.TemporaryDirectory() as tmp:
    catalog = os.path.join(tmp, "scan6.json")
    for extra in ([], ["--json", catalog]):
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = cli.main(["scan", "--order", "6", "--workers", "1", *extra])
        assert code == 0, code
        print(kernels.backend_name(), hashlib.sha256(text.getvalue().encode()).hexdigest())
    with open(catalog, "rb") as f:
        print(hashlib.sha256(f.read()).hexdigest())
"""


@pytest.mark.parametrize("backend", ["python", "c"])
def test_scan_order_six_reports_are_the_pinned_bytes(backend, request):
    # perfbench pins these digests of the serial scan; any change to the
    # search machinery must leave the reports byte-identical
    reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    pinned = json.loads(reference.read_text())["scan6"]
    done = run_child(SCAN6_DIGESTS, backend, request)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [backend, pinned["text_sha256"],
                                   backend, pinned["text_sha256"],
                                   pinned["json_sha256"]]


# The order-7 scan's report bytes on the compiled kernel, with WORKERS
# workers on two CPUs: the backend and the number of child processes
# started, then the byte count and sha256 of its text and of its JSON file.
# About 6 s on C, so it is marked slow and left out of the default run; run
# it with `pytest -m slow`.
SCAN7_DIGESTS = LOAD_PACKAGE + """
import contextlib, hashlib, io, os, tempfile
os.sched_getaffinity = lambda pid: {0, 1}
from rep132 import cli, search
started = []
start_group = search._start_group
search._start_group = lambda *args: started.append(1) or start_group(*args)
with tempfile.TemporaryDirectory() as tmp:
    catalog = os.path.join(tmp, "scan7.json")
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["scan", "--order", "7", "--json", catalog,
                         "--workers", str(WORKERS)])
    assert code == 0, code
    out = text.getvalue().encode()
    with open(catalog, "rb") as f:
        catalog = f.read()
print(kernels.backend_name(), len(started))
for data in (out, catalog):
    print(len(data), hashlib.sha256(data).hexdigest())
"""


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_order_seven_reports_are_the_pinned_bytes(workers, request):
    # 888 classes, 119 of them not representable; any change to the search
    # machinery must leave these bytes as they are. Order 7's first round
    # spans many kernel batches, so with two workers one child decides
    # every other class: the fork path end to end.
    done = run_child(f"WORKERS = {workers}\n" + SCAN7_DIGESTS, "c", request)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "c", str(workers - 1),
        "90314", "9d80a1264c4bea6804399a3bc350ec7e59fc7f53710cc588eba168f0492a4302",
        "778515", "54382b7668125ab73ddec4cd9ae6a4c2408d082ddcbb798ca4d7fcfefb455aef",
    ]


# -------------------------------------------------------------------- usage


def test_unknown_subcommand_exits_2(cli):
    code, _, err = cli("frobnicate")
    assert code == 2
    assert "invalid choice" in err


def test_no_arguments_prints_usage(cli):
    code, _, err = cli()
    assert code == 2
    assert "usage:" in err


def test_scan_workers_below_one_is_a_usage_error(cli):
    assert cli("scan", "--order", "3", "--workers", "0") == (
        2, "", "error: workers must be >= 1\n")


# Every command, in one process, with the graph file argv[1]: the exit codes
# and the last line of standard error.
EVERY_COMMAND = """
import contextlib, io, sys
from rep132 import cli
graph = sys.argv[1]
for argv in (["check-word", "12"], ["represent", "path", "3"], ["search", graph],
             ["scan", "--order", "2"], ["circle-witness", graph]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    print(code, repr(out.getvalue()), err.getvalue().strip())
"""


@pytest.mark.parametrize("backend, message", [
    ("bogus", "error: REP132_BACKEND=bogus: unknown backend 'bogus'"),
    ("c", "error: REP132_BACKEND=c: cannot load the compiled kernel rep132._kernel"),
], ids=["bogus", "c"])
def test_bad_backend_is_a_usage_error_for_every_command(backend, message, tmp_path,
                                                        graph_file):
    # a copy of the package's sources, so no built extension is on the path
    package = tmp_path / "rep132"
    package.mkdir()
    for source in Path(rep132.__file__).parent.glob("*.py"):
        shutil.copy(source, package)
    env = dict(os.environ, REP132_BACKEND=backend, PYTHONPATH=str(tmp_path))
    done = subprocess.run([sys.executable, "-m", "rep132.cli", "check-word", "12"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith(message), done.stderr
    assert "Traceback" not in done.stderr
    if backend == "c":
        assert "python setup.py build_ext --inplace" in done.stderr
    done = subprocess.run([sys.executable, "-c", EVERY_COMMAND, graph_file(GOOD_STAR_TEXT)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5
    for line in lines:
        code, out, err = line.split(" ", 2)
        assert (code, out) == ("2", "''"), line
        assert err.startswith(message), line
