import ast
import contextlib
import csv
import functools
import hashlib
import importlib
import inspect
import io
import json
import os
import resource
import runpy
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import diagclass
from diagclass import abfp, cli
from diagclass.cli import BUDGET_ENV, EXIT_BUDGET, EXIT_INPUT, main
from diagclass.graphs import connected_graphs_up_to_iso
from diagclass.hessenberg import (
    HessenbergFunction,
    hessenberg_to_graph,
    is_indifference,
    recognize_indifference,
    staircase_key,
)
from diagclass.linalg import RankCertificationError

CLAW = "4 3\n1 2\n1 3\n1 4\n"
PATH3 = "3 2\n1 2\n2 3\n"
K3 = "3 3\n1 2\n1 3\n2 3\n"
CYCLE4 = "4 4\n1 2\n2 3\n3 4\n1 4\n"
NET = "6 6\n1 2\n1 3\n2 3\n1 4\n2 5\n3 6\n"
CYCLE6 = "6 6\n" + "".join(f"{i} {i % 6 + 1}\n" for i in range(1, 7))
# C5 with vertex k relabelled to 1 + 2k mod 5
CYCLE5_RELABELLED = "5 5\n" + "".join(f"{1 + 2 * i % 5} {1 + 2 * (i + 1) % 5}\n" for i in range(5))
CYCLE7 = "7 7\n" + "".join(f"{i} {i % 7 + 1}\n" for i in range(1, 8))
CYCLE9 = "9 9\n" + "".join(f"{i} {i % 9 + 1}\n" for i in range(1, 10))
# C30 with vertex k relabelled to 1 + 7k mod 30 (7 is prime to 30)
CYCLE30 = "30 30\n" + "".join(f"{1 + 7 * i % 30} {1 + 7 * (i + 1) % 30}\n" for i in range(30))
CYCLE1000 = "1000 1000\n" + "".join(f"{i} {i % 1000 + 1}\n" for i in range(1, 1001))
BULL = "5 5\n1 2\n1 3\n2 3\n1 4\n2 5\n"


def complete(n: int) -> str:
    return f"{n} {n * (n - 1) // 2}\n" + "".join(
        f"{i} {j}\n" for i in range(1, n + 1) for j in range(i + 1, n + 1))


K6, K7, K8, K9, K10, K11 = map(complete, (6, 7, 8, 9, 10, 11))
# the staircase h = (3, 4, 5, 6, 6, 6) with vertex k relabelled (5, 2, 6, 1, 4, 3)[k-1]
STAIRCASE = "6 9\n2 5\n5 6\n2 6\n2 1\n6 1\n6 4\n1 4\n1 3\n4 3\n"

SUN3 = "6 9\n1 2\n1 3\n2 3\n1 4\n2 4\n2 5\n3 5\n1 6\n3 6\n"

# Runs the CLI in a fresh interpreter, then reports on the last line of
# stderr which of numpy, scipy and click it loaded, which package layers
# ran (a lazily bound module is a plain module once it has loaded; `cli`
# itself is left out) and which of dataclasses, fractions and hashlib it
# loaded.
_IMPORT_PROBE = """
import json, sys, types
from diagclass.cli import main
try:
    main(sys.argv[1:], prog_name="diagclass")
except SystemExit as exc:
    code = exc.code
loaded = {name for name, module in sys.modules.items() if type(module) is types.ModuleType}
print(json.dumps({
    "heavy": sorted({name.split(".")[0] for name in loaded} & {"numpy", "scipy", "click"}),
    "layers": sorted(name.split(".")[1] for name in loaded - {"diagclass.cli"}
                     if name.startswith("diagclass.")),
    "stdlib": sorted(loaded & {"dataclasses", "fractions", "hashlib"}),
}), file=sys.stderr)
sys.exit(code)
"""


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr, interleaved as written


class _Tee(io.StringIO):
    """A captured stream that also copies what it is given to `mixed`."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


class Runner:
    """Calls a CLI entry point in-process: `input` is its stdin, its stdout
    and stderr are captured, and its exit code is read off SystemExit."""

    def invoke(self, main, args, input: str = "") -> Result:
        mixed = io.StringIO()
        out, err = _Tee(mixed), _Tee(mixed)
        stdin, sys.stdin = sys.stdin, io.StringIO(input)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                main(args)
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        finally:
            sys.stdin = stdin
        return Result(code, out.getvalue(), err.getvalue(), mixed.getvalue())


@pytest.fixture
def runner():
    return Runner()


def _child_env():
    """The environment of a CLI child: this package, the default budget."""
    env = {**os.environ, "PYTHONPATH": str(Path(diagclass.__file__).resolve().parents[1])}
    env.pop(BUDGET_ENV, None)
    return env


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_recognize_positive(runner, tmp_path):
    res = runner.invoke(main, ["recognize", write(tmp_path, "g.txt", PATH3)])
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["indifference"] is True
    assert out["h"] == [2, 3, 3]
    assert len(out["config"]["input_sha256"]) == 16


def test_recognize_negative_stdin(runner):
    res = runner.invoke(main, ["recognize", "-"], input=CLAW)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["indifference"] is False
    assert out["witness_vertices"] == [1, 2, 3, 4]


def test_recognize_json_input(runner):
    payload = json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]})
    res = runner.invoke(main, ["recognize", "-"], input=payload)
    assert res.exit_code == 0
    assert json.loads(res.output)["indifference"] is True


def test_recognize_bad_input(runner):
    res = runner.invoke(main, ["recognize", "-"], input="garbage\n")
    assert res.exit_code == EXIT_INPUT
    res = runner.invoke(main, ["recognize", "/nonexistent/file"])
    assert res.exit_code == EXIT_INPUT


def test_non_utf8_input_file_is_input_error(runner, tmp_path):
    p = tmp_path / "g.txt"
    p.write_bytes(b"3 2\n1 2\n2 3\n\xff\n")
    res = runner.invoke(main, ["formality", str(p)])
    assert res.exit_code == EXIT_INPUT
    assert res.stdout == ""
    assert res.stderr.startswith(f"input error: cannot read {p}: ")
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("payload", [
    '{"n": 3, "edges": [[1, "a"]]}',
    '{"n": "x", "edges": []}',
    '{"n": 3, "edges": 5}',
    '{"n": 3, "edges": [[1, null]]}',
    '{"n": 3, "edges": [5]}',
    '{"n": 2, "edges": [[1, 2.5]]}',
    '{"n": true, "edges": []}',
])
def test_malformed_json_pattern_is_input_error(runner, payload):
    res = runner.invoke(main, ["recognize", "-"], input=payload)
    assert res.exit_code == EXIT_INPUT
    assert res.stdout == ""
    assert res.stderr.startswith("input error: ")
    assert res.stderr.count("\n") == 1


def test_large_edgeless_pattern_is_refused_at_once():
    # fewer than n - 1 edges: refused before anything of size n is built
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diagclass.cli", "formality", "-"],
        input="1000000 0\n", capture_output=True, text=True, env=_child_env(), timeout=20,
        preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == "input error: formality verdict requires a connected graph\n"


def test_recognize_text_format(runner):
    res = runner.invoke(main, ["recognize", "-", "--format", "text"], input=K3)
    assert res.exit_code == 0
    assert "indifference: True" in res.output


def test_formality_formal(runner):
    res = runner.invoke(main, ["formality", "-"], input=K3)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["verdict"] == "formal"
    assert out["certificate"]["h"] == [3, 3, 3]


def test_formality_nonformal(runner):
    res = runner.invoke(main, ["formality", "-"], input=CLAW)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["verdict"] == "nonformal"
    assert out["evidence"]["kind"] == "skeleton_homology"


def test_formality_undetermined_exit_code(runner):
    res = runner.invoke(main, ["formality", "-", "--mem-budget", "1000"], input=CYCLE7)
    assert res.exit_code == EXIT_BUDGET
    assert '"verdict": "undetermined"' in res.output


def test_formality_budget_env(runner, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "1000")
    res = runner.invoke(main, ["formality", "-"], input=CYCLE7)
    assert res.exit_code == EXIT_BUDGET
    out = json.loads(res.output)
    assert out["config"]["mem_budget"] == 1000


def test_formality_net_verdict_does_not_depend_on_the_budget(runner):
    # the net's evidence is a row of the table, not a computation the
    # budget could refuse
    res = runner.invoke(main, ["formality", "-", "--mem-budget", "20000000"], input=NET)
    assert res.exit_code == 0
    out = json.loads(res.stdout)
    assert out["verdict"] == "nonformal"
    assert (out["evidence"]["kind"], out["evidence"]["total"]) == ("total_betti_mismatch", 730)


def test_formality_long_cycle_is_undetermined(runner):
    # from n = 10 on, the witness's model graph is over the element cap for
    # every strategy, refused at the door before any map is priced: on C1000
    # pricing L_0 made integers too long to print.  C1000's recognition
    # takes longer than the others', so it has its own bound
    over_cap = [
        {"strategy": strategy, "refused": f"{structure} would exceed 2000000 elements"}
        for strategy, structure in (("skeleton_homology", "cluster-permutohedron"),
                                    ("total_betti_mismatch", "moment graph"),
                                    ("abfp_inconsistency", "moment graph"))
    ]
    for text, kind, seconds in ((CYCLE9, "Cycle(9)", 1.0), (CYCLE30, "Cycle(30)", 1.0),
                                (CYCLE1000, "Cycle(1000)", 5.0)):
        start = time.perf_counter()
        res = runner.invoke(main, ["formality", "-"], input=text)
        assert time.perf_counter() - start < seconds
        assert res.exit_code == EXIT_BUDGET
        out = json.loads(res.stdout)
        assert out["verdict"] == "undetermined"
        assert out["witness"]["kind"] == kind
        if kind != "Cycle(9)":
            assert out["attempts"] == over_cap


def test_formality_undetermined_says_why(runner):
    # every strategy is refused on C7's model graph, each with its map
    res = runner.invoke(main, ["formality", "-"], input=CYCLE7)
    assert res.exit_code == EXIT_BUDGET
    out = json.loads(res.stdout)
    assert out["evidence"] == {}
    moment = "L_2 needs a 370440x141120 matrix (6534561600 bytes packed), budget 2147483648"
    assert out["attempts"] == [
        {"strategy": "skeleton_homology",
         "refused": "d_2 needs a 246960x211680 matrix (6535549440 bytes packed), budget 2147483648"},
        {"strategy": "total_betti_mismatch", "refused": moment},
        {"strategy": "abfp_inconsistency", "refused": moment},
    ]
    # only an undetermined verdict says what was tried
    res = runner.invoke(main, ["formality", "-"], input=CLAW)
    assert "attempts" not in json.loads(res.stdout)


def test_invalid_budget_env_is_input_error(runner, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "2GiB")
    res = runner.invoke(main, ["formality", "-"], input=CLAW)
    assert res.exit_code == EXIT_INPUT
    assert res.stderr.startswith(f"input error: ${BUDGET_ENV}")


@pytest.mark.parametrize("args, stdin", [
    (["formality", "-"], CLAW),
    (["gkm", "-"], CLAW),
    (["clusterperm", "-", "--coeff", "z"], CLAW),
], ids=["formality", "gkm", "clusterperm"])
def test_negative_budget_is_input_error(runner, monkeypatch, args, stdin):
    res = runner.invoke(main, args + ["--mem-budget", "-5"], input=stdin)
    assert (res.exit_code, res.stdout) == (EXIT_INPUT, "")
    assert res.stderr == "input error: --mem-budget must be a nonnegative number of bytes, got -5\n"
    monkeypatch.setenv(BUDGET_ENV, "-5")
    res = runner.invoke(main, args, input=stdin)
    assert (res.exit_code, res.stdout) == (EXIT_INPUT, "")
    assert res.stderr == (
        f"input error: ${BUDGET_ENV} must be a nonnegative number of bytes, got -5\n"
    )


def test_formality_rank_certification_error_exits_budget(runner, monkeypatch):
    def disagree(g, mem_budget):
        raise RankCertificationError("modular ranks disagree: [3, 4, 4]")

    monkeypatch.setattr(abfp, "formality_report", disagree)
    res = runner.invoke(main, ["formality", "-"], input=CLAW)
    assert res.exit_code == EXIT_BUDGET
    assert res.stderr == "budget exceeded: modular ranks disagree: [3, 4, 4]\n"


def test_batch_hessenberg(runner):
    res = runner.invoke(main, ["batch-hessenberg", "--max-n", "8"])
    assert res.exit_code == 0
    rows = list(csv.reader(res.output.splitlines()))
    assert rows[0] == ["n", "edges", "h", "B", "A"]
    # connected indifference graphs up to isomorphism, one row each
    sizes = [int(row[0]) for row in rows[1:]]
    assert [sizes.count(n) for n in range(1, 9)] == [1, 1, 2, 4, 10, 26, 76, 232]
    res = runner.invoke(main, ["batch-hessenberg", "--max-n", "10"])
    assert (res.exit_code, res.stdout) == (EXIT_INPUT, "")
    assert res.stderr == "input error: --max-n capped at 9\n"


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_batch_hessenberg_refuses_max_n_below_one(runner, max_n):
    res = runner.invoke(main, ["batch-hessenberg", "--max-n", max_n])
    assert (res.exit_code, res.stdout) == (EXIT_INPUT, "")
    assert res.stderr == f"input error: --max-n must be at least 1, got {max_n}\n"


def test_batch_hessenberg_rows_are_the_indifference_classes(runner):
    res = runner.invoke(main, ["batch-hessenberg", "--max-n", "6"])
    assert res.exit_code == 0
    keys: dict[int, list] = {}
    for n, edges, h_text, _, _ in list(csv.reader(res.output.splitlines()))[1:]:
        h = HessenbergFunction(tuple(map(int, h_text.split(","))))
        g = hessenberg_to_graph(h)
        assert edges == ";".join(f"{i}-{j}" for i, j in g.sorted_edges())
        keys.setdefault(int(n), []).append(staircase_key(h))
    # the reference: every connected graph, recognised one by one
    for n in range(1, 7):
        expected = {
            staircase_key(recognize_indifference(g).h)
            for g in connected_graphs_up_to_iso(n)
            if is_indifference(g)
        }
        assert sorted(keys[n]) == sorted(expected)
    assert sum(map(len, keys.values())) == 44


def test_clusterperm_rational(runner):
    res = runner.invoke(
        main, ["clusterperm", "-", "--skeleton", "1", "--coeff", "q"], input=PATH3
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["betti"] == [0, 1]
    assert out["elements"] == 12
    assert out["config"]["mem_budget"] == 2 * 1024**3


def test_clusterperm_integral_claw(runner):
    res = runner.invoke(
        main, ["clusterperm", "-", "--skeleton", "2", "--coeff", "z"], input=CLAW
    )
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["betti"] == [0, 2, 1]
    assert out["torsion"] == [[], [], []]


def test_clusterperm_budget_exit(runner):
    res = runner.invoke(main, ["clusterperm", "-", "--mem-budget", "1000"], input=CLAW)
    assert res.exit_code == EXIT_BUDGET
    assert res.stderr.startswith("budget exceeded: ")


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))


@pytest.mark.parametrize(
    "poset, coeff, stdin, message, seconds",
    [
        ("cluster", "f2", CYCLE7,
         "d_1 needs a 65556x2400797 matrix (19673617824 bytes packed), budget 2147483648", 1.0),
        ("cluster", "z", CYCLE6,
         "d_2 needs a 127446x581040 matrix, over the Smith normal form cap 200000", 1.0),
        ("graphic", "f2", CYCLE6,
         "d_2 needs a 155544x952572 matrix (18520935168 bytes packed), budget 2147483648", 1.0),
        ("graphic", "f2", CYCLE7,
         "d_1 needs a 65563x2731848 matrix (22388977744 bytes packed), budget 2147483648", 1.0),
        ("graphic", "f2", K6,
         "d_1 needs a 121332x395561527 matrix (5999284035744 bytes packed), budget 2147483648",
         3.0),
        ("cluster", "f2", K10, "cluster-permutohedron would exceed 2000000 elements", 1.0),
        ("cluster", "f2", K11, "cluster-permutohedron would exceed 2000000 elements", 1.0),
        ("cluster", "f2", K9, "cluster-permutohedron would exceed 2000000 elements", 0.5),
        ("graphic", "f2", K8, "graphicahedron would exceed 2000000 elements", 1.0),
    ],
    ids=["f2-cycle7", "z-cycle6", "graphic-f2-cycle6", "graphic-f2-cycle7", "graphic-f2-k6",
         "f2-k10", "f2-k11", "f2-k9", "graphic-f2-k8"],
)
def test_clusterperm_refuses_from_face_counts(poset, coeff, stdin, message, seconds):
    # built, the C7 order complexes exhaust the address space and the C6
    # ones take seconds; refused from their face counts, none is built.
    # K6's 32,768 edge subsets make its deeper face counts take most of a
    # minute, and its d_1 is refused from the vertex and edge counts, so
    # no deeper count is made.  K10's discrete face alone carries 10!
    # assignments, so K10 and K11 are refused before any face is listed, and
    # so is K9, whose discrete and single-edge faces carry 9! (1 + 36/2).
    # K8's carry 8! (1 + 28/2) = 604,800, under the cap: its graphicahedron
    # is refused while its edge subsets are listed
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diagclass.cli", "clusterperm", "-", "--poset", poset,
         "--coeff", coeff],
        input=stdin, capture_output=True, text=True, env=_child_env(), timeout=20,
        preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < seconds
    assert proc.returncode == EXIT_BUDGET
    assert proc.stderr == f"budget exceeded: {message}\n"


def test_clusterperm_graphic_poset(runner):
    res = runner.invoke(main, ["clusterperm", "-", "--poset", "graphic"], input=K3)
    assert res.exit_code == 0
    assert json.loads(res.output)["elements"] == 19


def test_clusterperm_graphic_skeleton_of_many_edges(runner):
    # K7's 21 edges are no bar: its rank-0 graphicahedron is the 7! vertices
    args = ["clusterperm", "-", "--poset", "graphic", "--skeleton", "0"]
    res = runner.invoke(main, args, input=K7)
    assert res.exit_code == 0
    assert json.loads(res.output)["face_counts"] == [5040]


def test_gkm_command(runner):
    res = runner.invoke(main, ["gkm", "-"], input=K3)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["equivariant_dims"] == [1, 5, 14]
    assert out["total"] == 6


def test_gkm_budget_exit(runner):
    res = runner.invoke(main, ["gkm", "-", "--mem-budget", "1000"], input=CYCLE4)
    assert res.exit_code == EXIT_BUDGET
    assert "budget exceeded" in res.output
    # over Q the net's L_3 is refused by the rank kernel's charge, up front
    start = time.perf_counter()
    args = ["gkm", "-", "--field", "q", "--mem-budget", str(2 * 1024**3)]
    res = runner.invoke(main, args, input=NET)
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == EXIT_BUDGET
    assert res.stderr == (
        "budget exceeded: L_3 needs a 75600x40320 matrix "
        "(13019694976 bytes for its rank over Q), budget 2147483648\n"
    )
    # P1000's n! moment graph is refused at the door, before any L_i is
    # priced: pricing L_0 made integers too long to print
    path1000 = "1000 999\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 1000))
    start = time.perf_counter()
    res = runner.invoke(main, ["gkm", "-"], input=path1000)
    assert time.perf_counter() - start < 0.5
    assert (res.exit_code, res.stdout) == (EXIT_BUDGET, "")
    assert res.stderr == "budget exceeded: moment graph would exceed 2000000 elements\n"


def test_gkm_disconnected_pattern_is_input_error(runner):
    # a path on 1..11 and an isolated vertex 12: the door's first check
    # refuses it, before the over-cap 12! is met or any L_i is priced
    pattern = "12 10\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 11))
    res = runner.invoke(main, ["gkm", "-"], input=pattern)
    assert res.exit_code == EXIT_INPUT
    assert res.stdout == ""
    assert res.stderr == "input error: moment graph requires a connected pattern\n"


def test_adi_command(runner):
    res = runner.invoke(main, ["adi", "-"], input=CLAW)
    assert res.exit_code == 0
    out = json.loads(res.output)
    assert out["adi"] == 1
    assert out["added_edges"] == [[2, 3]]


def test_export_dot(runner):
    res = runner.invoke(main, ["export-dot", "-", "--kind", "gkm"], input=K3)
    assert res.exit_code == 0
    assert res.output.startswith("graph gkm")
    res = runner.invoke(main, ["export-dot", "-", "--kind", "cluster"], input=PATH3)
    assert res.exit_code == 0
    assert res.output.startswith("digraph")


def test_export_dot_moment_graph_refused_over_the_element_cap():
    # P10's moment graph has 10! = 3,628,800 vertices; listed, they would
    # take gigabytes, so the cap refuses them before any is listed
    path10 = "10 9\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 10))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diagclass.cli", "export-dot", "-", "--kind", "gkm"],
        input=path10, capture_output=True, text=True, env=_child_env(), timeout=20,
        preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ""
    assert proc.stderr == "budget exceeded: moment graph would exceed 2000000 elements\n"


@pytest.mark.parametrize("kind, name", [("cluster", "cluster-permutohedron"),
                                        ("graphic", "graphicahedron")])
def test_export_dot_poset_refused_over_the_element_cap(kind, name):
    # K11's discrete face alone carries 11! assignments: refused before any
    # face is listed, where building the poset would exhaust the address space
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diagclass.cli", "export-dot", "-", "--kind", kind],
        input=K11, capture_output=True, text=True, env=_child_env(), timeout=20,
        preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ""
    assert proc.stderr == f"budget exceeded: {name} would exceed 2000000 elements\n"


PATH7 = "7 6\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 7))
# SHA-256 of export-dot's stdout: its bytes are fixed, labels and order alike
_DOT_SHA256 = {
    "path7-cluster": (["--kind", "cluster"], PATH7,
                      "d74f8f9e7d50a000e2b5820bd4b8a4a8cd97a1501e9d705cf46f311df181b0a9"),
    "claw-graphic": (["--kind", "graphic"], CLAW,
                     "c0ced3c265c2822279e8534566e7eb80473e1096409030d224bcc10979099fd8"),
    "cycle4-cluster-skeleton1": (["--kind", "cluster", "--skeleton", "1"], CYCLE4,
                                 "27e2def24e27a2a05f005dd178a8d5001ba78f2bd70a54a6a49e481338abc3bf"),
    "k3-gkm": (["--kind", "gkm"], K3,
               "aab99d71d451ddfa2c1f1a1102668553d6fcada6621d93baeccf8e7a229e9234"),
}


@pytest.mark.parametrize("case", [c for c in _DOT_SHA256 if c != "path7-cluster"])
def test_export_dot_bytes_are_pinned(runner, case):
    args, stdin, digest = _DOT_SHA256[case]
    res = runner.invoke(main, ["export-dot", "-", *args], input=stdin)
    assert res.exit_code == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


# Runs the CLI in a grandchild, which gets this small launcher's stdin and
# stdout, and writes the grandchild's peak RSS in KiB to stderr.  A direct
# child of the test process would report at least the test process's own
# peak, which Linux carries over as the high-water mark of the exec.
_PEAK_PROBE = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "diagclass.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def test_export_dot_streams_in_little_memory():
    # P7's 47,293 elements make 9.2 MB of DOT; written as made, the CLI holds
    # neither the whole text nor a frozenset per element
    args, stdin, digest = _DOT_SHA256["path7-cluster"]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE, "export-dot", "-", *args],
        input=stdin.encode(), capture_output=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
    assert int(proc.stderr.splitlines()[-1]) < 64 * 1024


def test_export_dot_skeleton_is_refused_for_the_moment_graph(runner):
    res = runner.invoke(main, ["export-dot", "-", "--kind", "gkm", "--skeleton", "1"], input=K3)
    assert res.exit_code == EXIT_INPUT
    assert res.stdout == ""
    assert res.stderr == "input error: --skeleton applies to --kind cluster and graphic\n"


def test_version(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0


def test_closed_stdout_exits_quietly():
    # the reader is gone before the first line is written, as with `| head`
    proc = subprocess.Popen(
        [sys.executable, "-m", "diagclass.cli", "batch-hessenberg"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@functools.cache
def _probe(args: tuple, stdin: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *args],
        input=stdin, capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


# (arguments, stdin, layers the command runs, which of dataclasses,
# fractions and hashlib it loads); hashlib hashes the input, and fractions
# serves the orbit-space consistency test alone, which no witness with an
# evidence row runs
STAIRCASE_LAYERS = ["abfp", "graphs", "hessenberg", "polynomials"]
_LOADS = {
    "version": (["--version"], "", [], []),
    "formality-claw": (["formality", "-"], CLAW, STAIRCASE_LAYERS, ["hashlib"]),
    "formality-staircase": (["formality", "-"], STAIRCASE, STAIRCASE_LAYERS, ["hashlib"]),
    "gkm-f2-claw": (["gkm", "-", "--field", "f2"], CLAW,
                    ["gkm", "graphs", "linalg", "polynomials"], ["hashlib"]),
    "clusterperm-z-bull": (["clusterperm", "-", "--coeff", "z", "--skeleton", "2"], BULL,
                           ["graphs", "homology", "linalg", "posets"], ["hashlib"]),
    "gkm-q-cycle4": (["gkm", "-", "--field", "q"], CYCLE4,
                     ["gkm", "graphs", "linalg", "polynomials"], ["hashlib"]),
    "clusterperm-q-cycle4": (["clusterperm", "-", "--coeff", "q"], CYCLE4,
                             ["graphs", "homology", "linalg", "posets"], ["hashlib"]),
    "batch-hessenberg": (["batch-hessenberg", "--max-n", "4"], "", STAIRCASE_LAYERS, []),
    "formality-sun3": (["formality", "-"], SUN3, STAIRCASE_LAYERS, ["hashlib"]),
    "formality-net": (["formality", "-"], NET, STAIRCASE_LAYERS, ["hashlib"]),
    "formality-cycle5-relabelled": (["formality", "-"], CYCLE5_RELABELLED,
                                    STAIRCASE_LAYERS, ["hashlib"]),
    "export-dot-gkm-k3": (["export-dot", "-", "--kind", "gkm"], K3,
                          ["gkm", "graphs", "linalg", "polynomials"], []),
    "export-dot-cluster-path3": (["export-dot", "-", "--kind", "cluster"], PATH3,
                                 ["graphs", "posets"], []),
}


@pytest.mark.parametrize("case", list(_LOADS))
def test_cli_runs_without_numpy_or_scipy(case):
    args, stdin, _, _ = _LOADS[case]
    assert _probe(tuple(args), stdin)["heavy"] == []


@pytest.mark.parametrize("case", list(_LOADS))
def test_each_command_loads_only_what_it_runs(case):
    args, stdin, layers, stdlib = _LOADS[case]
    loads = _probe(tuple(args), stdin)
    assert (loads["layers"], loads["stdlib"]) == (layers, stdlib)


# Imports the CLI in a fresh interpreter as the benchmark's traced runner
# does, then prints the benchmark layers missing from sys.modules and the
# boundary names that do not resolve there to a function of their module.
_TRACER_PROBE = """
import inspect, json, sys
import diagclass, diagclass.cli
boundaries = json.loads(sys.argv[1])
missing = [m for m in boundaries if f"diagclass.{m}" not in sys.modules]
unresolved = [
    f"{m}.{name}" for m, names in boundaries.items() if m not in missing for name in names
    if not (inspect.isfunction(fn := getattr(sys.modules[f"diagclass.{m}"], name, None))
            and fn.__module__ == f"diagclass.{m}")
]
print(json.dumps([missing, unresolved]))
"""


def test_cli_import_places_every_benchmark_layer_in_sys_modules():
    # `perfbench/traced_cli.py` imports diagclass.cli, then wraps each
    # boundary name in the module it finds in sys.modules
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    boundaries = runpy.run_path(str(layers))["BOUNDARIES"]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_PROBE, json.dumps(boundaries)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


def test_benchmark_tracer_boundaries_resolve():
    # the benchmark's traced runner wraps each of these names in its module;
    # one that is no longer a function there breaks `perfbench/run.py --trace 1`
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    for modname, names in runpy.run_path(str(layers))["BOUNDARIES"].items():
        module = importlib.import_module(f"diagclass.{modname}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"{modname}.{name}"
            assert fn.__module__ == module.__name__, f"{modname}.{name}"


def test_only_linalg_names_the_kernels():
    # every other module eliminates a map through `linalg.eliminate`
    kernels = {"rank_gf2", "rank_mod_p", "rank_rational", "smith_normal_form"}
    package = Path(diagclass.__file__).resolve().parent
    named = set()
    for path in package.glob("*.py"):
        if path.stem == "linalg":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name's id, an Attribute's attr, an import alias's or a def's name
            for field in ("id", "attr", "name"):
                if getattr(node, field, None) in kernels:
                    named.add(f"{path.stem}.{getattr(node, field)}")
    assert named == set()


def _runs_on_import(tree):
    """The nodes of a module that run when it is imported: all but those
    inside a function."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_costly_stdlib_modules_are_imported_where_used():
    # a command that does not use dataclasses, fractions or hashlib does not
    # pay for loading them
    costly = {"dataclasses", "fractions", "hashlib"}
    package = Path(diagclass.__file__).resolve().parent
    found = []
    for path in package.glob("*.py"):
        for node in _runs_on_import(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names if name.split(".")[0] in costly]
    assert found == []


def test_package_root_holds_only_the_version():
    # every other public name is imported from its layer module
    assert diagclass.__version__
    stray = sorted(name for name, value in vars(diagclass).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert stray == []


# public names only the tests call, kept as the references they check against
_REFERENCE_ONLY = {"hessenberg.inv_h", "hessenberg.IndifferenceCertificate.validates",
                   "linalg.SparseMatrix.to_dense"}


def test_every_public_function_has_a_caller():
    """Each public module-level function and class, and each public method,
    of the package is named somewhere else in it, is a CLI command, or is a
    benchmark boundary; a method counts only as an attribute."""
    package = Path(diagclass.__file__).resolve().parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    boundaries = runpy.run_path(str(layers))["BOUNDARIES"]
    commands = {fn.__name__ for fn, _ in cli._COMMANDS.values()}
    refs = []  # (module, line, name, is an attribute)
    for modname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.alias)):
                name = node.id if isinstance(node, ast.Name) else node.name
                refs.append((modname, node.lineno, name, False))
            elif isinstance(node, ast.Attribute):
                refs.append((modname, node.lineno, node.attr, True))
    defs = []  # (module, qualified name, node, is a method)
    for modname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                defs.append((modname, node.name, node, False))
                methods = node.body if isinstance(node, ast.ClassDef) else []
                defs += [(modname, f"{node.name}.{m.name}", m, True) for m in methods
                         if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
    assert _REFERENCE_ONLY <= {f"{m}.{q}" for m, q, _, _ in defs}
    uncalled = []
    for modname, qualname, node, method in defs:
        if (f"{modname}.{qualname}" in _REFERENCE_ONLY
                or node.name in boundaries.get(modname, ())
                or (modname == "cli" and node.name in commands)):
            continue
        own = range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and (attr or not method)
                   and not (m == modname and line in own)
                   for m, line, name, attr in refs):
            uncalled.append(f"{modname}.{qualname}")
    assert uncalled == []
