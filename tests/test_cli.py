import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import diagclass
from diagclass import cli
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
CYCLE7 = "7 7\n" + "".join(f"{i} {i % 7 + 1}\n" for i in range(1, 8))
CYCLE9 = "9 9\n" + "".join(f"{i} {i % 9 + 1}\n" for i in range(1, 10))
# C30 with vertex k relabelled to 1 + 7k mod 30 (7 is prime to 30)
CYCLE30 = "30 30\n" + "".join(f"{1 + 7 * i % 30} {1 + 7 * (i + 1) % 30}\n" for i in range(30))
BULL = "5 5\n1 2\n1 3\n2 3\n1 4\n2 5\n"
# the staircase h = (3, 4, 5, 6, 6, 6) with vertex k relabelled (5, 2, 6, 1, 4, 3)[k-1]
STAIRCASE = "6 9\n2 5\n5 6\n2 6\n2 1\n6 1\n6 4\n1 4\n1 3\n4 3\n"

# Runs the CLI in a fresh interpreter, then reports which of numpy, scipy
# and click it loaded on the last line of stderr.
_IMPORT_PROBE = """
import json, sys
from diagclass.cli import main
try:
    main(sys.argv[1:], prog_name="diagclass")
except SystemExit as exc:
    code = exc.code
heavy = sorted({name.split(".")[0] for name in sys.modules} & {"numpy", "scipy", "click"})
print(json.dumps(heavy), file=sys.stderr)
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
    res = runner.invoke(main, ["formality", "-", "--mem-budget", "1000"], input=NET)
    assert res.exit_code == EXIT_BUDGET
    assert '"verdict": "undetermined"' in res.output


def test_formality_budget_env(runner, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "1000")
    res = runner.invoke(main, ["formality", "-"], input=NET)
    assert res.exit_code == EXIT_BUDGET
    out = json.loads(res.output)
    assert out["config"]["mem_budget"] == 1000


def test_formality_long_cycle_is_undetermined(runner):
    for text, kind in ((CYCLE9, "Cycle(9)"), (CYCLE30, "Cycle(30)")):
        start = time.perf_counter()
        res = runner.invoke(main, ["formality", "-"], input=text)
        assert time.perf_counter() - start < 1.0
        assert res.exit_code == EXIT_BUDGET
        out = json.loads(res.stdout)
        assert out["verdict"] == "undetermined"
        assert out["witness"]["kind"] == kind


def test_invalid_budget_env_is_input_error(runner, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "2GiB")
    res = runner.invoke(main, ["formality", "-"], input=CLAW)
    assert res.exit_code == EXIT_INPUT
    assert res.stderr.startswith(f"input error: ${BUDGET_ENV}")


def test_formality_rank_certification_error_exits_budget(runner, monkeypatch):
    def disagree(g, mem_budget):
        raise RankCertificationError("modular ranks disagree: [3, 4, 4]")

    monkeypatch.setattr(cli, "formality_report", disagree)
    res = runner.invoke(main, ["formality", "-"], input=CLAW)
    assert res.exit_code == EXIT_BUDGET
    assert res.stderr == "budget exceeded: modular ranks disagree: [3, 4, 4]\n"


def test_batch_hessenberg(runner):
    res = runner.invoke(main, ["batch-hessenberg", "--max-n", "4"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "n,edges,h,B,A"
    # connected indifference graphs: 1 + 1 + 2 + 4 rows
    assert len(lines) - 1 == 8
    res = runner.invoke(main, ["batch-hessenberg", "--max-n", "9"])
    assert res.exit_code == EXIT_INPUT


def test_batch_hessenberg_rows_are_the_indifference_classes(runner):
    res = runner.invoke(main, ["batch-hessenberg", "--max-n", "6"])
    assert res.exit_code == 0
    keys: dict[int, list] = {}
    for n, edges, h_text, _, _ in list(csv.reader(res.output.splitlines()))[1:]:
        h = HessenbergFunction.parse(h_text)
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
    "poset, coeff, stdin, message",
    [
        ("cluster", "f2", CYCLE7, "packed GF(2) matrix needs 19673617824 bytes, budget 2147483648"),
        ("cluster", "z", CYCLE6, "matrix 127446x581040 exceeds Smith normal form cap 200000"),
        ("graphic", "f2", CYCLE6, "packed GF(2) matrix needs 18520935168 bytes, budget 2147483648"),
        ("graphic", "f2", CYCLE7, "packed GF(2) matrix needs 22388977744 bytes, budget 2147483648"),
    ],
    ids=["f2-cycle7", "z-cycle6", "graphic-f2-cycle6", "graphic-f2-cycle7"],
)
def test_clusterperm_refuses_from_face_counts(poset, coeff, stdin, message):
    # built, the C7 order complexes exhaust the address space and the C6
    # ones take seconds; refused from their face counts, none is built
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "diagclass.cli", "clusterperm", "-", "--poset", poset,
         "--coeff", coeff],
        input=stdin, capture_output=True, text=True, env=_child_env(), timeout=20,
        preexec_fn=_limit_address_space,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == EXIT_BUDGET
    assert proc.stderr == f"budget exceeded: {message}\n"


def test_clusterperm_graphic_poset(runner):
    res = runner.invoke(main, ["clusterperm", "-", "--poset", "graphic"], input=K3)
    assert res.exit_code == 0
    assert json.loads(res.output)["elements"] == 19


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
        "(13017759616 bytes for its rank over Q), budget 2147483648\n"
    )


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
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def _heavy_modules_loaded(args, stdin):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *args],
        input=stdin, capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "args, stdin",
    [
        (["--version"], ""),
        (["formality", "-"], CLAW),
        (["formality", "-"], STAIRCASE),
        (["gkm", "-", "--field", "f2"], CLAW),
        (["clusterperm", "-", "--coeff", "z", "--skeleton", "2"], BULL),
        (["gkm", "-", "--field", "q"], CYCLE4),
        (["clusterperm", "-", "--coeff", "q"], CYCLE4),
        (["batch-hessenberg", "--max-n", "4"], ""),
    ],
    ids=["version", "formality-claw", "formality-staircase", "gkm-f2-claw",
         "clusterperm-z-bull", "gkm-q-cycle4", "clusterperm-q-cycle4",
         "batch-hessenberg"],
)
def test_cli_runs_without_numpy_or_scipy(args, stdin):
    assert _heavy_modules_loaded(args, stdin) == []
