"""Command-line front end: graph ingestion, orchestration, reports.

Exit codes: 0 = success (verdicts included), 2 = input error,
3 = budget exhausted / undetermined.

A command loads only the layers it calls: `--version` loads none, and
`formality` on a staircase loads `graphs`, `hessenberg`, `polynomials` and
`abfp`.  Each layer is bound here as a module object that
`importlib.util.LazyLoader` puts in `sys.modules` unloaded and that loads
on its first attribute access.  The commands look every name up on those
modules when they run, so a rebinding of a layer's function (a test's
monkeypatch, the benchmark's tracer) is seen.  Importing the layers inside
the commands would also defer them, but the benchmark's traced runner
reads every layer from `sys.modules` right after importing this module.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from itertools import islice

from . import __version__


def _lazy(name: str):
    """The package module `name`, in `sys.modules` and loaded on its first
    attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# every layer with a benchmark boundary, `linalg` included though no command
# names it
abfp, gkm, graphs, hessenberg, homology, linalg, posets = map(
    _lazy, ("abfp", "gkm", "graphs", "hessenberg", "homology", "linalg", "posets"))

BUDGET_ENV = "DIAGCLASS_MEM_BUDGET"

EXIT_INPUT = 2
EXIT_BUDGET = 3

# coefficient names on the command line -> the package's
_COEFFS = {"z": "integer", "q": "rational", "f2": "gf2"}


def _read_graph(source: str) -> tuple[graphs.Graph, str]:
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise graphs.GraphInputError(f"cannot read {source}: {exc}") from exc
    return graphs.parse_graph(text), text


def _content_hash(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _budget(mem_budget: int | None) -> int:
    """--mem-budget, else $DIAGCLASS_MEM_BUDGET, else the library default;
    a negative budget is an input error."""
    source = "--mem-budget"
    if mem_budget is None:
        raw = os.environ.get(BUDGET_ENV)
        if not raw:
            return graphs.DEFAULT_MEM_BUDGET
        source = f"${BUDGET_ENV}"
        try:
            mem_budget = int(raw)
        except ValueError:
            raise graphs.GraphInputError(
                f"{source} must be a whole number of bytes, got {raw!r}"
            ) from None
    if mem_budget < 0:
        raise graphs.GraphInputError(
            f"{source} must be a nonnegative number of bytes, got {mem_budget}")
    return mem_budget


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _config_stamp(text: str, **config) -> dict:
    return {"version": __version__, "input_sha256": _content_hash(text), **config}


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"rank bound must be nonnegative, got {value}")
    return value


# (flags, add_argument keywords) shared by several commands
_SOURCE = (("source",), {})
_FORMAT = (("--format",), dict(dest="fmt", choices=["json", "text"], default="json"))
_BUDGET = (("--mem-budget",), dict(
    type=int, help=f"Memory budget in bytes for the rank kernels (default from ${BUDGET_ENV} "
                   "or 2 GiB); over Z the Smith normal form is bounded by its size cap instead."))
_SKELETON = (("--skeleton",), dict(
    dest="skeleton_rank", metavar="R", type=_nonnegative, help="Restrict to faces of rank <= R."))

# command name -> (function, its arguments); filled by @_command
_COMMANDS: dict = {}


def _command(name: str, *arguments):
    def register(fn):
        _COMMANDS[name] = (fn, arguments)
        return fn
    return register


@_command("recognize", _SOURCE, _FORMAT)
def recognize(source: str, fmt: str) -> None:
    """Indifference-graph recognition with a certificate or witness."""
    g, text = _read_graph(source)
    result = hessenberg.recognize_indifference(g)
    report = {"config": _config_stamp(text), "n": g.n}
    if isinstance(result, hessenberg.IndifferenceCertificate):
        report.update(indifference=True, ordering=list(result.ordering), h=list(result.h.h))
    else:
        report.update(indifference=False, witness=result.describe(),
                      witness_vertices=sorted(result.vertices))
    _emit(report, fmt)


@_command("formality", _SOURCE, _BUDGET, _FORMAT)
def formality(source: str, mem_budget: int | None, fmt: str) -> int:
    """Diagonalizability / equivariant-formality verdict."""
    budget = _budget(mem_budget)
    g, text = _read_graph(source)
    verdict = abfp.formality_report(g, mem_budget=budget)
    report = verdict.to_dict()
    report["config"] = _config_stamp(text, mem_budget=budget)
    _emit(report, fmt)
    return EXIT_BUDGET if verdict.verdict == "undetermined" else 0


@_command("batch-hessenberg", (("--max-n",), dict(type=int, default=5)))
def batch_hessenberg(max_n: int) -> None:
    """CSV of (graph, h, B, A) for all connected indifference graphs.

    By Roberts' theorem these are the staircase graphs of the connected
    Hessenberg functions, two of them isomorphic exactly when their
    staircase keys agree; each class is written once, as the staircase of
    the h that is its own key.
    """
    if max_n > 9:
        raise graphs.GraphInputError("--max-n capped at 9")
    if max_n < 1:
        raise graphs.GraphInputError(f"--max-n must be at least 1, got {max_n}")
    print("n,edges,h,B,A")
    for n in range(1, max_n + 1):
        for h in hessenberg.connected_hessenberg_functions(n):
            if hessenberg.staircase_key(h) != h.h:
                continue
            g = hessenberg.hessenberg_to_graph(h)
            b = hessenberg.betti_polynomial_hessenberg(h)
            a = abfp.compute_A(g)
            edges = ";".join(f"{i}-{j}" for i, j in g.sorted_edges())
            print(f'{n},"{edges}","{h}","{b}","{a}"')


@_command(
    "clusterperm", _SOURCE,
    (("--poset",), dict(choices=["cluster", "graphic"], default="cluster")),
    _SKELETON,
    (("--coeff",), dict(choices=list(_COEFFS), default="q")),
    _BUDGET, _FORMAT,
)
def clusterperm(source: str, poset: str, skeleton_rank: int | None, coeff: str,
                mem_budget: int | None, fmt: str) -> None:
    """Cluster-permutohedron / graphicahedron homology of a skeleton."""
    budget = _budget(mem_budget)
    g, text = _read_graph(source)
    report = homology.poset_homology(g, poset, skeleton_rank, _COEFFS[coeff], budget)
    report["config"] = _config_stamp(text, coeff=coeff, mem_budget=budget)
    _emit(report, fmt)


@_command(
    "gkm", _SOURCE,
    (("--field",), dict(choices=["q", "f2"], default="f2",
                        help="Coefficient field for rank computations.")),
    _BUDGET, _FORMAT,
)
def gkm_cmd(source: str, field: str, mem_budget: int | None, fmt: str) -> int:
    """Moment-graph Betti report (equivariant dims, expansion, total)."""
    budget = _budget(mem_budget)
    g, text = _read_graph(source)
    rep = gkm.gkm_total_betti(g, field=_COEFFS[field], mem_budget=budget)
    report = rep.to_dict()
    report["config"] = _config_stamp(text, field=field, mem_budget=budget)
    _emit(report, fmt)
    return EXIT_BUDGET if rep.undetermined else 0


@_command("adi", _SOURCE, _FORMAT)
def adi_cmd(source: str, fmt: str) -> None:
    """Minimum number of edge additions to reach an indifference graph."""
    g, text = _read_graph(source)
    value, added = hessenberg.adi(g)
    report = {"config": _config_stamp(text), "adi": value,
              "added_edges": [list(e) for e in added]}
    _emit(report, fmt)


@_command(
    "export-dot", _SOURCE,
    (("--kind",), dict(choices=["cluster", "graphic", "gkm"], default="cluster")),
    _SKELETON,
)
def export_dot(source: str, kind: str, skeleton_rank: int | None) -> None:
    """Graphviz export of a Hasse diagram or the moment graph."""
    if kind == "gkm" and skeleton_rank is not None:
        raise graphs.GraphInputError("--skeleton applies to --kind cluster and graphic")
    g, _ = _read_graph(source)
    if kind == "gkm":
        lines = gkm.build_gkm_graph(g).to_dot()
    else:
        build = posets.cluster_permutohedron if kind == "cluster" else posets.graphicahedron
        lines = build(g, max_rank=skeleton_rank).to_dot()
    # written as made, 4096 lines a write: unbuffered, each write is a system call
    for chunk in iter(lambda: "".join(f"{line}\n" for line in islice(lines, 4096)), ""):
        sys.stdout.write(chunk)


def main(args: list[str] | None = None, prog_name: str = "diagclass") -> None:
    """Run one command and exit with its code; the package's errors become
    one stderr line and exit 2 (input) or 3 (budget)."""
    # the flags are spelled out in full, and help is --help alone
    plain = dict(allow_abbrev=False, add_help=False)
    parser = argparse.ArgumentParser(prog=prog_name, description=(
        "Decide whether a sparsity pattern admits a diagonalizable matrix class."), **plain)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    parser.add_argument("--help", action="help")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (fn, arguments) in _COMMANDS.items():
        doc = fn.__doc__ or ""
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc, **plain)
        sub.add_argument("--help", action="help")
        for flags, options in arguments:
            sub.add_argument(*flags, **options)
        sub.set_defaults(run=fn)
    params = vars(parser.parse_args(args))
    del params["command"]
    run = params.pop("run")
    try:
        code = run(**params)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (as `| head` does): drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    except graphs.GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        code = EXIT_INPUT
    except (graphs.ComputationBudgetError, graphs.RankCertificationError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        code = EXIT_BUDGET
    sys.exit(code or 0)


if __name__ == "__main__":
    main()
