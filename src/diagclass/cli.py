"""Command-line front end: graph ingestion, orchestration, reports.

Exit codes: 0 = success (verdicts included), 2 = input error,
3 = budget exhausted / undetermined.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import click

from . import __version__
from .abfp import compute_A, formality_report
from .gkm import build_gkm_graph, gkm_total_betti
from .graphs import Graph, GraphInputError, parse_graph
from .hessenberg import (
    IndifferenceCertificate,
    adi,
    betti_polynomial_hessenberg,
    connected_hessenberg_functions,
    hessenberg_to_graph,
    recognize_indifference,
    staircase_key,
)
from .homology import homology_report
from .linalg import DEFAULT_MEM_BUDGET, ComputationBudgetError, RankCertificationError
from .posets import cluster_permutohedron, graphicahedron, order_complex, skeleton

BUDGET_ENV = "DIAGCLASS_MEM_BUDGET"

EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_graph(source: str) -> tuple[Graph, str]:
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read {source}: {exc}") from exc
    return parse_graph(text), text


def _content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _budget(mem_budget: int | None) -> int:
    """--mem-budget, else $DIAGCLASS_MEM_BUDGET, else the library default."""
    if mem_budget is not None:
        return mem_budget
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_MEM_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise GraphInputError(
            f"${BUDGET_ENV} must be a whole number of bytes, got {raw!r}"
        ) from None


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            click.echo(f"{key}: {value}")


def _config_stamp(text: str, **config) -> dict:
    return {"version": __version__, "input_sha256": _content_hash(text), **config}


_field_option = click.option(
    "--field",
    type=click.Choice(["q", "f2"]),
    default="f2",
    show_default=True,
    help="Coefficient field for rank computations.",
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
)
_budget_option = click.option(
    "--mem-budget",
    type=int,
    default=None,
    help=f"Memory budget in bytes (default from ${BUDGET_ENV} or 2 GiB).",
)

_FIELD_NAMES = {"q": "rational", "f2": "gf2"}


class _Main(click.Group):
    """Maps the package's errors to exit codes, for every command."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except GraphInputError as exc:
            click.echo(f"input error: {exc}", err=True)
            sys.exit(EXIT_INPUT)
        except (ComputationBudgetError, RankCertificationError) as exc:
            click.echo(f"budget exceeded: {exc}", err=True)
            sys.exit(EXIT_BUDGET)


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Decide whether a sparsity pattern admits a diagonalizable matrix class."""


@main.command()
@click.argument("source")
@_format_option
def recognize(source: str, fmt: str) -> None:
    """Indifference-graph recognition with a certificate or witness."""
    g, text = _read_graph(source)
    result = recognize_indifference(g)
    report = {"config": _config_stamp(text), "n": g.n}
    if isinstance(result, IndifferenceCertificate):
        report.update(
            indifference=True,
            ordering=list(result.ordering),
            h=list(result.h.h),
        )
    else:
        report.update(
            indifference=False,
            witness=result.describe(),
            witness_vertices=sorted(result.vertices),
        )
    _emit(report, fmt)


@main.command()
@click.argument("source")
@_budget_option
@_format_option
def formality(source: str, mem_budget: int | None, fmt: str) -> None:
    """Diagonalizability / equivariant-formality verdict."""
    budget = _budget(mem_budget)
    g, text = _read_graph(source)
    verdict = formality_report(g, mem_budget=budget)
    report = json.loads(verdict.to_json())
    report["config"] = _config_stamp(text, mem_budget=budget)
    _emit(report, fmt)
    if verdict.verdict == "undetermined":
        sys.exit(EXIT_BUDGET)


@main.command("batch-hessenberg")
@click.option("--max-n", type=int, default=5, show_default=True)
def batch_hessenberg(max_n: int) -> None:
    """CSV of (graph, h, B, A) for all connected indifference graphs.

    By Roberts' theorem these are the staircase graphs of the connected
    Hessenberg functions, two of them isomorphic exactly when their
    staircase keys agree; each class is written once, as the staircase of
    the h that is its own key.
    """
    if max_n > 7:
        raise GraphInputError("--max-n capped at 7")
    click.echo("n,edges,h,B,A")
    for n in range(1, max_n + 1):
        for h in connected_hessenberg_functions(n):
            if staircase_key(h) != h.h:
                continue
            g = hessenberg_to_graph(h)
            b = betti_polynomial_hessenberg(h)
            a = compute_A(g)
            edges = ";".join(f"{i}-{j}" for i, j in g.sorted_edges())
            click.echo(f'{n},"{edges}","{h}","{b}","{a}"')


@main.command()
@click.argument("source")
@click.option("--poset", type=click.Choice(["cluster", "graphic"]), default="cluster",
              show_default=True)
@click.option("--skeleton", "skeleton_rank", type=int, default=None,
              help="Restrict to faces of rank <= R before taking homology.")
@click.option("--coeff", type=click.Choice(["z", "q", "f2"]), default="q",
              show_default=True)
@_budget_option
@_format_option
def clusterperm(
    source: str,
    poset: str,
    skeleton_rank: int | None,
    coeff: str,
    mem_budget: int | None,
    fmt: str,
) -> None:
    """Cluster-permutohedron / graphicahedron homology of a skeleton."""
    budget = _budget(mem_budget)
    g, text = _read_graph(source)
    build = cluster_permutohedron if poset == "cluster" else graphicahedron
    p = build(g, max_rank=skeleton_rank)
    if skeleton_rank is not None:
        p = skeleton(p, skeleton_rank)
    sc = order_complex(p)
    if coeff == "z":
        report = homology_report(sc, integral=True)
    else:
        report = homology_report(sc, coeff=_FIELD_NAMES[coeff], mem_budget=budget)
    report["poset"] = poset
    report["elements"] = len(p)
    report["skeleton"] = skeleton_rank
    report["config"] = _config_stamp(text, coeff=coeff)
    _emit(report, fmt)


@main.command()
@click.argument("source")
@_field_option
@_budget_option
@_format_option
def gkm(source: str, field: str, mem_budget: int | None, fmt: str) -> None:
    """Moment-graph Betti report (equivariant dims, expansion, total)."""
    budget = _budget(mem_budget)
    g, text = _read_graph(source)
    rep = gkm_total_betti(g, field=_FIELD_NAMES[field], mem_budget=budget)
    report = json.loads(rep.to_json())
    report["config"] = _config_stamp(text, field=field, mem_budget=budget)
    _emit(report, fmt)
    if rep.undetermined:
        sys.exit(EXIT_BUDGET)


@main.command("adi")
@click.argument("source")
@_format_option
def adi_cmd(source: str, fmt: str) -> None:
    """Minimum number of edge additions to reach an indifference graph."""
    g, text = _read_graph(source)
    value, added = adi(g)
    _emit(
        {
            "config": _config_stamp(text),
            "adi": value,
            "added_edges": [list(e) for e in added],
        },
        fmt,
    )


@main.command("export-dot")
@click.argument("source")
@click.option("--kind", type=click.Choice(["cluster", "graphic", "gkm"]),
              default="cluster", show_default=True)
@click.option("--skeleton", "skeleton_rank", type=int, default=None)
def export_dot(source: str, kind: str, skeleton_rank: int | None) -> None:
    """Graphviz export of a Hasse diagram or the moment graph."""
    g, _ = _read_graph(source)
    if kind == "gkm":
        click.echo(build_gkm_graph(g).to_dot())
        return
    build = cluster_permutohedron if kind == "cluster" else graphicahedron
    p = build(g, max_rank=skeleton_rank)
    if skeleton_rank is not None:
        p = skeleton(p, skeleton_rank)
    click.echo(p.to_dot())


if __name__ == "__main__":
    main()
