"""Seeded inputs for the pipeline benchmark.

Every workload is a list of items.  An item is one `diagclass` CLI call on
one generated pattern file (or none, for `batch-hessenberg`), with the exit
code it must end with and the oracle that checks its output.  The same
workload name and seed always give the same items and the same files.

The patterns are defined here, not imported from the package, so the
benchmark's inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Optional

# Explicit budget on the items whose path depends on it, so a change of the
# package default does not silently change what they compute.
BUDGET_2GIB = str(2 * 1024**3)


@dataclass(frozen=True)
class Pattern:
    """Connected simple graph on vertices 1..n; edges are sorted pairs."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def relabelled(self, rng: random.Random) -> "Pattern":
        perm = list(range(1, self.n + 1))
        rng.shuffle(perm)
        edges = sorted(
            tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in self.edges
        )
        return Pattern(self.name, self.n, tuple(edges))

    def file_text(self, rng: random.Random) -> str:
        """Text or JSON input format, edges in random order and orientation."""
        edges = [list(e) if rng.random() < 0.5 else [e[1], e[0]] for e in self.edges]
        rng.shuffle(edges)
        if rng.random() < 0.5:
            return json.dumps({"n": self.n, "edges": edges}) + "\n"
        lines = [f"{self.n} {len(edges)}"] + [f"{i} {j}" for i, j in edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Item:
    name: str
    command: str
    pattern: Optional[Pattern]
    options: tuple[str, ...] = ()
    oracle: str = ""  # key into oracles.CHECKS
    expect: dict = field(default_factory=dict)
    exit_code: int = 0
    relabel: bool = True  # False: keep the model's labels on every seed

    def argv(self, input_path: Optional[str]) -> list[str]:
        args = [self.command]
        if input_path is not None:
            args.append(input_path)
        return args + list(self.options)


@dataclass(frozen=True)
class Workload:
    name: str
    items: tuple[Item, ...]
    time_limit_s: float  # per item


def _pattern(name: str, n: int, edges) -> Pattern:
    return Pattern(name, n, tuple(sorted(tuple(sorted(e)) for e in edges)))


def cycle(k: int) -> Pattern:
    return _pattern(f"C{k}", k, [(i, i + 1) for i in range(1, k)] + [(1, k)])


def star(k: int) -> Pattern:
    return _pattern(f"star{k}", k + 1, [(1, i) for i in range(2, k + 2)])


CLAW = _pattern("claw", 4, [(1, 2), (1, 3), (1, 4)])
NET = _pattern("net", 6, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])
SUN3 = _pattern(
    "sun3", 6,
    [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (1, 6)],
)
FORK = _pattern("fork", 5, [(1, 2), (2, 3), (3, 4), (3, 5)])
BULL = _pattern("bull", 5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)])


def staircase(h: list[int]) -> list[tuple[int, int]]:
    """Edges {i, j} with i < j <= h(i)."""
    return [(i, j) for i in range(1, len(h) + 1) for j in range(i + 1, h[i - 1] + 1)]


def random_staircase(rng: random.Random, n: int) -> Pattern:
    """Connected staircase pattern: h weakly increasing, i < h(i) for i < n."""
    width = rng.randint(1, 4)
    h: list[int] = []
    for i in range(1, n + 1):
        lo = max(h[-1] if h else 1, min(i + 1, n))
        h.append(max(lo, min(n, i + rng.randint(1, width))))
    return _pattern(f"staircase{n}", n, staircase(h))


def _connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def _has_induced_claw_or_c4(n: int, edges) -> bool:
    """Some 4 vertices induce a claw or a 4-cycle."""
    es = set(edges)
    for vs in combinations(range(1, n + 1), 4):
        sub = [e for e in combinations(vs, 2) if e in es]
        deg = sorted(sum(v in e for e in sub) for v in vs)
        if deg == [1, 1, 1, 3] or deg == [2, 2, 2, 2]:
            return True
    return False


def random_connected(rng: random.Random, n: int, p: float) -> Pattern:
    """Connected G(n, p) pattern with an induced claw or 4-cycle.

    The second condition keeps the witness search short: the scan by
    subset size stops at size 4, and the evidence is computed on a 4-vertex
    graph.  Patterns whose smallest witness is a long cycle are the
    known-defects workload's subject, not this one's.
    """
    pairs = list(combinations(range(1, n + 1), 2))
    while True:
        edges = [e for e in pairs if rng.random() < p]
        if _connected(n, edges) and _has_induced_claw_or_c4(n, edges):
            return _pattern(f"gnp{n}", n, edges)


def _formality(p: Pattern, **expect) -> Item:
    return Item(f"formality:{p.name}", "formality", p, oracle="formality", expect=expect)


def verdict_batch(rng: random.Random) -> list[Item]:
    items = [_formality(p) for p in (CLAW, cycle(4), cycle(5))]
    # Relabelled staircases take the recognition search exponential time
    # in n: about 0.01 s at n = 9, 0.1-0.5 s at n = 11, 0.2-1.9 s at
    # n = 12 (known_defects has one at n = 20).  Two of each n keep the
    # workload's cost steady from seed to seed.
    for k in range(8):
        items.append(_formality(random_staircase(rng, 8 + k % 4), verdict="formal"))
    # Negative recognition is exponential too: at n = 12 the cost of one
    # pattern spans 0.2-3.4 s from seed to seed, so n = 12 is in `heavy`.
    for k in range(8):
        n = (10, 11)[k % 2]
        p = (0.2, 0.35)[(k // 2) % 2]
        items.append(_formality(random_connected(rng, n, p), verdict="nonformal"))
    items.append(Item("batch-hessenberg:6", "batch-hessenberg", None,
                      ("--max-n", "6"), oracle="batch_hessenberg", expect={"max_n": 6}))
    return items


def moment_graph(rng: random.Random) -> list[Item]:
    budget = ("--mem-budget", BUDGET_2GIB)
    return [
        # The orbit-space strategy spends almost all its time in three
        # GF(2) ranks whose cost depends on the labels of sun3 (8.4-11.7 s
        # over relabellings).  A 10 s item cannot be repeated enough to
        # average that out, so its labels stay fixed here; `heavy` runs a
        # relabelled copy.
        Item("formality:sun3", "formality", SUN3, budget, oracle="formality",
             expect={"verdict": "nonformal"}, relabel=False),
        Item("gkm-q:C4", "gkm", cycle(4), ("--field", "q"), oracle="gkm"),
        Item("gkm-f2:star4", "gkm", star(4), ("--field", "f2"), oracle="gkm"),
        Item("gkm-f2:claw", "gkm", CLAW, ("--field", "f2"), oracle="gkm"),
        Item("gkm-f2:sun3", "gkm", SUN3, ("--field", "f2", *budget),
             oracle="gkm_refused", expect={"budget": int(BUDGET_2GIB)}, exit_code=3),
    ]


def _clusterperm(p: Pattern, coeff: str, poset: str = "cluster",
                 skel: Optional[int] = None) -> Item:
    opts = ["--coeff", coeff, "--poset", poset]
    if skel is not None:
        opts += ["--skeleton", str(skel)]
    tag = f"{poset}{'' if skel is None else f'-sk{skel}'}-{coeff}"
    return Item(f"clusterperm:{p.name}:{tag}", "clusterperm", p, tuple(opts),
                oracle="homology", expect={"poset": poset, "skeleton": skel})


def cell_complex(rng: random.Random) -> list[Item]:
    return [
        _clusterperm(cycle(5), "f2", skel=3),
        _clusterperm(FORK, "z", skel=3),
        _clusterperm(cycle(4), "q"),
        _clusterperm(BULL, "z", skel=2),
        _clusterperm(CLAW, "q", poset="graphic"),
    ]


def heavy(rng: random.Random) -> list[Item]:
    """Items of 3-60 s each: too long to repeat within a timed run."""
    items = [
        Item("gkm-f2:net", "gkm", NET, ("--field", "f2"), oracle="gkm"),
        Item("gkm-q:star4", "gkm", star(4), ("--field", "q"), oracle="gkm"),
        Item("formality:sun3", "formality", SUN3, ("--mem-budget", BUDGET_2GIB),
             oracle="formality", expect={"verdict": "nonformal"}),
        _formality(cycle(6)),
        _clusterperm(cycle(5), "f2"),
        _clusterperm(FORK, "z"),
        _clusterperm(cycle(4), "q", poset="graphic"),
    ]
    for p in (0.2, 0.35, 0.2, 0.35):
        items.append(_formality(random_connected(rng, 12, p), verdict="nonformal"))
    return items


def known_defects(rng: random.Random) -> list[Item]:
    """Valid patterns the program does not answer today (see README)."""
    items = [_formality(cycle(k), verdict="nonformal") for k in (7, 9, 10)]
    items.append(_formality(random_staircase(rng, 20), verdict="formal"))
    return items


# Address-space cap of every CLI child: the largest item (the net's L_3)
# peaks at about 420 MB, and the cap keeps a runaway item off the rest of
# a 7 GB machine.
MEM_CAP_BYTES = 3 * 1024**3

# name -> (items, per-item time limit in seconds)
BUILDERS = {
    "verdict-batch": (verdict_batch, 60.0),
    "moment-graph": (moment_graph, 120.0),
    "cell-complex": (cell_complex, 60.0),
    "heavy": (heavy, 150.0),
    "known-defects": (known_defects, 40.0),
}


def build(name: str, seed: int) -> Workload:
    """Items of a workload; fixed patterns are relabelled by the seed too,
    unless the item says otherwise."""
    fn, limit = BUILDERS[name]
    rng = random.Random(f"{name}/{seed}")
    items = []
    for it in fn(rng):
        if it.pattern is not None and it.relabel:
            it = replace(it, pattern=it.pattern.relabelled(rng))
        items.append(it)
    return Workload(name, tuple(items), limit)


def write_inputs(w: Workload, seed: int, directory: Path) -> list[Optional[str]]:
    """Write each item's pattern file; returns the paths (None: no input)."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{w.name}/{seed}/files")
    paths: list[Optional[str]] = []
    for k, it in enumerate(w.items):
        if it.pattern is None:
            paths.append(None)
            continue
        path = directory / f"{k:02d}-{it.pattern.name}.txt"
        path.write_text(it.pattern.file_text(rng), encoding="utf-8")
        paths.append(str(path))
    return paths
