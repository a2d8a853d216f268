"""Run one `diagclass` CLI call with its layer boundaries timed.

    PERFBENCH_SPANS=spans.json python3 perfbench/traced_cli.py formality pattern.txt

The runner imports the package, rebinds every name that refers to a
function listed in layers.BOUNDARIES (in every package module, so that
`gkm.rank_gf2`, `homology.rank_gf2` and `linalg.rank_gf2` all go through
the same wrapper), then calls `diagclass.cli.main` with the arguments.
Spans are kept in memory and written as one JSON list when the call ends,
whether it exits, fails or raises.  The package itself is not changed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

from layers import BOUNDARIES, POST_COUNTS, PRE_COUNTS, ROOT


class Recorder:
    """Spans as [name, parent index, start, end, counts, exception]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._last_exc: BaseException | None = None

    def wrap(self, name: str, fn):
        pre, post = PRE_COUNTS.get(name), POST_COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   pre(args, kwargs) if pre else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[3] = clock()
                # an exception passing through nested spans counts once, at
                # the innermost one
                rec[5] = [type(exc).__name__, exc is not self._last_exc]
                self._last_exc = exc
                raise
            finally:
                stack.pop()
            rec[3] = clock()
            if post:
                rec[4] = {**(rec[4] or {}), **post(result)}
            return result

        return timed


def install(rec: Recorder) -> None:
    import diagclass  # noqa: F401  (imports every layer module)
    import diagclass.cli  # noqa: F401

    modules = [m for n, m in list(sys.modules.items())
               if n == "diagclass" or n.startswith("diagclass.")]
    for modname, funcs in BOUNDARIES.items():
        mod = sys.modules[f"diagclass.{modname}"]
        for fname in funcs:
            orig = getattr(mod, fname)
            timed = rec.wrap(f"{modname}.{fname}", orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, timed)


def main(argv: list[str]) -> None:
    rec = Recorder()
    install(rec)
    from diagclass import cli

    try:
        rec.wrap(ROOT, cli.main)(args=argv, prog_name="diagclass")
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
