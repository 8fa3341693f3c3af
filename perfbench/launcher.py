"""Traced launcher: run one `fpuniform` CLI command with spans around the
public functions of each module.

    python3 perfbench/launcher.py SPANS_FILE CMD_ID -- <cli arguments>

Each function in TRACED that exists is replaced, in every `fpuniform.*`
module namespace that bound it (and on its class for methods), by a wrapper
that records a span: name, start, end, parent span, command id and, for a few
functions, an outcome read from the return value.  Nested calls therefore
nest as spans.
Spans stay in memory and are written to SPANS_FILE as JSON when the process
ends, together with the import time of `fpuniform.cli` and the hit and miss
counts of the digit-table cache.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: "<module>.<function>" or "<module>.<Class>.<method>" under fpuniform.
TRACED = (
    "analysis.linear_form_average",
    "analysis.flagged_average",
    "analysis.boundary_function",
    "analysis.gowers_norm",
    "analysis.correlation_with_family",
    "analysis.fourier_transform",
    "linear_forms.connected_components",
    "linear_forms.are_isomorphic",
    "polynomials.Polynomial.value_table",
    "polynomials.Polynomial.from_coefficients",
    "polyrank.polynomial_rank",
    "factors.decompose",
    "factors.conditional_expectation",
    "testers.run_tester",
    "testers.uniformity_test",
    "testers.DistributionalFunction.t_star",
    "testers.interior_experiment",
    "field.random_affine_batch",
    "linalg.row_reduce",
    "tables.parse_function_table",
)

#: Values recorded from a traced function's result.
OUTCOMES = {
    "polyrank.polynomial_rank": lambda rep: int(rep.value is not None),
    "factors.decompose": lambda rep: rep.rounds,
}

_spans: list[list] = []  # [name, start, end, parent, outcome]
_stack = [-1]


def _wrap(name: str, fn):
    outcome = OUTCOMES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = [name, time.perf_counter(), None, _stack[-1], None]
        _stack.append(len(_spans))
        _spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            _stack.pop()
            rec[2] = time.perf_counter()
        if outcome is not None:
            rec[4] = outcome(result)
        return result

    return traced


def install() -> None:
    modules = {
        name: importlib.import_module(f"fpuniform.{name}")
        for name in {t.split(".")[0] for t in TRACED}
    }
    loaded = [m for n, m in sys.modules.items() if n.startswith("fpuniform.") and m]
    for target in TRACED:
        parts = target.split(".")
        owner = modules[parts[0]]
        if len(parts) == 3:
            cls = getattr(owner, parts[1], None)
            raw = vars(cls).get(parts[2]) if cls is not None else None
            if isinstance(raw, classmethod):
                setattr(cls, parts[2], classmethod(_wrap(target, raw.__func__)))
            elif raw is not None:
                setattr(cls, parts[2], _wrap(target, raw))
            continue
        original = getattr(owner, parts[1], None)
        if original is None:
            continue  # a function that no longer exists records no spans
        wrapped = _wrap(target, original)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_file, cmd_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE CMD_ID -- <cli arguments>")
    t0 = time.perf_counter()
    import fpuniform.cli as cli

    import_s = time.perf_counter() - t0
    install()
    from fpuniform import field

    cache = getattr(field, "_digit_table", field.digit_table)
    code = 1
    try:
        code = _wrap("cli.main", cli.main)(cli_argv)
    finally:
        sys.stdout.flush()
        info = cache.cache_info() if hasattr(cache, "cache_info") else None
        record = {
            "cmd": cmd_id,
            "import_s": import_s,
            "digit_table": {
                "hits": info.hits if info else 0,
                "misses": info.misses if info else 0,
            },
            "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "cmd": cmd_id, "outcome": s[4]}
                for s in _spans
            ],
        }
        with open(spans_file, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
