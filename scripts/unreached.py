#!/usr/bin/env python3
"""Print every function in ``src/evcoop`` that no ``evcoop`` command enters.

Runs each command on tiny configs under ``sys.setprofile``: ``train``
with every algorithm in ``evcoop.marl.ALGORITHMS`` on the bundled sample
scenario, on a 3-station synthetic one and under ``mixer_grad``; then ``evaluate``,
``oracle`` at full lookahead and at ``--lookahead 1`` with ``--seed``,
``fuzz --seed``, ``compare`` and one bad argument.  The profiler starts
before ``evcoop`` is imported, so a function called at import counts as
entered.  Every ``def`` in the package, nested ones included, is keyed by
its file and first line, as its code object is; each one no call entered
is printed as ``<module>.<qualname>``, in file and line order.  Nothing is
printed when every function ran.

    python3 scripts/unreached.py

The package is imported from the ``src`` next to this script, not from the
environment.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TINY_TRAIN = {"episodes": 2, "batch_episodes": 1, "capacity": 1, "target_period": 1,
              "hidden_dim": 2, "embed_dim": 2, "hyper_hidden": 2}
# (name, config) of each training run; each trains every algorithm
TRAIN_CONFIGS = (
    ("sample", {"train": TINY_TRAIN}),
    ("synthetic", {"train": TINY_TRAIN,
                   "scenario": {"mode": "synthetic", "station_count": 3, "horizon": 6}}),
    ("mixer_grad", {"train": {**TINY_TRAIN, "agent_loss_mode": "mixer_grad"}}),
)


def defined_functions(root: Path) -> dict[tuple[str, int], str]:
    """``(file, first line)`` of every def under ``root``, to its ``<module>.<qualname>``.

    A decorated def's code object starts at its first decorator.
    """
    found = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), line)] = f"{module}.{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def run_commands(work: Path) -> None:
    """Every command once, on tiny inputs under ``work``; their output is discarded."""
    from evcoop.cli import main
    from evcoop.marl import ALGORITHMS

    def run(*argv: str, expect: int = 0) -> None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        if code != expect:
            raise SystemExit(f"evcoop {' '.join(argv)} exited {code}, expected {expect}")

    algorithms = [arg for name in ALGORITHMS for arg in ("--algorithm", name)]
    for name, config in TRAIN_CONFIGS:
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        run("train", "--config", str(path), "--seed", "0", *algorithms, "--out", str(work / name))
    run("evaluate", "--config", str(work / "sample.json"), "--checkpoint",
        str(work / "sample" / "double_qmix_seed0" / "checkpoint.npz"), "--seed", "1",
        "--out", str(work / "evaluate"))
    run("oracle", "--instances", "1", "--out", str(work / "oracle"))
    run("oracle", "--instances", "1", "--seed", "1", "--lookahead", "1")
    run("fuzz", "--clearing", "20", "--battery", "20", "--profit", "5", "--seed", "0")
    run("compare", "--runs", str(work / "sample"), "--out", str(work / "compare"))
    run("train", "--episodes", "1", expect=1)


def main() -> int:
    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)
    try:
        import evcoop
        if Path(evcoop.__file__).resolve().parent != SRC / "evcoop":
            raise SystemExit(f"imported evcoop from {evcoop.__file__}, not from {SRC}")
        with tempfile.TemporaryDirectory() as work:
            run_commands(Path(work))
    finally:
        sys.setprofile(None)
    for key, name in defined_functions(SRC / "evcoop").items():
        if key not in entered:
            print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
