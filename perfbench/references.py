"""Reference outputs the benchmark checks every op against.

A reference is what the scalar interpreter (``kernel=False``) produces
for the same inputs: the digest of ``SimResult.to_dict()`` for each
simulation op, the rendered text for each figure.  References for the
default seed are committed in ``references.json``; for any other seed
they are computed before the timed region, in child interpreters,
and kept under the benchmark's work directory keyed by seed and by a
digest of the program's and the benchmark's sources.

Rewrite the committed file after an intended change of the simulator's
results with::

    python3 perfbench/references.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMITTED = HERE / "references.json"
DEFAULT_SEED = 1


def source_digest() -> str:
    """Digest of the program's and the benchmark's sources, so cached
    references follow both the simulator and the inputs made from a seed."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _interpreter_digests(recipe: Any, labels: list[str], names: list[str]) -> dict[str, str]:
    """Build one trace and simulate it on the interpreter once per UCP config."""
    from workloads import UCP_CONFIGS, digest

    from repro.core.pipeline import simulate
    from repro.experiments.common import ucp_config

    trace = recipe.build()
    out = {}
    for label, name in zip(labels, names):
        config = ucp_config(**UCP_CONFIGS[label])
        out[name] = digest(simulate(trace, config, name=name, kernel=False))
    return out


def _interpreter_figures(
    workloads: tuple[str, ...], n_instructions: int, figures: tuple[str, ...]
) -> dict[str, str]:
    """Render ``figures`` serially on the interpreter, uncached."""
    os.environ.update(REPRO_SIM_JOBS="1", REPRO_SIM_CACHE="0")
    from repro.experiments.common import Scale
    from repro.experiments.registry import run_experiment

    scale = Scale("bench", workloads, n_instructions)
    return {figure: run_experiment(figure, scale, jobs=1)[1] for figure in figures}


def _jobs(workload: Any, workers: int) -> list[list[tuple[Any, ...]]]:
    """The references of ``workload`` dealt round-robin to ``workers``.

    A worker gets one job per trace it needs, holding every config of
    that trace it was dealt, so it builds each trace once.
    """
    if workload.name == "fig_sweep":
        from workloads import FIGURES

        scale = workload.scale
        return [
            [("figures", scale.workloads, scale.n_instructions, FIGURES[i::workers])]
            for i in range(workers)
            if FIGURES[i::workers]
        ]
    dealt = workload.reference_jobs()
    chunks = []
    for i in range(workers):
        grouped: dict[str, tuple[Any, list[str], list[str]]] = {}
        for name, recipe, label in dealt[i::workers]:
            entry = grouped.setdefault(recipe.name, (recipe, [], []))
            entry[1].append(label)
            entry[2].append(name)
        if grouped:
            chunks.append([("digests", *entry) for entry in grouped.values()])
    return chunks


def compute(workload: Any, workers: int) -> dict[str, str]:
    """Interpreter references for ``workload``'s current inputs.

    The jobs are dealt to ``workers`` child interpreters running this file
    with ``--worker``; each is waited for, and one that fails raises.
    """
    children = []
    for chunk in _jobs(workload, workers):
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
        )
        assert child.stdin is not None
        child.stdin.write(pickle.dumps(chunk))
        child.stdin.close()
        children.append(child)
    references: dict[str, str] = {}
    failed = []
    for child in children:
        assert child.stdout is not None
        output = child.stdout.read()
        child.stdout.close()
        if child.wait() != 0:
            failed.append(child.returncode)
            continue
        references.update(pickle.loads(output))
    if failed:
        raise RuntimeError(f"reference workers failed with exit codes {failed}")
    return references


def _worker() -> int:
    """Child side of :func:`compute`: jobs in on stdin, references out on stdout."""
    import run

    run.prepare_environment()
    os.environ["REPRO_SIM_KERNEL"] = "0"
    references: dict[str, str] = {}
    for kind, *args in pickle.loads(sys.stdin.buffer.read()):
        if kind == "figures":
            references.update(_interpreter_figures(*args))
        else:
            references.update(_interpreter_digests(*args))
    sys.stdout.buffer.write(pickle.dumps(references))
    return 0


def load(workload: Any, seed: int, work: Path, workers: int) -> tuple[dict[str, str], str]:
    """References for ``workload`` at ``seed`` and where they came from."""
    if seed == DEFAULT_SEED:
        committed = json.loads(COMMITTED.read_text(encoding="utf-8"))
        return committed[workload.name], "committed"
    path = work / "references" / f"{workload.name}-seed{seed}.json"
    key = source_digest()
    if path.exists():
        cached = json.loads(path.read_text(encoding="utf-8"))
        if cached.get("source") == key:
            return cached["references"], "cached"
    references = compute(workload, workers)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"source": key, "references": references}, indent=1, sort_keys=True),
        encoding="utf-8",
    )
    return references, "computed"


def main() -> int:
    """Recompute and commit the default seed's references."""
    import run

    run.prepare_environment()
    import harness
    from spans import NullTracer

    committed = {}
    for name in run.WORKLOADS:
        workload = harness.make_workload(name, DEFAULT_SEED)
        workload.setup(NullTracer())
        committed[name] = compute(workload, os.cpu_count() or 1)
        print(f"{name}: {len(committed[name])} references", file=sys.stderr)
    COMMITTED.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_worker() if sys.argv[1:] == ["--worker"] else main())
