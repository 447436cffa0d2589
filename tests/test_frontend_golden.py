"""Pin the front end's compiled output on a fixed corpus.

``tests/data/frontend_golden.json`` holds, for every program of
:mod:`repro.bench` (the figures, the Table-5 WCET kernels, the Table-4
crypto kernels and their Table-7 client harnesses, the scenario-scaling
kernels) and for a few seeded shapes of the benchmark generators in
``perfbench/generators.py``:

* the MiniC source, so the pin does not move when a generator does;
* the entry CFG's ``content_fingerprint()`` and its printed form;
* a hash of the printed form of every lowered function in ``cfgs``;
* the unroll statistics and the checker's secret-tainted symbols.

Unrolling, lowering and inlining are pure rewrites of their input, so
any change to this output is a change to what every analysis sees.
The file was written by the deep-copying front end, before unroll and
inline switched to structure sharing; regenerate it only for a change
that is *meant* to alter compiled output::

    PYTHONPATH=src python tests/test_frontend_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import compile_source

GOLDEN_PATH = Path(__file__).parent / "data" / "frontend_golden.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _describe(source: str, entry: str | None) -> dict:
    program = compile_source(source, entry=entry)
    return {
        "fingerprint": program.content_fingerprint(),
        "cfg": str(program.cfg),
        "cfgs": {name: _sha(str(cfg)) for name, cfg in program.cfgs.items()},
        "loops_unrolled": program.unroll_stats.loops_unrolled,
        "iterations_emitted": program.unroll_stats.iterations_emitted,
        "secret_symbols": sorted(program.info.secret_symbols),
    }


def _corpus() -> list[tuple[str, str, str | None]]:
    """``(name, source, entry)`` for every pinned program."""
    from repro.bench import programs
    from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
    from repro.bench.tables import table7_client_request

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.generators import branchy_source, unroll_source, wcet_shaped_source

    corpus: list[tuple[str, str, str | None]] = [
        ("motivating", programs.motivating_example_source(), None),
        ("quantl_client", programs.quantl_client_source(), None),
        ("figure7", programs.figure7_source(), None),
        ("figure11", programs.figure11_source(), None),
        ("branchy_kernel_8", programs.branchy_kernel_source(8), None),
        ("taint_sparse_8", programs.taint_sparse_kernel_source(8), None),
    ]
    for name in programs.WCET_BENCHMARKS:
        corpus.append((f"wcet/{name}", programs.wcet_benchmark_source(name), None))
    for name in CRYPTO_BENCHMARKS:
        kernel = crypto_kernel(name)
        corpus.append((f"crypto/{name}", kernel.source, kernel.entry))
        corpus.append((f"table7/{name}", table7_client_request(name).source, None))
    for n, seed in ((3, 1), (5, 2), (8, 3)):
        corpus.append((f"gen/unroll_{n}_s{seed}", unroll_source(n, seed), None))
    for branches, seed in ((4, 1), (12, 2)):
        corpus.append(
            (f"gen/branchy_{branches}_s{seed}", branchy_source(branches, seed), None)
        )
    for seed in (1, 2):
        corpus.append((f"gen/wcet_shaped_s{seed}", wcet_shaped_source(seed), None))
    return corpus


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


GOLDEN = _load_golden() if GOLDEN_PATH.exists() else {}


def test_golden_corpus_is_present():
    assert len(GOLDEN) >= 40


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compiled_output_matches_golden(name):
    pinned = GOLDEN[name]
    actual = _describe(pinned["source"], pinned["entry"])
    for key, value in actual.items():
        assert value == pinned[key], f"{name}: {key} differs from the golden file"


def _regenerate() -> None:
    golden = {}
    for name, source, entry in _corpus():
        golden[name] = {"source": source, "entry": entry, **_describe(source, entry)}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} programs to {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
