"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper.  Because the
full-paper scale (thousands of designs, 250 epochs) is not laptop-friendly,
the corpus size is controlled by environment variables and defaults to a
configuration that finishes in minutes while preserving the qualitative
shape of each result:

``REPRO_BENCH_KERNELS``      number of training kernels       (default 8)
``REPRO_BENCH_CONFIGS``      configurations sampled per kernel (default 20)
``REPRO_BENCH_EPOCHS``       training epochs per model         (default 40)
``REPRO_BENCH_DSE_CONFIGS``  design points per DSE kernel      (default 150)
``REPRO_BENCH_GNN_TYPES``    comma list for Table III          (default all 5)

Numbers reported by each benchmark are written to ``benchmarks/results/`` so
that EXPERIMENTS.md can reference them after a run.

The test suite's standalone reference implementations (``tests/reference/``)
are importable here as ``reference``: the cold-path bench times production
inference against them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    TrainingConfig,
    build_design_instances,
)
from repro.dse.space import sample_design_space
from repro.kernels import TRAIN_KERNELS, load_kernels

RESULTS_DIR = Path(__file__).parent / "results"

_TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


def bench_kernel_names() -> tuple[str, ...]:
    count = env_int("REPRO_BENCH_KERNELS", 8)
    return TRAIN_KERNELS[:max(1, min(count, len(TRAIN_KERNELS)))]


def bench_gnn_types() -> list[str]:
    raw = os.environ.get("REPRO_BENCH_GNN_TYPES", "gcn,gat,graphsage,transformer,pna")
    return [name.strip() for name in raw.split(",") if name.strip()]


def bench_training_config() -> TrainingConfig:
    return TrainingConfig(
        epochs=env_int("REPRO_BENCH_EPOCHS", 40),
        batch_size=32,
        learning_rate=2e-3,
        patience=20,
        seed=0,
    )


def peak_rss_mb() -> float:
    """Peak resident-set size of this process so far, in MiB.

    Each perf benchmark stamps this into its ``BENCH_*.json`` so the
    perf-trend gate can warn on memory growth alongside speed regressions.
    ``ru_maxrss`` is a process-lifetime high-water mark, so within one
    pytest process later benchmarks inherit the peak of earlier ones — the
    tracked quantity is "memory needed to run the perf suite up to and
    including this benchmark", which is exactly what the CI runner must
    provision.
    """
    import resource

    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def write_result(name: str, text: str) -> Path:
    """Persist a benchmark's table so EXPERIMENTS.md can quote it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text)
    print(f"\n{text}")
    return path


def format_table(headers: list[str], rows: list[list[str]], title: str = "") -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def training_corpus():
    """Design instances for the training kernels (ground truth included)."""
    rng = np.random.default_rng(11)
    kernels = load_kernels(bench_kernel_names())
    limit = env_int("REPRO_BENCH_CONFIGS", 20)
    configs = {
        name: sample_design_space(function, limit, rng=rng)
        for name, function in kernels.items()
    }
    instances = build_design_instances(kernels, configs)
    return {"kernels": kernels, "instances": instances}


@pytest.fixture(scope="session")
def flat_pragma_aware_baseline(training_corpus):
    """A whole-graph GNN on pragma-aware graphs (the 'no hierarchy' ablation)."""
    from repro.baselines import FlatGNNBaseline

    baseline = FlatGNNBaseline(
        pragma_aware=True, label_stage="post_route",
        training=bench_training_config(),
    )
    result = baseline.fit(training_corpus["instances"])
    return {"model": baseline, "result": result}


@pytest.fixture(scope="session")
def hierarchical_model(training_corpus):
    """The default (GraphSAGE) hierarchical model trained on the corpus."""
    config = HierarchicalModelConfig(
        conv_type="graphsage", hidden=32, training=bench_training_config()
    )
    model = HierarchicalQoRModel(config)
    report = model.fit(training_corpus["instances"])
    return {"model": model, "report": report}
