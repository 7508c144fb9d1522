"""Command-line interface.

Four subcommands cover the library's main workflows:

``repro-qor train``
    Generate ground-truth labels for a set of kernels (running the flow
    simulator over a sampled design space), train the hierarchical model and
    save it to an ``.npz`` file.

``repro-qor predict``
    Load a trained model and predict post-route QoR for a kernel under a
    pragma configuration given as ``loop=directive`` / ``array=spec`` options
    (or estimate it with the flow simulator via ``--flow``).

``repro-qor dse``
    Run model-guided design-space exploration on one kernel and report the
    Pareto front and ADRS against the exhaustive flow.  ``--workers N``
    shards the space across worker processes (each bootstrapped from the
    saved model) and merges the per-shard Pareto fronts deterministically;
    ``--shard-strategy`` picks how configurations are grouped.

``repro-qor serve``
    Keep one trained predictor resident and serve QoR predictions to many
    concurrent clients over newline-delimited JSON TCP.  Requests arriving
    within a short window are coalesced into shared batched inference
    passes (see :mod:`repro.serve`); SIGINT/SIGTERM drain gracefully.

Run ``python -m repro.cli --help`` for the full option list.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import numpy as np

from repro.core import (
    HierarchicalModelConfig,
    HierarchicalQoRModel,
    TrainingConfig,
    build_design_instances,
    load_model,
    save_model,
)
from repro.dse import FunnelExplorer, ModelGuidedExplorer, exhaustive_ground_truth
from repro.dse.sharding import SHARD_STRATEGIES
from repro.dse.space import sample_design_space
from repro.frontend import PragmaConfig, config_from_specs
from repro.hls import run_full_flow
from repro.ir import lower_source
from repro.kernels import KERNEL_SOURCES, load_kernel


def _load_source_text(args: argparse.Namespace) -> str:
    """Resolve the HLS-C text for --kernel (registry) or --source (file)."""
    if getattr(args, "source", None):
        with open(args.source) as handle:
            return handle.read()
    if args.kernel not in KERNEL_SOURCES:
        raise SystemExit(
            f"unknown kernel {args.kernel!r}; available: {sorted(KERNEL_SOURCES)}"
        )
    return KERNEL_SOURCES[args.kernel]


def _load_function(args: argparse.Namespace):
    """Resolve --kernel (registry name) or --source (path to HLS-C file)."""
    if not getattr(args, "source", None) and args.kernel in KERNEL_SOURCES:
        return load_kernel(args.kernel)  # lru-cached lowering
    return lower_source(_load_source_text(args))


def parse_config(loop_specs: list[str], array_specs: list[str]) -> PragmaConfig:
    """Build a :class:`PragmaConfig` from the ``--loop``/``--array`` options.

    Loop options look like ``L0_0=pipeline``, ``L0=unroll:4``,
    ``L0=pipeline+unroll:2`` or ``L0=flatten``; array options look like
    ``A=cyclic:4:2`` (type : factor : dim).  A malformed option exits with
    the parser's message (see :func:`repro.frontend.config_from_specs`).
    """
    try:
        return config_from_specs(loop_specs, array_specs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def cmd_train(args: argparse.Namespace) -> int:
    """``repro-qor train``: label a sampled space, train, save the model."""
    rng = np.random.default_rng(args.seed)
    kernels = {name: load_kernel(name) for name in args.kernels}
    configs = {
        name: sample_design_space(function, args.configs, rng=rng)
        for name, function in kernels.items()
    }
    print(f"generating labels for {sum(len(c) for c in configs.values())} designs...")
    instances = build_design_instances(kernels, configs)
    model = HierarchicalQoRModel(
        HierarchicalModelConfig(
            conv_type=args.gnn, hidden=args.hidden,
            training=TrainingConfig(epochs=args.epochs, batch_size=args.batch_size),
        )
    )
    report = model.fit(instances, rng=rng)
    print("dataset sizes:", report.dataset_sizes)
    for name, scores in report.test_mape().items():
        print(name, {k: round(v, 1) for k, v in scores.items()})
    path = save_model(model, args.output)
    print(f"model saved to {path}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """``repro-qor predict``: QoR of one design point (model or flow)."""
    function = _load_function(args)
    config = parse_config(args.loop, args.array)
    result: dict[str, float]
    if args.flow or not args.model:
        qor = run_full_flow(function, config)
        result = qor.as_dict()
        source = "flow simulator"
    else:
        model = load_model(args.model)
        result = model.predict(function, config)
        source = f"model {args.model}"
    print(f"kernel={function.name}  config={config.describe()}  ({source})")
    print(json.dumps({k: round(v, 1) for k, v in result.items()}, indent=2))
    return 0


def _sharded_dse(args: argparse.Namespace, function, space) -> list:
    """Run the multi-worker sharded exploration; returns the true-QoR front.

    Mirrors the single-process model-guided branch of :func:`cmd_dse`: the
    predicted-Pareto selections come from :class:`ShardedExplorer`, and the
    reported front/ADRS use the ground-truth QoR of the selected designs.
    """
    from repro.dse import DesignSpace, ShardedExplorer
    from repro.dse.pareto import adrs

    design_space = DesignSpace.from_lowered(
        function, _load_source_text(args), space.configs
    )
    explorer = ShardedExplorer(
        args.model, num_workers=args.workers,
        shard_strategy=args.shard_strategy, warm_caches=args.warm_cache,
        work_stealing=args.work_stealing, precision=args.precision,
        dedup=not args.no_dedup,
        checkpoint=args.checkpoint, resume=args.resume,
        checkpoint_interval=args.checkpoint_interval,
        write_back=args.write_back,
    )
    result = explorer.explore(design_space)
    approx = space.true_front_of([point.key for point in result.front])
    exact = space.exact_front()
    # unlike the single-process "model time" (prediction only), the sharded
    # figure is end-to-end: spawn + per-worker model load + predict + merge
    mode = "work-stealing" if result.work_stealing else "fixed shards"
    dedup_note = (
        f", {result.num_classes} classes ({result.dedup_ratio:.2f}x dedup)"
        if result.dedup else ", dedup off"
    )
    print(f"model-guided ADRS: {adrs(exact, approx) * 100:.2f}%  "
          f"sharded over {result.num_workers} workers "
          f"({result.shard_strategy}, {mode}, {result.mp_context}{dedup_note})  "
          f"end-to-end {result.model_seconds:.2f}s "
          f"({result.configs_per_second:,.0f} effective configs/s)")
    for shard in result.shards:
        status = "failed" if shard.failed else "ok"
        recovered = (
            f", {shard.recovered} recovered in-process" if shard.recovered else ""
        )
        print(f"  shard {shard.shard_id}: {shard.completed}/{shard.num_configs} "
              f"configs ({status}{recovered})")
    print("fleet cache stats:", json.dumps(result.cache_stats, sort_keys=True))
    if result.checkpoint_path:
        resumed = (
            f"resumed {result.resumed_configs} configs "
            f"({result.rescored_configs} re-scored), " if args.resume else ""
        )
        print(f"checkpoint: {resumed}progress persisted to "
              f"{result.checkpoint_path}")
    if args.warm_cache and not result.write_back:
        print("note: worker warm caches are adopted read-only; add "
              "--write-back to bank what the fleet builds into the model file")
    if result.write_back:
        print("write-back:", json.dumps(result.write_back_stats, sort_keys=True))
    return approx


def cmd_dse(args: argparse.Namespace) -> int:
    """``repro-qor dse``: explore a kernel's space, report front + ADRS.

    With ``--workers N`` (N > 1) the sweep runs on the sharded multi-worker
    engine (:mod:`repro.dse.sharding`); otherwise the in-process batched
    explorer is used.  ``--funnel`` (or an explicit
    ``--funnel-keep K``) routes the sweep through the surrogate-first
    :class:`~repro.dse.explorer.FunnelExplorer`; ``--precision float32``
    runs whichever engine was picked in the cheap inference tier.
    """
    funnel = args.funnel or args.funnel_keep is not None
    if args.warm_cache and not args.model:
        raise SystemExit("--warm-cache requires --model (the caches are "
                         "persisted inside the model file)")
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1 and not args.model:
        raise SystemExit("--workers requires --model (worker processes "
                         "bootstrap their predictors from the saved model)")
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint (the file the "
                         "interrupted sweep persisted its progress to)")
    if args.checkpoint and args.workers <= 1:
        raise SystemExit("--checkpoint requires --workers > 1 (checkpointing "
                         "is the sharded coordinator's crash protection)")
    if args.write_back and args.workers <= 1:
        raise SystemExit("--write-back requires --workers > 1 (the "
                         "single-process engine already saves caches back "
                         "via --warm-cache)")
    if funnel and not args.model:
        raise SystemExit("--funnel requires --model (the surrogate is "
                         "distilled from the model's own predictions)")
    if funnel and args.workers > 1:
        raise SystemExit("--funnel runs on the in-process batched engine; "
                         "it cannot combine with --workers")
    function = _load_function(args)
    rng = np.random.default_rng(args.seed)
    configs = sample_design_space(function, args.configs, rng=rng)
    if not args.no_dedup:
        # effective-directive equivalence summary: how much of the sampled
        # space collapses once pragmas are rewritten into canonical form
        from repro.dse import DesignSpace

        deduped = DesignSpace.from_lowered(
            function, _load_source_text(args), configs
        ).dedup()
        print(f"design space: {len(configs)} configurations, "
              f"{deduped.num_classes} effective classes "
              f"({deduped.dedup_ratio:.2f}x dedup)")
    print(f"evaluating {len(configs)} configurations with the ground-truth flow...")
    space = exhaustive_ground_truth(function, configs)
    print(f"exhaustive (simulated) flow time: {space.simulated_tool_seconds/3600:.1f} h")
    if args.model and args.workers > 1:
        front = _sharded_dse(args, function, space)
    elif args.model:
        # --warm-cache: adopt the persisted construction cache / prediction
        # memo saved alongside the model, and write the (now warmer) caches
        # back after the sweep, so successive service runs start warm
        model = load_model(
            args.model, warm_caches=args.warm_cache, precision=args.precision
        )
        if funnel:
            explorer = FunnelExplorer(
                model.predict_batch, keep=args.funnel_keep,
                cache_stats_fn=model.cache_stats,
            )
            result = explorer.explore(function, space)
            budget = "adaptive" if result.adaptive_keep else "fixed"
            print(f"funnel ADRS: {result.adrs_percent:.2f}%  "
                  f"model time {result.model_seconds:.2f}s "
                  f"({result.configs_per_second:,.0f} effective configs/s, "
                  f"{args.precision})")
            print(f"  full-model scored {result.full_model_configs}/"
                  f"{result.num_configs} configs ({result.configs_saved} "
                  f"saved; {budget} budget {result.keep}, "
                  f"{result.rounds} surrogate rounds, "
                  f"surrogate time {result.surrogate_seconds:.2f}s)")
        else:
            explorer = ModelGuidedExplorer(
                model.predict, name="hierarchical",
                predict_batch_fn=model.predict_batch,
                cache_stats_fn=model.cache_stats,
            )
            result = explorer.explore(function, space)
            print(f"model-guided ADRS: {result.adrs_percent:.2f}%  "
                  f"model time {result.model_seconds:.2f}s (batched, {args.precision}, "
                  f"{result.configs_per_second:,.0f} configs/s)  "
                  f"speedup {result.speedup:,.0f}x")
        if args.warm_cache:
            stats = result.cache_stats
            print("cache stats:", json.dumps(stats, sort_keys=True))
            save_model(model, args.model, warm_caches=True)
            print(f"warm caches saved back to {args.model} "
                  f"({stats.get('memoized_predictions', 0)} memoized designs)")
        front = result.approx_front
    else:
        front = space.exact_front()
    print("Pareto front (latency, area):")
    for point in sorted(front, key=lambda p: p.objectives[0]):
        print(f"  {point.objectives[0]:12.0f}  {point.objectives[1]:12.0f}  {point.key}")
    return 0


async def _serve_main(args: argparse.Namespace) -> int:
    """Async body of ``repro-qor serve``: run until signalled, then drain."""
    import signal

    from repro.core.predictor import QoRPredictor
    from repro.nn.autograd import blas_threads
    from repro.serve import QoRServer

    # one inference thread beside the event loop: a BLAS pool thread would
    # only spin on the core the event loop needs
    blas_threads(1)
    predictor = QoRPredictor.load(
        args.model, warm_caches=args.warm_cache, precision=args.precision
    )
    from repro.serve.server import MAX_LINE_BYTES

    server = QoRServer(
        predictor,
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        max_line_bytes=(
            args.max_line_bytes if args.max_line_bytes else MAX_LINE_BYTES
        ),
    )
    await server.start()
    host, port = server.address
    # parseable readiness line: harnesses wait for it before connecting
    print(f"serving on {host}:{port}", flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await server.serve_until(stop)
    finally:
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(signum)
    stats = server.batcher.stats
    print(
        f"drained: {server.requests} requests, {stats.batches} batches, "
        f"{stats.coalesced_batches} coalesced",
        flush=True,
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro-qor serve``: the resident prediction daemon."""
    if args.batch_window_ms < 0:
        raise SystemExit(
            f"--batch-window-ms must be >= 0, got {args.batch_window_ms}"
        )
    if args.max_batch < 1:
        raise SystemExit(f"--max-batch must be >= 1, got {args.max_batch}")
    if args.max_pending < 1:
        raise SystemExit(f"--max-pending must be >= 1, got {args.max_pending}")
    if args.idle_timeout < 0:
        raise SystemExit(
            f"--idle-timeout must be >= 0, got {args.idle_timeout}"
        )
    if args.max_line_bytes is not None and args.max_line_bytes < 1024:
        raise SystemExit(
            f"--max-line-bytes must be >= 1024, got {args.max_line_bytes}"
        )
    return asyncio.run(_serve_main(args))


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The ``repro-qor`` argument parser (train / predict / dse)."""
    parser = argparse.ArgumentParser(
        prog="repro-qor",
        description="Hierarchical source-to-post-route QoR prediction for HLS",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    train = subparsers.add_parser("train", help="train and save a hierarchical model")
    train.add_argument("--kernels", nargs="+", default=["gemm", "atax", "gesummv"],
                       help="registry kernels to train on")
    train.add_argument("--configs", type=int, default=24,
                       help="design points sampled per kernel")
    train.add_argument("--epochs", type=int, default=40)
    train.add_argument("--batch-size", type=int, default=32)
    train.add_argument("--hidden", type=int, default=32)
    train.add_argument("--gnn", default="graphsage",
                       choices=["gcn", "gat", "graphsage", "transformer", "pna"])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", default="qor_model.npz")
    train.set_defaults(func=cmd_train)

    predict = subparsers.add_parser("predict", help="predict QoR for a design point")
    predict.add_argument("--kernel", default="gemm", help="registry kernel name")
    predict.add_argument("--source", help="path to an HLS-C source file")
    predict.add_argument("--model", help="path to a saved model (.npz)")
    predict.add_argument("--flow", action="store_true",
                         help="use the flow simulator instead of a model")
    predict.add_argument("--loop", action="append", default=[],
                         help="loop directive, e.g. L0_0=pipeline+unroll:2")
    predict.add_argument("--array", action="append", default=[],
                         help="array partition, e.g. A=cyclic:4:2")
    predict.set_defaults(func=cmd_predict)

    dse = subparsers.add_parser("dse", help="explore a kernel's design space")
    dse.add_argument("--kernel", default="bicg")
    dse.add_argument("--source", help="path to an HLS-C source file")
    dse.add_argument("--model", help="saved model to guide the exploration")
    dse.add_argument("--configs", type=int, default=100)
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument("--warm-cache", action="store_true",
                     help="start from the construction cache / prediction "
                          "memo persisted in the model file and save the "
                          "warmed caches back after the sweep (with "
                          "--workers the caches are adopted read-only)")
    dse.add_argument("--workers", type=int, default=1,
                     help="worker processes for the sharded explorer; with "
                          "N > 1 the space is partitioned, each shard is "
                          "scored by its own process bootstrapped from "
                          "--model, and the per-shard Pareto fronts are "
                          "merged deterministically")
    dse.add_argument("--shard-strategy", default="pragma-locality",
                     choices=list(SHARD_STRATEGIES),
                     help="how to partition the space across workers: "
                          "pragma-locality groups configurations sharing "
                          "graph-construction work, round-robin deals them "
                          "out blindly")
    dse.add_argument("--precision", default="float64",
                     choices=["float64", "float32"],
                     help="inference tier for the model-guided sweep: float64 "
                          "is the bit-exact reference, float32 casts the "
                          "weights once for a faster sweep (predictions agree "
                          "within a relaxed bound)")
    dse.add_argument("--funnel", action="store_true",
                     help="surrogate-first funnel: a cheap distilled surrogate "
                          "scores the whole space and only Pareto-plausible "
                          "candidates are scored by the full model")
    dse.add_argument("--funnel-keep", type=int, default=None, metavar="K",
                     help="fixed full-model budget for --funnel (default: "
                          "adaptive, max(96, half the space)); implies "
                          "--funnel")
    dse.add_argument("--no-dedup", action="store_true",
                     help="score every raw configuration instead of one "
                          "canonical representative per effective-directive "
                          "equivalence class; also hides the class-count "
                          "summary (dedup is on by default and never "
                          "changes the front)")
    dse.add_argument("--work-stealing", action="store_true",
                     help="pull shard chunks from one shared queue instead "
                          "of fixing each worker's assignment, so early-"
                          "finishing workers steal the remaining chunks "
                          "(front is identical — the Pareto merge is "
                          "partition-invariant)")
    dse.add_argument("--checkpoint", metavar="PATH",
                     help="persist sharded-sweep progress to this file "
                          "(atomic, digest-sealed) so a killed fleet can be "
                          "restarted with --resume; requires --workers > 1")
    dse.add_argument("--resume", action="store_true",
                     help="fold the checkpoint at --checkpoint back in and "
                          "score only what it does not cover; the resumed "
                          "front is bit-equal to an uninterrupted sweep's "
                          "(an unusable checkpoint is discarded with a "
                          "warning and the sweep restarts from zero)")
    dse.add_argument("--checkpoint-interval", type=int, default=64,
                     metavar="N",
                     help="newly scored configurations between periodic "
                          "checkpoint writes (default 64)")
    dse.add_argument("--write-back", action="store_true",
                     help="merge the warm-cache entries the workers newly "
                          "built back into the model file after the sweep, "
                          "so the next --warm-cache fleet over the same "
                          "space does zero cold graph builds; requires "
                          "--workers > 1")
    dse.set_defaults(func=cmd_dse)

    serve = subparsers.add_parser(
        "serve", help="serve QoR predictions from a resident model over TCP"
    )
    serve.add_argument("--model", required=True,
                       help="saved model (.npz) to keep resident")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port to listen on (0 picks a free port, "
                            "reported on the 'serving on HOST:PORT' line)")
    serve.add_argument("--batch-window-ms", type=float, default=2.0,
                       help="cross-request coalescing window: how long the "
                            "first request of a batch waits for company "
                            "before the shared inference pass runs")
    serve.add_argument("--max-batch", type=int, default=512,
                       help="flush a batch early once this many "
                            "configurations have accumulated")
    serve.add_argument("--max-pending", type=int, default=4096,
                       help="admission-control bound: total configurations "
                            "allowed in flight before new requests are "
                            "rejected with an 'overloaded' error")
    serve.add_argument("--warm-cache", action="store_true",
                       help="hydrate the construction cache / prediction "
                            "memo persisted in the model file, so the first "
                            "requests are served from warm state")
    serve.add_argument("--precision", default="float64",
                       choices=["float64", "float32"],
                       help="inference tier the resident model serves at")
    serve.add_argument("--idle-timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="close a connection after this many seconds of "
                            "silence with nothing in flight (0 disables; "
                            "connections waiting on their own requests are "
                            "never culled)")
    serve.add_argument("--max-line-bytes", type=int, default=None,
                       metavar="BYTES",
                       help="reject request lines larger than this with a "
                            "structured bad-request error instead of "
                            "silently dropping the connection (default 8 MiB)")
    serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    A ``KeyboardInterrupt`` that escapes a subcommand exits with the
    conventional 130 (128 + SIGINT) instead of a traceback; ``serve``
    installs its own SIGINT handler and drains gracefully, so only an
    interrupt outside the drain path (e.g. during model load, or in the
    long-running ``train``/``dse`` commands) takes this route.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
