"""Run ``repro-qor serve`` in this process, optionally under the layer timers.

    python perfbench/daemon.py --spans OUT.npz serve --model M --port 0

With a non-empty ``--spans`` path the benchmark's timers (``spans.install``)
wrap the program before the daemon is built, so the micro-batcher binds the
timed ``QoRPredictor`` methods; the spans are written to that path once the
daemon has drained (SIGTERM) and ``repro.cli.main`` has returned.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402  (after the path set-up)


def main(argv: list[str]) -> int:
    spans_path = ""
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    from repro import cli

    patches = spans.install(spans.Recorder()) if spans_path else None
    try:
        return cli.main(argv)
    finally:
        if patches is not None:
            patches.recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
