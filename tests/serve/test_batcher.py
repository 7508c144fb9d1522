"""Unit tests of the micro-batcher against a stub scorer (no model, no sockets)."""

from __future__ import annotations

import asyncio

from repro.serve.batcher import MicroBatcher


def _stub_predict(source: str, configs: list) -> list[dict]:
    return [{"index": float(index)} for index in range(len(configs))]


def test_lone_request_on_an_idle_batcher_starts_a_pass_without_a_timer():
    async def main() -> tuple[int, list[dict]]:
        batcher = MicroBatcher(_stub_predict)
        batcher.start()
        request = asyncio.get_running_loop().create_task(
            batcher.submit("source", [None])
        )
        # a handful of event-loop turns, no wall-clock time
        for _ in range(10):
            await asyncio.sleep(0)
        batches = batcher.stats.batches
        results = await request
        await batcher.stop()
        return batches, results

    batches, results = asyncio.run(main())
    assert batches == 1
    assert results == [{"index": 0.0}]
