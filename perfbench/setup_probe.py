"""Set-up time of one workload, measured inside a fresh interpreter.

Times ``import repro`` -> the workload's serving target built -> the first
answer to a tiny problem returned, and prints ``{"setup_s": ...}``.  The first
solve pays the program's lazy imports (``scipy.optimize`` among them), which
is why the timed legs warm up before they start their clocks.

    python3 perfbench/setup_probe.py exact|symgd|serve
"""

import time

START = time.perf_counter()

import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import config  # noqa: E402
import workloads  # noqa: E402  (imports repro: part of the timed set-up)


async def _serve_first_answer(problem) -> float:
    from repro.cluster import ClusterOptions, ClusterRouter

    async with ClusterRouter(ClusterOptions(num_shards=config.SERVE["shards"])) as cluster:
        await cluster.submit(problem, "symgd", dict(config.SERVE_PARAMS))
        return time.perf_counter() - START


def main(workload: str) -> float:
    problem = workloads.tiny_instance(0)
    if workload == "serve":
        return asyncio.run(_serve_first_answer(problem))
    spec = config.EXACT if workload == "exact" else config.SYMGD
    with workloads.RankHowClient() as client:
        client.synthesize(problem, spec["method"], spec["options"])
        return time.perf_counter() - START


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(sys.argv[1])}))
