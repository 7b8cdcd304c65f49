"""Traced ``repro serve``: wrap the serving layers, then run the real CLI.

Usage::

    python3 perfbench/serve_launcher.py --dump spans.json -- --checkpoint DIR ...

Everything after ``--`` goes to ``repro serve`` unchanged (it is started
through ``repro.cli.main``).  On SIGINT the server shuts down the way it
always does and the launcher writes the recorded spans to ``--dump``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import write_json  # noqa: E402
from tracer import SpanRecorder, install_model_spans  # noqa: E402


def install_layer_spans(recorder: SpanRecorder) -> None:
    import repro.serve.checkpoint as checkpoint_mod
    import repro.serve.index as index_mod
    from repro.serve.engine import MicroBatcher, ServingEngine
    from repro.serve.server import RecommendationServer

    install_model_spans(recorder)
    recorder.wrap(checkpoint_mod, "dataset_from_spec", "data.dataset")
    recorder.wrap(checkpoint_mod, "load_checkpoint", "serve.checkpoint_load")
    recorder.wrap(index_mod, "load_index", "serve.index_ready")
    recorder.wrap(index_mod.TopKIndex, "build", "serve.index_ready")
    recorder.wrap(index_mod, "build_mask_table", "eval.mask_table")
    recorder.wrap(index_mod.TopKIndex, "topk", "serve.index_topk")
    recorder.wrap(ServingEngine, "recommend_many", "serve.engine")
    recorder.wrap(ServingEngine, "recommend", "serve.engine")
    recorder.wrap(ServingEngine, "_fallback", "serve.fallback")

    submit = MicroBatcher.submit
    clock = recorder.clock

    def traced_submit(self, user, k=10, ctx=None):
        start = clock()
        future = submit(self, user, k, ctx)
        future.add_done_callback(
            lambda _f: recorder.complete("serve.batch_wait", start, clock())
        )
        return future

    MicroBatcher.submit = traced_submit

    observe = RecommendationServer.observe_request

    def traced_observe(self, ctx):
        idx = recorder.begin("obs.request_accounting", handle_s=ctx.duration_s or 0.0)
        try:
            return observe(self, ctx)
        finally:
            recorder.end(idx)

    RecommendationServer.observe_request = traced_observe


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dump", required=True)
    args = parser.parse_args(argv[:split])
    serve_args = argv[split + 1 :]

    t0 = time.perf_counter()
    from repro.cli import main as repro_main

    import_s = time.perf_counter() - t0
    recorder = SpanRecorder()
    install_layer_spans(recorder)
    code = repro_main(["serve", *serve_args])
    dump = recorder.dump()
    dump["import_s"] = import_s
    write_json(args.dump, dump)
    return code


if __name__ == "__main__":
    sys.exit(main())
