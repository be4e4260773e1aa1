"""Start ``repro serve`` with spans around its learning layer.

The traced serving run starts the server through this launcher instead
of ``python -m repro serve``.  It wraps each tenant predictor's sizing
and learning calls and the model pool and slot methods (see
``spans.py``), then hands the remaining arguments to the program's own
``repro serve`` command unchanged.  When that returns (on SIGTERM) it
writes the spans to ``--spans-out``.

    python3 perfbench/serve_launcher.py --spans-out PATH --port 0 --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cli import main as repro_main
from repro.core.predictor import SizeyPredictor

from spans import SpanRecorder, spanned, install_slot_spans


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spans-out", required=True)
    args, serve_args = ap.parse_known_args(argv)

    recorder = SpanRecorder()
    install_slot_spans(recorder)
    for method, name in (("predict_batch", "sizing"), ("observe", "learning")):
        fn = getattr(SizeyPredictor, method)
        setattr(SizeyPredictor, method, spanned(recorder, name, fn))

    code = repro_main(["serve", *serve_args])
    with open(args.spans_out, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                   "spans": recorder.rows()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
