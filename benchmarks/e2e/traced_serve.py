#!/usr/bin/env python
"""``repro serve`` with the layer spans installed, for the traced run.

Usage::

    python benchmarks/e2e/traced_serve.py SPANS.jsonl [serve options]

Installs :data:`layers.LAYERS`, runs ``repro.cli.main(["serve", ...])``
and, once SIGINT ends the server, writes every recorded span to
``SPANS.jsonl`` (see :func:`layers.dump_spans`).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import layers  # noqa: E402
from repro.cli import main as repro_main  # noqa: E402


def main(argv) -> int:
    if not argv:
        raise SystemExit("usage: traced_serve.py SPANS.jsonl [serve options]")
    spans_path, serve_args = argv[0], argv[1:]
    per_span_s = layers.per_span_cost_s()
    recorder = layers.Recorder()
    layers.install(recorder)
    try:
        return repro_main(["serve", *serve_args])
    finally:
        layers.dump_spans(spans_path, recorder.spans, per_span_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
