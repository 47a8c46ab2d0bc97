"""Child process for the ingest phase: ``repro serve`` through the CLI.

    python3 perfbench/daemon.py --ticks FILE [--spans FILE] serve --in STORE ...

The process runs a host-speed sampler (``hostspeed``) and writes its
ticks to the ``--ticks`` file when the daemon exits (on SIGTERM, after
``repro serve`` has shut down).  With ``--spans`` the layer wrappers
are installed in this process before the daemon starts, and its spans
are written to that file at exit.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    import hostspeed

    sampler = hostspeed.start()
    ticks_path, argv = Path(argv[1]), argv[2:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    import repro.cli

    recorder = None
    if spans_path is not None:
        from layers import install
        from spans import SpanRecorder, write_spans

        recorder = SpanRecorder()
        install(recorder)
    try:
        code = repro.cli.main(argv)
    finally:
        sampler.stop()
    sampler.write(ticks_path)
    if recorder is not None:
        write_spans(spans_path, recorder.drain())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
