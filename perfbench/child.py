"""One hopkit command, as the ``hopkit`` console script runs it, plus what
the benchmark needs to see from inside the process.

    python3 perfbench/child.py --probe send --out-file probe.json -- evaluate ...

``--probe send`` stamps the monotonic time of the first backend ``send``
of the oracle; ``--probe ingest`` stamps the return of the first
``dataset.ingest``.  Each probe restores the original after one call, so
the rest of the run is untouched.  ``--trace`` wraps every layer instead
(see spans.py) and writes the spans.  The probe file is written after
``hopkit.cli.main`` returns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _stamp_first(owner, attr: str, stamps: dict, key: str, on_return: bool):
    original = getattr(owner, attr)

    def probe(*args, **kwargs):
        if not on_return:
            stamps.setdefault(key, time.monotonic())
        try:
            return original(*args, **kwargs)
        finally:
            if on_return:
                stamps.setdefault(key, time.monotonic())
            setattr(owner, attr, original)

    setattr(owner, attr, probe)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", choices=["send", "ingest", "none"], default="none")
    parser.add_argument("--out-file", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("hopkit_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.hopkit_args[1:] if opts.hopkit_args[:1] == ["--"] else opts.hopkit_args

    from hopkit import cli, dataset, gateway

    out = Path(opts.out_file)
    if opts.trace:
        import spans

        tracer = spans.Tracer()
        rc = tracer.install()(argv)
        tracer.dump(out)
        return rc
    stamps: dict[str, float] = {}
    if opts.probe == "send":
        _stamp_first(gateway.OracleBackend, "send", stamps, "first_work", on_return=False)
    elif opts.probe == "ingest":
        _stamp_first(dataset, "ingest", stamps, "first_work", on_return=True)
    rc = cli.main(argv)
    out.write_text(json.dumps(stamps), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
