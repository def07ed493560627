"""Start ``repro-vliw`` in a child process, optionally with layer spans.

    python -m perfbench.launcher [--spans FILE] [--trace-id ID] -- ARGS...

Times ``import repro.cli`` (the import every CLI call and spawned worker
pays), installs the benchmark's layer wrappers when ``--spans`` is given,
runs ``repro.cli.main(ARGS)`` and, when it returns, exits or is
interrupted, writes the import time and every recorded span to FILE.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--trace-id", default=None)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.monotonic()
    import repro.cli

    import_s = time.monotonic() - t0
    rec = None
    if args.spans:
        from perfbench.tracing import Recorder, install

        rec = Recorder(trace_id=args.trace_id)
        install(rec)
    code = 0
    try:
        repro.cli.main(argv)
    except KeyboardInterrupt:
        code = 130
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        if rec is not None:
            # The parent's SIGINT stops the command; it must not also cut
            # the span file short.
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            with open(args.spans, "w") as fh:
                json.dump({"import_s": import_s, "spans": rec.export()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
