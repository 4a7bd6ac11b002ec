"""Run `unitlat <args>` under the span recorder and save the spans.

    python3 perfbench/traced_cli.py SPANS_JSON recover --cyclotomic 13 ...

The CLI's own output and exit code pass through unchanged; the spans,
counters and gauges go to SPANS_JSON. Expects unitlat on PYTHONPATH.
"""

import json
import sys

from tracer import Tracer


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import unitlat.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.root(0, cli.main, cli_args)
    finally:
        tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump(
            {"spans": tracer.spans, "counters": tracer.counters, "gauges": tracer.gauges}, fh
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
