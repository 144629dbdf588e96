"""Child process of the traced run: one ``tl2b`` command with spans.

    python3 perfbench/traced_cli.py SPANS_FILE INVOCATION_ID -- ARGS...

installs the tracer, runs ``tl2b.cli.main(ARGS)`` so that the report goes to
standard output exactly as from the ``tl2b`` command, and writes the spans
to SPANS_FILE when the command ends, whether or not it succeeded.
"""

from __future__ import annotations

import sys

from tracer import Tracer, install


def main() -> int:
    spans_file, invocation, separator, *args = sys.argv[1:]
    if separator != "--":
        raise SystemExit(__doc__)
    tracer = Tracer(invocation)
    install(tracer)
    import tl2b.cli

    try:
        return tl2b.cli.main(args)
    finally:
        tracer.write(spans_file)


if __name__ == "__main__":
    sys.exit(main())
