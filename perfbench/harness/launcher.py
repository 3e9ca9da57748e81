"""Run the ``repro`` CLI with the benchmark's layer wrappers installed.

    python3 -m harness.launcher SPANS_FILE serve --models DIR --port 0

The traced ``http_hits`` run starts the server through this launcher.
It installs the same wrappers as the in-process traced runs, then hands
the remaining arguments to the CLI entry point; the spans are written to
``SPANS_FILE`` when the CLI returns (``repro serve`` returns on SIGINT).
"""

import sys

from harness.tracing import SpanRecorder, install


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = install(SpanRecorder())
    from repro.cli import main as cli_main
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
