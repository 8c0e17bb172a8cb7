"""Runs one ``expwell`` command with the layer spans of :mod:`layers` on.

Usage: ``python perfbench/cli_child.py <case id> <expwell arguments>``.
The command's stdout is untouched; the spans go to stderr as one line
starting with ``layers.SPANS_MARKER`` when the command exits.
"""

import json
import sys

import layers

if __name__ == "__main__":
    tracer = layers.Tracer()
    tracer.start_case(int(sys.argv[1]))
    layers.install(tracer)
    from expwell.cli import main
    try:
        main(args=sys.argv[2:], prog_name="expwell")
    finally:
        sys.stderr.write("\n" + layers.SPANS_MARKER + json.dumps(tracer.spans) + "\n")
