"""``repro serve`` with the layer wrappers installed, for the traced run.

Usage: ``python serve_traced.py OUT.json serve --port 0 ...``

Installs :data:`layers.SERVER_LAYERS` inside this server process, then
runs ``repro.cli.main(["serve", ...])`` unchanged.  Requests are booked
per verb between the first and the second ``ping`` the load generator
sends, which bracket its timed loop.  The totals are written to
``OUT.json`` when the server drains and exits.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import SERVER_LAYERS, LayerClock  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    clock = LayerClock()
    clock.recording = False
    clock.install(SERVER_LAYERS)

    from repro.server.dispatch import ServerConnection
    handle_line = ServerConnection.handle_line
    handle_frame = ServerConnection.handle_frame

    def traced_handle_line(self, line, arrival=None):
        clock.begin(None, "dispatch")
        try:
            return handle_line(self, line, arrival)
        finally:
            clock.end()

    def traced_handle_frame(self, frame, arrival=None):
        verb = frame.get("verb")
        if verb == "ping":
            if not clock.recording:
                clock.reset()
            clock.recording = not clock.recording
        clock.set_verb(verb)
        return handle_frame(self, frame, arrival)

    ServerConnection.handle_line = traced_handle_line
    ServerConnection.handle_frame = traced_handle_frame

    from repro import cli
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w") as handle:
            json.dump(clock.to_json(), handle)


if __name__ == "__main__":
    sys.exit(main())
