"""A trivial HTTP server: the transport half of the ``http_hits`` probe.

    python3 -m harness.probe_server

Answers every POST with a fixed JSON body, over HTTP/1.0 with one
thread per connection, the way ``repro serve --workers 1`` carries a
request. It prints ``port N`` once it listens and serves until
interrupted. It is benchmark code: no change to the program moves it,
so the time of a request to it follows only the machine.
"""

import http.server
import sys

BODY = b'{"predicted_us": 1234.5678, "cached": true}'


class Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, *args) -> None:
        pass


def main() -> int:
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
