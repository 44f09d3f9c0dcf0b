"""Reference HTTP server for the service workloads' speed scaling.

Usage: ``python3 perfbench/refserver.py`` prints its port, then answers
every request with the same small JSON body until SIGINT.

It is the standard library's threaded WSGI server with no program code
behind it, so the time a client takes to get its answer is what this
machine charges right now for one HTTP request: a connection, a server
thread and the wake-ups between the two processes.
"""

from __future__ import annotations

import json
from socketserver import ThreadingMixIn
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

BODY = json.dumps({"ok": True, "pad": "x" * 512}).encode()


class _Server(ThreadingMixIn, WSGIServer):
    daemon_threads = True


class _Quiet(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002
        pass


def _app(environ, start_response):
    start_response("200 OK", [("Content-Type", "application/json"),
                              ("Content-Length", str(len(BODY)))])
    return [BODY]


def main() -> int:
    server = make_server("127.0.0.1", 0, _app, server_class=_Server, handler_class=_Quiet)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
