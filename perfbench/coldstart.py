"""One cold start of the program, timed inside a fresh interpreter.

    python3 perfbench/coldstart.py serve
    python3 perfbench/coldstart.py bulk <tiny wire buffer, hex>

``serve`` imports ``repro``, builds a ``ServerApp`` with two pool workers,
warms the pool and answers one tiny ``/v1/solve``; ``bulk`` imports
``repro`` and answers one tiny ``solve()``.  Prints ``{"setup_s": ...}``;
the caller rescales it by the reference loop run around this process.
"""

import json
import sys
import time


def main() -> None:
    mode = sys.argv[1]
    started = time.perf_counter()
    if mode == "serve":
        import asyncio

        from repro.server.app import ServerApp
        from repro.server.logging_config import configure_logging
        from repro.server.settings import Settings
        settings = Settings(jobs=2, log_level="ERROR")
        configure_logging(settings)
        app = ServerApp(settings)
        app.pool.warm_up()
        body = json.dumps({"problem": "(0 * (1 + 2))", "task": "path_cover",
                           "options": {"backend": "fast"}}).encode()
        response = asyncio.run(app.dispatch("POST", "/v1/solve", body))
        ready = time.perf_counter()
        app.close()
        if response.status != 200:
            raise SystemExit(f"warm-up request failed: {response.status}")
    else:
        from repro.api import solve
        solve(bytes.fromhex(sys.argv[2]), "path_cover", backend="fast")
        ready = time.perf_counter()
    print(json.dumps({"setup_s": ready - started}))


if __name__ == "__main__":
    main()
