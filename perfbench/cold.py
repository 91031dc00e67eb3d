"""One set-up sample: a cold `import suparg` plus one trivial invocation of
each command a workload uses, timed inside a fresh interpreter.

    python3 perfbench/cold.py SRC WORK WORKLOAD

prints the elapsed seconds.  WORK must hold tiny-cover.txt (an open
interval around [0, 1]) and tiny-clopen.txt ([0, 1] itself); the
certificates are written next to them.
"""

import contextlib
import io
import sys
import time


def main() -> None:
    src, work, workload = sys.argv[1:4]
    sink = io.StringIO()
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from suparg.cli import run

    if workload == "cover-chain":
        producers = [["cover", "--file", f"{work}/tiny-cover.txt", "--a", "0", "--b", "1"],
                     ["clopen", "--file", f"{work}/tiny-clopen.txt", "--a", "0", "--b", "1"]]
    else:
        producers = [["prove", "bvt", "--fn", "x", "--a", "0", "--b", "1"]]
    codes = []
    for i, argv in enumerate(producers):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
            codes.append(run(argv + ["--format", "json"]))
        path = f"{work}/tiny-{i}.json"
        with open(path, "w") as handle:
            handle.write(out.getvalue())
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            codes.append(run(["check", path, "--format", "json"]))
    elapsed = time.perf_counter() - t0
    if any(codes):
        sys.exit(f"trivial invocations exited {codes}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
