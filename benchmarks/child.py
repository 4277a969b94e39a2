"""Run one seqrank CLI command from a checkout that has not been installed.

    python3 benchmarks/child.py -- <seqrank arguments>
    python3 benchmarks/child.py --trace SPANS RUN_ID SPAWNED -- <seqrank arguments>

The first form is what the `seqrank` console script does. The second
installs the span recorder (tracing.py) before calling `cli.main` and
writes the spans to SPANS when the command ends. SPAWNED is the parent's
time.perf_counter() just before it started this process; on Linux that
clock is system-wide, so main entry minus SPAWNED is the start-up time.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    if not opts:
        from seqrank import cli
        return cli.main(cli_args)
    if len(opts) != 4 or opts[0] != "--trace":
        raise SystemExit("usage: child.py [--trace SPANS RUN_ID SPAWNED] -- ARGS")
    spans_path, run_id, spawned = opts[1], opts[2], float(opts[3])
    import tracing
    from seqrank import cli
    tracer = tracing.Tracer(run_id)
    wrapped = tracing.install(tracer)
    entered = time.perf_counter()
    code = cli.main(cli_args)
    tracer.write(spans_path, {"argv": cli_args, "exit": code,
                              "startup_s": entered - spawned,
                              "wrapped": wrapped})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
