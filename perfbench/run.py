#!/usr/bin/env python3
"""Builds and runs the PASS benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nyc1d-sf1 --seed 1 --seconds 10 --trace 0

The first run compiles the program and the benchmark with sbt (about a
minute); later runs reuse the build while the sources are unchanged. The last
line of standard output is the result JSON; the full record and, for a traced
run, the spans are written under perfbench/out/.
"""
import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import threading

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
OUT = HERE / "out"
CLASSPATH = TARGET / "bench-classpath.txt"
STAMP = TARGET / "bench-stamp.txt"
MAIN = "repro.perfbench.Main"
QUERY_MAIN = "repro.perfbench.QueryMain"

# Spark on Java 17 needs these, as its own launcher passes them.
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]
# Steadier query timings: the parallel collector runs no threads beside the
# application between collections, and huge pages keep the synopsis's memory
# from landing on a different set of 4 KiB pages in every JVM, which split
# nyc1d-sf1's p50 into two levels across JVMs (about 69 and 85 us on 4 vCPUs).
JVM_OPTS = ["-Xmx3g", "-XX:+UseParallelGC", "-XX:+UseTransparentHugePages"]


# The child being waited on, and the signals received. The handler only
# signals the child: waiting on it there, while the main thread's wait holds
# the Popen's wait lock, would deadlock.
RUNNING = []
STOPPED = []


def stop(signum, _frame):
    STOPPED.append(signum)
    for p in RUNNING:
        p.terminate()
        killer = threading.Timer(20, p.kill)
        killer.daemon = True
        killer.start()


def run_child(cmd, capture=False, **kw):
    """Runs cmd to its end; returns its exit code and, if captured, its stdout.
    Exits at once, after the child has ended, if a signal stopped it."""
    child = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, text=True,
                             stdout=subprocess.PIPE if capture else None, **kw)
    RUNNING.append(child)
    if STOPPED:
        child.terminate()
    try:
        out, _ = child.communicate()
    finally:
        RUNNING.remove(child)
    if STOPPED:
        sys.exit(128 + STOPPED[0])
    return child.returncode, out


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file whose change must trigger a rebuild."""
    files = [ROOT / "build.sbt", HERE / "build.sbt"]
    for base in (ROOT / "project", HERE / "project"):
        files += sorted(base.glob("*.sbt")) + sorted(base.glob("*.properties"))
    for base in (ROOT / "src" / "main", HERE / "src"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def ensure_built(fp):
    """Compiles with sbt unless the stamp matches; returns the runtime classpath."""
    if STAMP.exists() and CLASSPATH.exists() and STAMP.read_text() == fp:
        return CLASSPATH.read_text()
    # keep sbt's lock and scratch files inside the checkout
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.boot.lock=false",
           f"-Dsbt.ivy.home={TARGET / 'ivy'}", f"-Djna.tmpdir={TARGET / 'jna'}",
           "compile", "export Runtime/fullClasspath"]
    code, out = run_child(cmd, capture=True, cwd=HERE, stderr=sys.stderr)
    sys.stderr.write(out)
    lines = [l.strip() for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in lines[-1]:
        fail(f"build failed (sbt exit {code})")
    TARGET.mkdir(parents=True, exist_ok=True)
    CLASSPATH.write_text(lines[-1])
    STAMP.write_text(fp)
    return lines[-1]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)

    if not (ROOT / "src" / "main" / "scala").is_dir() or not (ROOT / "build.sbt").is_file():
        fail(f"no program sources under {ROOT}; run from the root of a full checkout")
    fp = fingerprint()
    classpath = ensure_built(fp)

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    java = (["java"] + JVM_OPTS
            + [f"-Djava.io.tmpdir={tmp}", "-Dspark.driver.host=127.0.0.1"] + JAVA_MODULE_OPTS
            + ["-cp", classpath])
    handoff = tmp / "handoff.bin"
    build = java + [MAIN, "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace, "--handoff", str(handoff),
                    "--out", str(OUT), "--sha", git_sha(), "--source-hash", fp]
    try:
        # inputs, builds and answer checks; then query timing in a JVM of its own
        code, _ = run_child(build, cwd=ROOT, env=env)
        if code == 0:
            code, _ = run_child(java + [QUERY_MAIN, str(handoff)], cwd=ROOT, env=env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
