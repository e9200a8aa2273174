"""Builds the benchmark: compiles the repository's main sources together with
the bench's own sources with the Scala compiler that ships with Spark.

Usage: python3 table2bench/build.py   (from the repository root)

Output goes to .bench_build/classes; a stamp of the source digest makes a
second build with unchanged sources a no-op.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAIN_SRC = os.path.join(ROOT, "src", "main", "scala")
BENCH_SRC = os.path.join(HERE, "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD_DIR, "classes")


class BuildError(Exception):
    pass


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME/jars, else the one
    next to `spark-submit` on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home, "jars") if home else None
    if not jars or not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found (set JAVA_HOME)")
    return exe


def sources():
    main = sorted(glob.glob(os.path.join(MAIN_SRC, "**", "*.scala"), recursive=True))
    bench = sorted(glob.glob(os.path.join(BENCH_SRC, "**", "*.scala"), recursive=True))
    if not main:
        raise BuildError(f"no main sources under {os.path.relpath(MAIN_SRC, ROOT)}")
    return main, bench


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build():
    """Compiles if the sources changed; returns (classpath, source digest)."""
    jars = spark_jars()
    main, bench = sources()
    main_digest = digest(main)
    stamp = os.path.join(CLASSES, ".stamp")
    want = digest(main + bench)
    cp = CLASSES + os.pathsep + os.path.join(jars, "*")
    if os.path.exists(stamp) and open(stamp).read() == want:
        return cp, main_digest
    tmp = CLASSES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    compiler = os.pathsep.join(
        glob.glob(os.path.join(jars, f"scala-{name}-2.13*.jar"))[0]
        for name in ("compiler", "library", "reflect"))
    cmd = [java(), "-Xss8m", "-Xmx1g", "-cp", compiler, "scala.tools.nsc.Main",
           "-nowarn", "-d", tmp, "-classpath", os.path.join(jars, "*")] + main + bench
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with code {proc.returncode}")
    with open(os.path.join(tmp, ".stamp"), "w") as fh:
        fh.write(want)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.replace(tmp, CLASSES)
    return cp, main_digest


if __name__ == "__main__":
    try:
        print(build()[0])
    except BuildError as e:
        print(f"table2bench build: {e}", file=sys.stderr)
        sys.exit(2)
