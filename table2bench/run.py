"""Table-2 benchmark entry point.

Usage (from the repository root):
  python3 table2bench/run.py --workload gk|closure --seed N \
      --seconds T --trace 0|1

Builds the program from source on first use (see build.py), then runs one
workload in one JVM on Spark local[min(4, cores) - 1]. Stdout carries the metric
lines, the check results and, as its last line, the JSON result. Each run's
configuration and per-fit rows are also written to
.bench_build/records/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

RUN_TIMEOUT_S = 175
HEAP = "2g"


def commit():
    try:
        # The ceiling stops git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(build.ROOT))
        out = subprocess.run(["git", "-C", build.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["gk", "closure"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    try:
        cp, digest = build.build()
    except (build.BuildError, subprocess.SubprocessError) as e:
        print(f"table2bench: build failed: {e}", file=sys.stderr)
        return 2

    tmp = os.path.join(build.BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    record = os.path.join(build.BUILD_DIR, "records",
                          f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    local = os.path.join(build.BUILD_DIR, "spark-local")
    cmd = [build.java(), f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
           "-XX:-UseDynamicNumberOfCompilerThreads", f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
           "-Dspark.driver.host=127.0.0.1",
           "-Dspark.local.dir=" + local,
           "-Dspark.sql.warehouse.dir=" + os.path.join(build.BUILD_DIR, "spark-warehouse"),
           "-cp", cp, "table2bench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--commit", commit(),
           "--source-digest", digest, "--record", record]
    # Spark reads its scratch dirs from the environment first; keep them in the checkout.
    env = dict(os.environ, SPARK_LOCAL_DIRS=local)
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"table2bench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
