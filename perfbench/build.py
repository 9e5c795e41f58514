"""Build file of the benchmark.

Compiles the repository's main sources together with the benchmark's own
sources into `.bench_build/perfbench/classes` at the repository root, with
the Scala compiler of the Spark distribution named by `SPARK_HOME` (the same
jars the repository's sbt build compiles against). A stamp of the sources'
digest skips the compile when nothing changed.

    python3 perfbench/build.py        # build, print the runtime class path
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [
    ROOT / "src" / "main" / "scala",
    BENCH / "src" / "main" / "scala",
    BENCH / "src" / "test" / "scala",
]
SCALA_VERSION = "2.13.17"


class BuildError(RuntimeError):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("SPARK_HOME must name a Spark distribution with a jars/ directory")
    return Path(home) / "jars"


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise BuildError("missing source directories: " + ", ".join(map(str, missing)))
    return sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))


def digest(files: list) -> str:
    h = hashlib.sha256(Path(__file__).read_bytes())
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def runtime_classpath() -> str:
    jars = spark_jars()
    libs = [jars / f"scala-library-{SCALA_VERSION}.jar", jars / f"scala-reflect-{SCALA_VERSION}.jar"]
    for lib in libs:
        if not lib.is_file():
            raise BuildError(f"missing {lib.name} in {jars}")
    return os.pathsep.join([str(OUT / "classes")] + [str(lib) for lib in libs])


def build() -> str:
    """Compiles if the sources changed; returns the runtime class path."""
    files = sources()
    stamp = OUT / "stamp"
    want = digest(files)
    if not (stamp.is_file() and stamp.read_text() == want and (OUT / "classes").is_dir()):
        tmp = OUT / "classes.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx2g",
               "-cp", str(spark_jars() / "*"), "scala.tools.nsc.Main",
               "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in files]
        print(f"building {len(files)} Scala sources", file=sys.stderr, flush=True)
        done = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BuildError(f"scalac exited with code {done.returncode}")
        shutil.rmtree(OUT / "classes", ignore_errors=True)
        tmp.rename(OUT / "classes")
        stamp.write_text(want)
    return runtime_classpath()


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"build failed: {e}")
