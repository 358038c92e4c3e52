#!/usr/bin/env python3
"""Build and run the CoolAir benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The harness (perfbench/src) and the
library it drives are built from source with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs only
re-check the build.  Build output goes to stderr; stdout carries the
harness's notes and, as its last line, the JSON result.  Exits non-zero
when the build fails, the run fails an output check, or it overruns.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench-release"
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "coolair_perfbench"],
                   check=True, stdout=sys.stderr)
    return build_dir / "coolair_perfbench"


def main() -> int:
    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Relative to the checkout root (the run's cwd), so the serve
    # workload's Unix socket path stays short.
    work_dir = Path(os.path.relpath(build_root / f"run-{os.getpid()}", ROOT))
    cmd = [str(binary), *sys.argv[1:], "--work-dir", str(work_dir),
           "--digests", str(HERE / "reference" / "year_oracle.digests")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        # Keep the traced runs' Chrome traces; drop everything else.
        for trace in (ROOT / work_dir).glob("trace-*.json"):
            trace.replace(build_root / trace.name)
        shutil.rmtree(ROOT / work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
