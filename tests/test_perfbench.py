import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # The benchmark's tracer looks up every traced name of the program with
    # getattr, so deleting or renaming one must fail here and not only in
    # traced benchmark runs. -B keeps the run from writing into perfbench/.
    script = (
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer, install\n"
        "install(Tracer())\n"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True,
        timeout=120, cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
    )
    assert done.returncode == 0, done.stderr
