import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs():
    # The benchmark's tracer looks up every traced name of the program with
    # getattr, so deleting or renaming one must fail here and not only in
    # traced benchmark runs. Its sampler layer reads sampling.UNRANK_LIMIT
    # only when a traced monte_carlo runs, so one runs on each side of it.
    # -B keeps the run from writing into perfbench/.
    script = (
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer, install, layer_metrics\n"
        "from strahler import sampling\n"
        "from strahler.observables import parse\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "for n in (48, 65):\n"
        "    sampling.monte_carlo(sampling.SampleConfig(n=n, trials=3, seed=1, f=parse('S1')))\n"
        "m = layer_metrics(tracer)\n"
        "assert m['sampling.monte_carlo.trees'] == 6, m\n"
        "assert m['sampling.unrank.ms_per_tree'] > 0, m\n"
        "assert m['sampling.growth.ms_per_tree'] > 0, m\n"
    )
    done = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True,
        timeout=120, cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
    )
    assert done.returncode == 0, done.stderr
