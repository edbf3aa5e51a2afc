"""The benchmark's span recorder binds to names in ``src/``: they must resolve.

``perfbench/tracing.py`` wraps each function or method of its ``TRACED``
list where it is defined (a method must sit in its own class's
``__dict__``) and installs its wire counters on ``repro.harness
.distributed``.  A refactor that moves one of them fails here, in tier-1,
not only in the benchmark's own CI job.  The test only reads ``perfbench/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_tracer_installs_on_every_traced_name():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench')\n"
         "from tracing import Tracer, install\n"
         "install(Tracer())"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
