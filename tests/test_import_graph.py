"""What a ``hammid`` process loads before it does any work.

Every command is a fresh process, so its imports are paid on each step of
the workflow.  ``scipy.signal`` and ``scipy.ndimage`` cost most of that
and the package needs neither: the filters and the median filter are
written with numpy and ``scipy.linalg``.  The check reads ``sys.modules``
of a new interpreter, so it holds whatever the machine's speed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_neither_scipy_signal_nor_ndimage():
    code = (
        "import json, sys\n"
        "import hammid, hammid.cli\n"
        "print(json.dumps({'file': hammid.__file__, 'modules': sorted(sys.modules)}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert Path(loaded["file"]).resolve().parent == SRC / "hammid"
    modules = set(loaded["modules"])
    assert "scipy.linalg" in modules
    for name in ("scipy.signal", "scipy.ndimage"):
        assert not any(m == name or m.startswith(name + ".") for m in modules), name
