"""Cold-start import hygiene: the program loads neither scipy nor numpy.

Every pool worker and ``repro worker serve`` agent pays the package's
import time, so heavy optional dependencies must stay out of the
import graph; scipy is imported only where a confidence interval needs
an exact Student-t quantile (see ``repro.sim.stats._t_quantile``).
"""

import json
import os
import subprocess
import sys

import repro

#: The entry points a fresh interpreter imports: the library, the CLI,
#: and the dispatch worker agent.
ENTRY_MODULES = ("repro", "repro.cli", "repro.experiments.dispatch.worker")


def test_entry_points_load_neither_scipy_nor_numpy():
    code = (
        "import json, sys\n"
        + "".join(f"import {module}\n" for module in ENTRY_MODULES)
        + "print(json.dumps(sorted({name.split('.')[0] for name in "
        "sys.modules} & {'scipy', 'numpy'})))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(completed.stdout) == []
