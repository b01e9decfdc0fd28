"""A serving process never loads scipy: the library needs numpy alone.

scipy is a test-side oracle (``requirements-dev.txt``), not a dependency
(``pyproject.toml``). A fresh interpreter with every scipy import made to
fail commissions a site, runs one LoLi-IR update, and answers a query over
``tcp://``; afterwards no scipy module is loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

PROBE = """\
import sys
sys.modules["scipy"] = None  # every `import scipy...` now raises ImportError
import numpy as np
from repro.serve import AioFrontend, LocalizationService, ServiceClient
from repro.sim.collector import CollectionProtocol

protocol = CollectionProtocol(samples_per_cell=2, empty_room_samples=5)
service = LocalizationService.from_specs({"hq": "paper"}, protocol=protocol, seed=3)
service.commission("hq", 0.0)
report = service.update("hq", 30.0)
sweeps = report.reconstruction.solver_result.iterations
rss = service.pipeline("hq").collector.live_trace(30.0, [17]).rss[0]
with AioFrontend(service) as frontend:
    client = ServiceClient(frontend.address)
    try:
        answer = client.query("hq", rss, 30.0)
    finally:
        client.close()
same = answer.cell == service.query("hq", rss, 30.0).cell
loaded = sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
print("probe:", frontend.address.split(":")[0], sweeps > 0, same, loaded)
"""


def test_a_serving_process_never_loads_scipy():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}:{existing}" if existing else src
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "probe: tcp True True []" in proc.stdout, proc.stdout + proc.stderr
