"""Every entry point imports without scipy.

``scipy.stats`` takes most of a second to import and only the paper's
Wilcoxon test (Sec. IV-D) uses it, so :mod:`repro.eval.significance`
imports it on that call. A fresh interpreter checks both halves: the
imports load no ``scipy`` module, and the first Wilcoxon call still
gives the exact one-sided p-value.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

_PROBE = """
import json, sys
import repro, repro.cli, repro.serve
on_import = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from repro.eval import wilcoxon_improvement
report = wilcoxon_improvement([0.01, 0.02, -0.03, 0.04, 0.05, 0.06], [0.0] * 6)
print(json.dumps({"on_import": on_import, "p_value": report["p_value"],
                  "stats_loaded": "scipy.stats" in sys.modules}))
"""


def test_entry_points_import_without_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["on_import"] == []
    # Signed ranks 1, 2, -3, 4, 5, 6: W+ = 18, and 5 of the 64 sign
    # patterns reach W+ >= 18, so the exact one-sided p is 5/64.
    assert result["p_value"] == 5 / 64
    assert result["stats_loaded"]
