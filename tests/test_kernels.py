"""The CSV bytes of the numeric commands do not depend on the BLAS or SIMD kernel.

The default `evolve`, the default `fig4`, and numeric `protocol` and
`optimize-q` at unequal rates are run in one fresh process per setting:
OpenBLAS forced to its Haswell, Prescott or Sandybridge kernels, the last
with numpy's AVX-512 dispatch off as well.  Their CSV files are compared byte
for byte with a run whose environment names no kernel, so a test process
that sets these variables itself still compares like with like.  The
variables act only on numpy built on OpenBLAS; elsewhere the test is skipped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qstsim

_RATES = [
    "--kappa-over-g", "0.3", "--gamma1-over-g", "0.2", "--gamma2-over-g", "0.25", "--gamma-phi-over-g", "0.05",
]
ARGVS = {
    "evolve": ["evolve"],
    "fig4": ["fig4"],
    "protocol": ["protocol", "--engine", "numeric", "--q-rule", "optimal", "--p", "0.2", *_RATES],
    "optimize-q": ["optimize-q", "--engine", "numeric", "--p", "0.5", *_RATES],
}
KERNELS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "sandybridge-no-avx512": {
        "OPENBLAS_CORETYPE": "Sandybridge",
        "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    },
}
_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
_RUN = (
    "import json, sys, qstsim.cli\n"
    "out, argvs = sys.argv[1], json.loads(sys.argv[2])\n"
    "for name, argv in argvs.items():\n"
    "    assert qstsim.cli.main([*argv, '--formats', 'csv', '--output-dir', f'{out}/{name}']) == 0, argv\n"
)


def _on_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 cannot report its build
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _csv_bytes(out: Path, kernel: dict) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in _VARIABLES}
    env.update(kernel, PYTHONPATH=str(Path(qstsim.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c", _RUN, str(out), json.dumps(ARGVS)], env=env, capture_output=True, check=True
    )
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.glob("*/*.csv"))}


@pytest.mark.skipif(not _on_openblas(), reason="the kernel variables act only on OpenBLAS")
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="FOUND in CHANGES.md: the CSV bytes of the numeric commands depend on the OpenBLAS kernel",
)
def test_numeric_csv_bytes_do_not_depend_on_the_kernel(tmp_path):
    reference = _csv_bytes(tmp_path / "default", {})
    assert len(reference) == 5
    differ = [
        (kernel, name)
        for kernel, variables in KERNELS.items()
        for name, content in _csv_bytes(tmp_path / kernel, variables).items()
        if content != reference[name]
    ]
    assert differ == []
