"""CUDA driver API substrate (the ``libcuda.so`` analogue).

Guardian interposes the CUDA *runtime and driver library level* — the
lowest public interfaces (paper §4.1, Fig. 4). This package implements
that driver level for the simulator:

- :mod:`repro.driver.fatbin` — fatBIN containers holding PTX and cuBIN
  entries per the paper's Table 1, plus the ``cuobjdump`` extraction
  tool the offline patcher uses;
- :mod:`repro.driver.jit` — the PTX just-in-time compiler
  (parse → validate → register-allocate → decode), run once per
  distinct text: the result is a shared module image, a load binds it;
- :mod:`repro.driver.module` — ``CUmodule``/``CUfunction`` handles;
- :mod:`repro.driver.api` — the ``cu*`` call surface bound to one
  simulated device.
"""

from repro.driver.api import DriverAPI
from repro.driver.fatbin import FatBinary, FatbinEntry, cuobjdump
from repro.driver.module import CUfunction, CUmodule

__all__ = [
    "CUfunction",
    "CUmodule",
    "DriverAPI",
    "FatBinary",
    "FatbinEntry",
    "cuobjdump",
]
