import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import qcmc
from qcmc import attacks
from qcmc.design import SystemParams, sample_h_random, sample_h_rdf
from qcmc.prng import SeedStream


@pytest.fixture(scope="session")
def toy_params():
    """Small but decodable: n0=2, p=256, d_v=5, m=3, t=2."""
    return SystemParams.make(2, 256, 5, 2, sigma_w=6)


@pytest.fixture(scope="session")
def toy_h(toy_params):
    return sample_h_random(toy_params, SeedStream(1, "toy-h"))


@pytest.fixture(scope="session")
def rdf_params():
    """4-cycle-free family at moderate size: n0=4, p=211, d_v=5."""
    return SystemParams.make(4, 211, 5, 1)


@pytest.fixture(scope="session")
def rdf_h(rdf_params):
    return sample_h_rdf(rdf_params, SeedStream(2, "rdf-h"))


@pytest.fixture(scope="session")
def mdpc_h():
    """The d_v = 85 MDPC code of the mc-mdpc benchmark workload."""
    return sample_h_random(SystemParams.make(4, 6272, 85, 68), SeedStream(0x8D, "mdpc"))


@pytest.fixture
def array_comb_calls(monkeypatch):
    """Calls of attacks._log2_comb with an array argument, recorded as they happen.

    A Stern grid that takes the masked path makes two such calls; one read from
    the lgamma table with no mask makes none.
    """
    calls, real = [], attacks._log2_comb

    def counting(a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            calls.append((np.shape(a), np.shape(b)))
        return real(a, b)

    monkeypatch.setattr(attacks, "_log2_comb", counting)
    return calls


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports the source tree this process imported.

    The absolute source root leads PYTHONPATH, so neither the child's working
    directory nor a relative PYTHONPATH entry decides which qcmc it loads.
    """
    src_root = str(Path(qcmc.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src_root, os.environ.get("PYTHONPATH"))))}


@pytest.fixture(scope="session")
def fresh_python(child_env):
    """Run code in a new interpreter on the source tree this process imported.

    Returns the lines the code printed.
    """
    def run(code: str) -> list[str]:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env, check=True, timeout=120).stdout.splitlines()
    return run
