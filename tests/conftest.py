import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import qcmc
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


@pytest.fixture(scope="session")
def fresh_python():
    """Run code in a new interpreter on the source tree this process imported.

    Returns the lines the code printed.
    """
    src_root = str(Path(qcmc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src_root, os.environ.get("PYTHONPATH"))))}

    def run(code: str) -> list[str]:
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=120).stdout.splitlines()
    return run
