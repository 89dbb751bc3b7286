import contextlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dsse import load_feeder, solve_power_flow
from dsse.fixtures import fixture_path
from dsse.measurements import measurement_function, row_sigmas
from dsse.network import read_npz, write_npz


@pytest.fixture(scope="session")
def six_bus():
    return load_feeder(fixture_path("six_bus"))


@pytest.fixture(scope="session")
def thirteen_bus():
    return load_feeder(fixture_path("thirteen_bus"))


@pytest.fixture(scope="session")
def six_bus_pf(six_bus):
    return solve_power_flow(six_bus)


@pytest.fixture(scope="session")
def thirteen_bus_pf(thirteen_bus):
    return solve_power_flow(thirteen_bus)


def two_bus_doc(r=1.0, x=0.0, p=100_000.0, q=0.0, v=2400.0):
    return {
        "buses": [
            {"id": 1, "phases": "A", "kind": "source", "base_voltage_v": v},
            {"id": 2, "phases": "A", "kind": "load", "base_voltage_v": v},
        ],
        "branches": [
            {"from": 1, "to": 2, "phases": "A", "impedance": [[[r, x]]]},
        ],
        "loads": [{"bus": 2, "power": {"A": [p, q]}}],
    }


@contextlib.contextmanager
def forged_npz(src, dst=None):
    """Yield the (meta, arrays) of the ``write_npz`` archive ``src`` for the ``with`` body
    to edit in place, then write them to ``dst`` (``src`` if None)."""
    meta, arrays = read_npz(src)
    yield meta, arrays
    write_npz(src if dst is None else dst, meta, arrays)


def noiseless(template, x_true, model):
    """``template`` realized at ``x_true`` without noise: values h(x_true) and the class
    variances ``synthesize`` draws its noise with (R stays positive definite)."""
    h = measurement_function(model, x_true, template)
    return template.with_values(h, row_sigmas(model, template, h) ** 2)
