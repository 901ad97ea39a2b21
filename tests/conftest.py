"""Shared fixtures and helpers for the test suite."""

import json
import math

import pytest
from hypothesis import settings

from intermittent_pursuit import EvaderAction, GameConfig, PayoffSpec, PursuerAction, Vec2

# Property tests draw the same examples on every run and keep no example
# database, so a Tier-1 result depends on the code alone; some examples
# play dozens of games, hence no per-example deadline.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def make_config(
    nu: float = 0.7,
    r_cap: float = 0.1,
    rho0: float = 1.0,
    t_f: float = 5.0,
    n: int = 2,
    kind: str = "hinge",
    seed: int = 0,
) -> GameConfig:
    """Standard head-to-head layout: pursuer at origin, evader on +x axis."""
    return GameConfig(
        nu=nu,
        r_cap=r_cap,
        x_p0=Vec2(0.0, 0.0),
        x_e0=Vec2(rho0, 0.0),
        t_f=t_f,
        n=n,
        phi=PayoffSpec(kind=kind, r_cap=r_cap),
        seed=seed,
    )


class CrookedHeading:
    """Malformed pursuer: a velocity of norm 2, above the cap 1, or the one given."""

    def __init__(self, heading: Vec2 = Vec2(2.0, 0.0)):
        self.heading = heading

    def act(self, info):
        return PursuerAction(self.heading)


class Speeder:
    """Malformed evader: speed 1, above every admissible cap nu < 1, or the velocity given."""

    def __init__(self, velocity: Vec2 = Vec2(1.0, 0.0)):
        self.velocity = velocity

    def act(self, info):
        return EvaderAction(self.velocity)


@pytest.fixture
def wait_region_config() -> GameConfig:
    # rho=1, tau=5, ell=2 at nu=0.7 sits strictly inside the wait region
    return make_config()


@pytest.fixture
def config_json(tmp_path):
    """Writes a config dict to a temp JSON file, returns the path as str."""

    def _write(payload: dict, name: str = "game.json") -> str:
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def default_config_payload(**overrides) -> dict:
    payload = {
        "nu": 0.7,
        "r_cap": 0.1,
        "x_p0": [0.0, 0.0],
        "x_e0": [1.0, 0.0],
        "t_f": 5.0,
        "n": 2,
        "phi": {"kind": "hinge"},
        "seed": 42,
    }
    payload.update(overrides)
    return payload


def textbook_contraction(nu: float) -> float:
    """The contraction factor in its literal textbook form, a reference for the package's.

    1 - [nu(1-nu)sqrt(1-nu^2) - (1-nu)(1-nu^2)] / (2nu^2 - 1): 0/0 at the
    removable singularity nu = 1/sqrt(2), and useless near it.
    """
    root = math.sqrt(1.0 - nu * nu)
    numerator = nu * (1.0 - nu) * root - (1.0 - nu) * (1.0 - nu * nu)
    return 1.0 - numerator / (2.0 * nu * nu - 1.0)
