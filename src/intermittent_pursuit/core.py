"""Geometric primitives, configuration, and payoff functions for the pursuit game.

The game is stated, as in the paper, in the unit-speed frame: the pursuer's
top speed is 1, the evader's is ``nu`` with 0 < nu < 1, and capture occurs as
soon as the players come within ``r_cap`` of each other.

All types here are immutable values.  Validity is checked where a value
enters the game (``GameConfig`` here, each strategy action in the engine),
not inside every vector operation.

Tolerances.  The paper's equilibrium claims are equalities, which the
package checks in floating point, so "equal" means "equal up to rounding"
(Goldberg, *What every computer scientist should know about floating-point
arithmetic*, 1991).  Every tolerance in the package is one of three constants:

* ``TIME_EPS``, absolute: two event times closer than this are one instant.
  Game clocks start at 0, and it only has to stop a zero-length event.
* ``ROUND_TOL``, relative to ``max(1, |x|)`` or to the operands: the rounding
  noise of one closed-form evaluation, which grows with its magnitude.
* ``CHECK_TOL``: error built up over a played game, absolute on lengths and
  unit headings, relative where a site scales it; each report's tolerance.

``before`` and ``exceeds`` are the two recurring ``ROUND_TOL`` comparisons.

Input rules.  Every range check on a value from outside the package (a
config, a closed-form argument, a strategy parameter, a suite size, a CLI
flag) is one of six private checks, each written once below.  Each returns
the value and raises ``ValueError`` naming the key or flag it was given:

* ``_in_unit``: a number strictly inside (0, 1), which is ``nu``;
* ``_positive``: a positive, finite number (``r_cap``, a step, an interval);
* ``_nonnegative``: a nonnegative, finite number (a horizon, a separation);
* ``_index``: a nonnegative ``int`` (a budget, a trial index, a length);
* ``_count``: a positive ``int`` (how many trials, scenarios or draws);
* ``_seed``: an ``int`` in [0, 2**64).

The first three take only an ``int`` or a ``float`` and reject NaN; to the
last three a ``bool`` is not an ``int``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DegenerateDirectionError",
    "BudgetViolationError",
    "EnumerationCapError",
    "RegionNotCoveredError",
    "Vec2",
    "PAYOFF_KINDS",
    "PayoffSpec",
    "GameConfig",
    "line_of_sight",
    "perpendicular",
    "fmt_g",
    "TIME_EPS",
    "ROUND_TOL",
    "CHECK_TOL",
]

TIME_EPS = 1e-15
ROUND_TOL = 1e-12
CHECK_TOL = 1e-9


def before(t: float, target: float) -> bool:
    """True when time ``t`` falls short of ``target`` by more than rounding noise."""
    return t < target - ROUND_TOL * max(1.0, target)


def exceeds(x: float, limit: float) -> bool:
    """True when ``x`` is above ``limit`` by more than rounding noise; NaN exceeds."""
    return not x <= limit * (1.0 + ROUND_TOL)


def _in_unit(value, key: str):
    if isinstance(value, (int, float)) and 0.0 < value < 1.0:
        return value
    raise ValueError(f"{key} must lie strictly in (0, 1), got {value!r}")


def _positive(value, key: str):
    if isinstance(value, (int, float)) and 0.0 < value < math.inf:
        return value
    raise ValueError(f"{key} must be positive and finite, got {value!r}")


def _nonnegative(value, key: str):
    if isinstance(value, (int, float)) and 0.0 <= value < math.inf:
        return value
    raise ValueError(f"{key} must be nonnegative and finite, got {value!r}")


def _index(value, key: str) -> int:
    if type(value) is int and value >= 0:
        return value
    raise ValueError(f"{key} must be a nonnegative integer, got {value!r}")


def _count(value, key: str) -> int:
    if type(value) is int and value > 0:
        return value
    raise ValueError(f"{key} must be positive, got {value!r}")


def _seed(value, key: str) -> int:
    if type(value) is int and 0 <= value < 2**64:
        return value
    raise ValueError(f"{key} must be an integer in [0, 2**64), got {value!r}")


def fmt_g(value: float) -> str:
    """Compact 9-significant-digit rendering used by all emitters."""
    return format(float(value), ".9g")


def _fmt_cells(values) -> list[str]:
    """``fmt_g`` of each element of a float array, flattened, each distinct value formatted once.

    Values are keyed by bit pattern, so ``-0.0`` stays apart from ``0.0`` and
    each NaN payload is formatted on its own, exactly as ``fmt_g`` would.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    texts = np.fromiter(map(fmt_g, bits.view(np.float64)), dtype=object, count=bits.size)
    return texts[inverse].tolist()


_CSV_BLOCK = 1024  # lines per write: few calls, and a block's text stays small next to the rows


def write_csv(path, header, rows) -> int:
    """Write the header and rows as comma-joined, CRLF-ended lines; return the row count.

    No field is quoted.  Every field the package writes (a ``fmt_g`` number,
    a case tag, ``true``/``false``, an integer or an empty cell) is one that
    ``csv.writer`` leaves unquoted too, so the bytes are the same.  Lines are
    written in joined blocks of ``_CSV_BLOCK``.
    """
    count = 0
    lines = map(",".join, rows)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        while block := list(itertools.islice(lines, _CSV_BLOCK)):
            handle.write("\r\n".join(block) + "\r\n")
            count += len(block)
    return count


class DegenerateDirectionError(ValueError):
    """A direction was requested between coincident points."""


class BudgetViolationError(RuntimeError):
    """A pursuer strategy tried to sense with no sensing budget left."""


class EnumerationCapError(ValueError):
    """Too many prefix-tree leaves to simulate, or branches to expand."""


class RegionNotCoveredError(ValueError):
    """A closed-form result was queried outside its region of validity."""


_new = tuple.__new__  # builds a Vec2 from a float pair without the generated __new__


class Vec2(NamedTuple):
    """Immutable planar vector of float components; it checks nothing (see above).

    A tuple: ``x, y = v`` unpacks it and it equals the plain tuple ``(x, y)``,
    but ``+``, ``-`` and ``*`` act on it as a vector.  ``__array_ufunc__`` is
    None so that numpy leaves ``np.float64(k) * v`` to ``__rmul__`` instead of
    reading ``v`` as an array.
    """

    x: float
    y: float

    __array_ufunc__ = None

    def __add__(self, other: "Vec2") -> "Vec2":
        return _new(Vec2, (self.x + other.x, self.y + other.y))

    def __sub__(self, other: "Vec2") -> "Vec2":
        return _new(Vec2, (self.x - other.x, self.y - other.y))

    def __mul__(self, k: float) -> "Vec2":
        return _new(Vec2, (self.x * k, self.y * k))

    __rmul__ = __mul__

    def __neg__(self) -> "Vec2":
        return _new(Vec2, (-self.x, -self.y))

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Vec2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


PAYOFF_KINDS = ("hinge", "quadratic-above-capture")


@dataclass(frozen=True, slots=True)
class PayoffSpec:
    """Terminal payoff as a function of the final inter-player distance.

    Both kinds vanish on [0, r_cap] and are convex and non-decreasing above
    it: ``hinge`` is max(x - r_cap, 0) and ``quadratic-above-capture`` is its
    square.  The payoff is what the evader maximizes and the pursuer
    minimizes; capture forces it to 0.
    """

    kind: str
    r_cap: float

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}; expected one of {PAYOFF_KINDS}")
        object.__setattr__(self, "r_cap", _positive(float(self.r_cap), "r_cap"))

    def evaluate(self, distance: float) -> float:
        if distance < 0:
            raise ValueError(f"distance must be nonnegative, got {distance}")
        excess = max(distance - self.r_cap, 0.0)
        if self.kind == "hinge":
            return excess
        return excess * excess


def _number(value, key: str) -> float:
    """A config-file number as a float; a bool, string, null, container or huge int is an error."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} is too large for a float") from None


def _vec_from(value, key: str) -> Vec2:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError(f"{key} must be a pair [x, y], got {value!r}")
    return Vec2(_number(value[0], f"{key}[0]"), _number(value[1], f"{key}[1]"))


_CONFIG_KEYS = ("nu", "r_cap", "x_p0", "x_e0", "t_f", "n", "phi", "seed")


@dataclass(frozen=True, slots=True)
class GameConfig:
    """Complete description of one game instance in the nondimensional frame.

    ``n`` is the sensing budget: the maximum number of remote-sensor requests
    the pursuer may issue after the free time-0 observation.  ``seed`` feeds
    every stream of randomness derived for this game.
    """

    nu: float
    r_cap: float
    x_p0: Vec2
    x_e0: Vec2
    t_f: float
    n: int
    phi: PayoffSpec
    seed: int = 0

    def __post_init__(self):
        _in_unit(self.nu, "nu")
        if not isinstance(self.x_p0, Vec2) or not isinstance(self.x_e0, Vec2):
            raise ValueError("x_p0 and x_e0 must be Vec2 instances")
        if not all(map(math.isfinite, (self.x_p0.x, self.x_p0.y, self.x_e0.x, self.x_e0.y))):
            raise ValueError(f"x_p0 and x_e0 must be finite, got {self.x_p0} and {self.x_e0}")
        _nonnegative(self.t_f, "t_f")
        _index(self.n, "n")
        _seed(self.seed, "seed")
        if self.phi.r_cap != self.r_cap:
            raise ValueError(
                f"phi.r_cap ({self.phi.r_cap}) must equal the game's r_cap ({self.r_cap})"
            )

    @property
    def initial_distance(self) -> float:
        return self.x_p0.dist(self.x_e0)

    @classmethod
    def from_dict(cls, data: dict) -> "GameConfig":
        """Build a config from the JSON object layout used by the CLI."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        missing = sorted(k for k in _CONFIG_KEYS if k != "seed" and k not in data)
        if missing:
            raise ValueError(f"missing config keys: {missing}")
        phi_obj = data["phi"]
        if not isinstance(phi_obj, dict) or "kind" not in phi_obj:
            raise ValueError("phi must be an object with a 'kind' key")
        extra = sorted(set(phi_obj) - {"kind"})
        if extra:
            raise ValueError(f"unknown phi keys: {extra}")
        r_cap = _number(data["r_cap"], "r_cap")
        return cls(
            nu=_number(data["nu"], "nu"),
            r_cap=r_cap,
            x_p0=_vec_from(data["x_p0"], "x_p0"),
            x_e0=_vec_from(data["x_e0"], "x_e0"),
            t_f=_number(data["t_f"], "t_f"),
            n=data["n"],
            phi=PayoffSpec(kind=phi_obj["kind"], r_cap=r_cap),
            seed=data.get("seed", 0),
        )

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "r_cap": self.r_cap,
            "x_p0": [self.x_p0.x, self.x_p0.y],
            "x_e0": [self.x_e0.x, self.x_e0.y],
            "t_f": self.t_f,
            "n": self.n,
            "phi": {"kind": self.phi.kind},
            "seed": self.seed,
        }


def _bearing(dx: float, dy: float) -> tuple[float, float, float]:
    """Unit components of (dx, dy), scaled by ``1.0 / norm``, and the norm.

    Where that reciprocal overflows (norm below about 5.6e-309), (dx, dy) is
    first scaled by 2^1000, which is exact; other inputs keep their bits.
    """
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise DegenerateDirectionError("line of sight undefined for coincident points")
    k = 1.0 / norm
    if k > 1.7976931348623157e308:  # the largest float: 1/norm overflowed
        dx, dy = dx * 2.0 ** 1000, dy * 2.0 ** 1000
        k = 1.0 / math.hypot(dx, dy)
    return dx * k, dy * k, norm


def line_of_sight(x_p: Vec2, x_e: Vec2) -> Vec2:
    """Unit vector pointing from the pursuer's position to the evader's."""
    ux, uy, _ = _bearing(x_e.x - x_p.x, x_e.y - x_p.y)
    return _new(Vec2, (ux, uy))


def perpendicular(r: Vec2, orientation: int) -> Vec2:
    """Unit vector perpendicular to the unit vector ``r``.

    ``orientation`` +1 rotates counterclockwise ((1,0) -> (0,1)), -1 clockwise.
    """
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation!r}")
    if not abs(r.norm() - 1.0) <= CHECK_TOL:
        raise ValueError(f"r must be a unit vector, got norm {r.norm()}")
    return _new(Vec2, (-r.y * orientation, r.x * orientation))
