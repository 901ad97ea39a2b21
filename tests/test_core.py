"""Unit tests for geometric primitives, payoffs, and game configuration."""

import csv
import json
import math
import pickle
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intermittent_pursuit import (
    CHECK_TOL,
    DegenerateDirectionError,
    GameConfig,
    PayoffSpec,
    PAYOFF_KINDS,
    Vec2,
    build_evader,
    fmt_g,
    line_of_sight,
    perpendicular,
)
from intermittent_pursuit import core
from conftest import default_config_payload, make_config


class TestVec2:
    def test_arithmetic(self):
        a = Vec2(1.0, 2.0)
        b = Vec2(-3.0, 0.5)
        assert a + b == Vec2(-2.0, 2.5)
        assert a - b == Vec2(4.0, 1.5)
        assert a * 2.0 == Vec2(2.0, 4.0)
        assert 2.0 * a == Vec2(2.0, 4.0)
        assert -a == Vec2(-1.0, -2.0)
        assert a.dot(b) == -3.0 + 1.0

    def test_norm_and_dist(self):
        assert Vec2(3.0, 4.0).norm() == 5.0
        assert Vec2(1.0, 1.0).dist(Vec2(4.0, 5.0)) == 5.0

    def test_immutable(self):
        v = Vec2(1.0, 2.0)
        with pytest.raises(AttributeError):
            v.x = 3.0

    def test_picklable(self):
        # tuples pickle and compare by value
        v = Vec2(1.5, -2.5)
        assert pickle.loads(pickle.dumps(v)) == v

    def test_numpy_scalar_scales_to_a_vec2(self):
        # numpy must not read the tuple as an array and return one
        v = Vec2(1.0, 2.0)
        for product in (np.float64(2.0) * v, v * np.float64(2.0)):
            assert type(product) is Vec2
            assert product == Vec2(2.0, 4.0)

    def test_tuple_operators_act_as_a_vector(self):
        v, w = Vec2(1.0, 2.0), Vec2(3.0, -1.0)
        assert v + w == Vec2(4.0, 1.0)  # adds, does not concatenate
        assert v - w == Vec2(-2.0, 3.0)
        for scaled in (2 * v, v * 2):  # scales, does not repeat
            assert type(scaled) is Vec2
            assert scaled == Vec2(2.0, 4.0)
        assert type(-v) is Vec2

    def test_reads_as_a_float_pair(self):
        v = Vec2(1.0, 2.0)
        x, y = v
        assert (x, y) == (1.0, 2.0)
        assert v == (1.0, 2.0)
        assert hash(v) == hash((1.0, 2.0))
        assert repr(v) == "Vec2(x=1.0, y=2.0)"
        assert json.dumps(v) == "[1.0, 2.0]"
        assert np.asarray(v).tolist() == [1.0, 2.0]


class TestPayoffSpec:
    def test_kinds_registry(self):
        assert PAYOFF_KINDS == ("hinge", "quadratic-above-capture")

    def test_hinge(self):
        phi = PayoffSpec(kind="hinge", r_cap=0.1)
        assert phi.evaluate(0.05) == 0.0
        assert phi.evaluate(0.1) == 0.0
        assert phi.evaluate(0.6) == pytest.approx(0.5, abs=1e-15)

    def test_quadratic(self):
        phi = PayoffSpec(kind="quadratic-above-capture", r_cap=0.1)
        assert phi.evaluate(0.1) == 0.0
        assert phi.evaluate(0.6) == pytest.approx(0.25, abs=1e-15)

    def test_zero_at_and_below_capture(self):
        for kind in PAYOFF_KINDS:
            phi = PayoffSpec(kind=kind, r_cap=0.25)
            for d in (0.0, 0.1, 0.25):
                assert phi.evaluate(d) == 0.0

    @pytest.mark.parametrize("kind", PAYOFF_KINDS)
    def test_array_matches_each_float(self, kind):
        """An array is evaluated as each of its floats is; a square past the float range is inf."""
        phi = PayoffSpec(kind=kind, r_cap=0.1)
        distances = [0.0, 0.05, 0.1, 0.6, 3.7, 1e200, math.inf]
        assert phi.evaluate(np.array(distances)).tolist() == [phi.evaluate(d) for d in distances]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PayoffSpec(kind="cubic", r_cap=0.1)
        with pytest.raises(ValueError):
            PayoffSpec(kind="hinge", r_cap=0.0)
        with pytest.raises(ValueError):
            PayoffSpec(kind="hinge", r_cap=0.1).evaluate(-0.01)


class TestGameConfig:
    def test_initial_distance(self):
        cfg = make_config(rho0=5.0)
        assert cfg.initial_distance == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(nu=1.0)
        with pytest.raises(ValueError):
            make_config(nu=0.0)
        with pytest.raises(ValueError):
            make_config(t_f=-1.0)
        with pytest.raises(ValueError):
            make_config(n=-1)
        cfg = make_config()
        with pytest.raises(ValueError):
            GameConfig(
                nu=cfg.nu,
                r_cap=0.2,
                x_p0=cfg.x_p0,
                x_e0=cfg.x_e0,
                t_f=cfg.t_f,
                n=cfg.n,
                phi=PayoffSpec(kind="hinge", r_cap=0.1),
            )

    def test_dict_round_trip(self):
        payload = default_config_payload()
        cfg = GameConfig.from_dict(payload)
        assert cfg.nu == 0.7
        assert cfg.x_e0 == Vec2(1.0, 0.0)
        assert cfg.seed == 42
        assert GameConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["x_p0", "x_e0"])
    def test_rejects_non_finite_positions(self, key, bad):
        # Vec2 checks nothing, so the config is where a position is checked
        cfg = make_config()
        with pytest.raises(ValueError, match="must be finite"):
            replace(cfg, **{key: Vec2(0.5, bad)})
        with pytest.raises(ValueError, match="must be finite"):
            GameConfig.from_dict(default_config_payload(**{key: [bad, 0.0]}))

    def test_integer_json_yields_floats(self):
        # JSON integers become floats where they enter: the config and scripted legs
        cfg = GameConfig.from_dict(default_config_payload(
            nu=0.5, r_cap=1, x_p0=[0, 0], x_e0=[3, 4], t_f=5, n=2))
        for value in (cfg.r_cap, cfg.t_f, cfg.x_p0.x, cfg.x_p0.y, cfg.x_e0.x, cfg.x_e0.y):
            assert type(value) is float
        assert type(cfg.n) is int
        evader = build_evader({"name": "scripted", "legs": [[1, [0, 0]], [2, [0, 1]]]}, cfg)
        for t_end, velocity in evader.legs:
            assert type(t_end) is float
            assert type(velocity.x) is float and type(velocity.y) is float

    def test_seed_defaults_to_zero(self):
        payload = default_config_payload()
        del payload["seed"]
        assert GameConfig.from_dict(payload).seed == 0

    def test_rejects_unknown_and_missing_keys(self):
        payload = default_config_payload(bogus=1)
        with pytest.raises(ValueError, match="unknown config keys"):
            GameConfig.from_dict(payload)
        payload = default_config_payload()
        del payload["t_f"]
        with pytest.raises(ValueError, match="missing config keys"):
            GameConfig.from_dict(payload)
        payload = default_config_payload(phi={"kind": "hinge", "scale": 2})
        with pytest.raises(ValueError, match="unknown phi keys"):
            GameConfig.from_dict(payload)

    def test_picklable(self):
        cfg = make_config()
        assert pickle.loads(pickle.dumps(cfg)) == cfg


class TestDirections:
    def test_line_of_sight_is_unit(self):
        u = line_of_sight(Vec2(1.0, 1.0), Vec2(4.0, 5.0))
        assert u.x == pytest.approx(0.6, abs=1e-15)
        assert u.y == pytest.approx(0.8, abs=1e-15)
        with pytest.raises(DegenerateDirectionError):
            line_of_sight(Vec2(1.0, 1.0), Vec2(1.0, 1.0))

    # coordinates up to 1e-307 apart reach subnormal separations, where 1/norm overflows
    @given(st.lists(st.one_of(st.floats(-1e6, 1e6), st.floats(-1e-307, 1e-307)),
                    min_size=4, max_size=4))
    @example([0.0, 0.0, 5e-324, 0.0])
    @example([0.0, 0.0, 3e-309, 4e-309])
    @example([0.0, 0.0, -5e-324, 5e-324])
    def test_line_of_sight_matches_longhand_property(self, coords):
        x_p, x_e = Vec2(coords[0], coords[1]), Vec2(coords[2], coords[3])
        d = x_e - x_p
        if d.norm() == 0.0:
            return
        u = line_of_sight(x_p, x_e)
        if math.isinf(1.0 / d.norm()):
            assert math.isfinite(u.x) and math.isfinite(u.y)
            assert abs(u.norm() - 1.0) <= CHECK_TOL
            assert math.copysign(1.0, u.x) == math.copysign(1.0, d.x)
            assert math.copysign(1.0, u.y) == math.copysign(1.0, d.y)
            return
        longhand = d * (1.0 / d.norm())
        assert u.x == longhand.x and u.y == longhand.y
        assert math.copysign(1.0, u.x) == math.copysign(1.0, longhand.x)
        assert math.copysign(1.0, u.y) == math.copysign(1.0, longhand.y)

    def test_perpendicular(self):
        assert perpendicular(Vec2(1.0, 0.0), 1) == Vec2(0.0, 1.0)
        assert perpendicular(Vec2(1.0, 0.0), -1) == Vec2(0.0, -1.0)
        u = Vec2(0.6, 0.8)
        p = perpendicular(u, 1)
        assert abs(u.dot(p)) < 1e-15
        assert abs(p.norm() - 1.0) < 1e-15
        with pytest.raises(ValueError):
            perpendicular(Vec2(2.0, 0.0), 1)
        with pytest.raises(ValueError, match="unit vector"):
            perpendicular(Vec2(math.nan, 0.0), 1)
        with pytest.raises(ValueError):
            perpendicular(Vec2(1.0, 0.0), 0)


def test_fmt_g_renders_nine_significant_digits():
    assert fmt_g(0.6831050228310501) == "0.683105023"
    assert fmt_g(1.0) == "1"
    assert fmt_g(16.43597854665) == "16.4359785"


# NaNs of either sign with any payload, built from their bits
NANS = st.builds(
    lambda sign, payload: struct.unpack("<d", struct.pack("<Q", sign << 63 | 0x7FF << 52
                                                          | payload))[0],
    st.integers(0, 1), st.integers(1, 2**52 - 1),
)
CELL_FLOATS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1e308, -1e308]),
    NANS,
)


@given(st.integers(0, 5), st.integers(0, 7), st.booleans(), st.data())
def test_fmt_cells_matches_fmt_g_property(rows, cols, flat, data):
    """Each cell is ``fmt_g`` of its element, signed zeros and NaN payloads included."""
    values = data.draw(st.lists(CELL_FLOATS, min_size=rows * cols, max_size=rows * cols))
    a = np.array(values, dtype=np.float64).reshape((rows * cols,) if flat else (rows, cols))
    assert core._fmt_cells(a) == [fmt_g(x) for x in a.ravel().tolist()]


BLOCK = core._CSV_BLOCK


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_write_csv_across_blocks(n_rows, tmp_path):
    """Rows split into joined blocks write what ``csv.writer`` writes."""
    rows = [(str(i), fmt_g(i / 7)) for i in range(n_rows)]
    if rows:
        rows[n_rows // 2] = ()
    path = tmp_path / "table.csv"
    assert core.write_csv(path, ("i", "x"), iter(rows)) == n_rows
    with open(tmp_path / "longhand.csv", "w", newline="") as handle:
        csv.writer(handle).writerows([("i", "x")] + rows)
    assert path.read_bytes() == (tmp_path / "longhand.csv").read_bytes()
