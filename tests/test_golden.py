"""Golden outputs: sha256 digests of CLI output files on fixed inputs.

A refactor that claims to keep behaviour must leave every digest here
unchanged: the ``simulate --out`` outcome JSON and trajectory CSV of each
pursuer against three evaders, three ``value-grid`` CSVs, a ``compare-nmax``
CSV, a ``degradation`` CSV, the report JSON of five ``verify`` suites plus
the evader suite on a state with budget left, and the printed streams of
``verify all``.  Manifests are not hashed (they carry a wall time).
Regenerate a digest only for an intended change of output.
"""

import hashlib
import json

import pytest

from intermittent_pursuit import PURSUER_NAMES
from intermittent_pursuit.cli import main

# Integer end times and velocity components, as a hand-written JSON file has them.
SCRIPTED = {"name": "scripted", "legs": [[1, [0, 0]], [2, [0.5, -0.25]], [4, [0, 0.7]]]}
EVADERS = {"radial": "radial", "equilibrium": "equilibrium", "scripted": SCRIPTED}

GAME = {
    "nu": 0.7, "r_cap": 0.1, "x_p0": [0.0, 0.0], "x_e0": [1.2, 0.9],
    "t_f": 6.0, "n": 3, "phi": {"kind": "hinge"}, "seed": 7,
}

# A wait-region state with budget left (rho = 1, t_f = 5, n = 2), where the
# evader suite plays early_sense, first_leg and the holding WaitingPursuer.
WAIT_STATE = dict(GAME, x_e0=[1.0, 0.0], t_f=5.0, n=2)

SIMULATE_DIGESTS = {
    "continuous/equilibrium": (
        "87be9d4e5f12c9b139f83d23230d285a233f720f2c3f20397d091657ac05b36b",
        "046d298899466276d19e71d2106f01092cf616ff93d4f4db1d1e9955a8ca857c",
    ),
    "continuous/radial": (
        "2f1299b54151feada84adf41dd71588c37eb343b1f91e50d7849d770c42d6dbb",
        "79fa4355e6bf0d45d20e47cf9130bb5d6ae102da8664a15b5946ac9724f18cda",
    ),
    "continuous/scripted": (
        "be56c29535c90c8591863fb01b224829f0b372d0dcfdbdda9ba4db5fd76ef53d",
        "6c6a7a7dece05c9c260a1ca5d5dc912533a34136fcad4dd4e466e49e0e95d546",
    ),
    "prop1/equilibrium": (
        "e1b762a76bde6d50b888c7f0de433b9970c750de84009e9d0c3f2852f58ce9f8",
        "838d8119d11ed1c9e73b7e3f79ca403ca761ca32b7b9ecfde714088f2e825f5a",
    ),
    "prop1/radial": (
        "2e75ff31dcf25a5db514ceea942ddcc8de7af3e3651e5480048af08f48d08143",
        "84d930220414cc1be83c237781ebff7c0f5302b419b40e281f1a4e02628a66df",
    ),
    "prop1/scripted": (
        "9641639a5ce316598aa1e91310bd66dc3b292a94a20b63f6730ccea704449944",
        "056a91abf9a8857d0f3631651821f64addc0b1ab69071dffa031a8425d4a7f4d",
    ),
    "thm1/equilibrium": (
        "ba333ab3b5d1ca8774bb0daf421375460a90743119a8a38aa887109e5fc1b372",
        "c2cbbce3b48c591161d0f6a073e0e97ed7b21b8cb5ed6936df29ff2b9a261b60",
    ),
    "thm1/radial": (
        "06686397fbaf0d8641a9f24ce375d4394490e2158b8b1003f3e85998bdce89a1",
        "6442f14ed0942c57f1c8d7e968d54993653815578aa101c1a45a3cdb7d3a1961",
    ),
    "thm1/scripted": (
        "a1dab4db447ae9fd6e7f827dffd1dd948835f75427487ff5baf5532a6ccc6b18",
        "c398b4dca4b19e935a9bbc6d8f26462d94bd50f83d474a3755ba84662ced4982",
    ),
    "aleem/equilibrium": (
        "f24a0d06cf64f277968cbb0b78b1728dfcf4f96e1b7dcc9cc4b79e782952f49a",
        "879114f2c920e5bc4e08fe89dbfae4f40fe4baa01058326fe4d6288acbf3f407",
    ),
    "aleem/radial": (
        "5036fa6dca63ffcaa7d2f5a1deeccbf34ce5d6363885340e7658994ae0bffd9f",
        "227ffbd19ef23ff678c75a79a2cb0b49ec53f17f8c58fc6f8872ac9adebb92d5",
    ),
    "aleem/scripted": (
        "df58a90080fc53d9d6ac511e44a4e53a3bd4e9d7c4917de212a1287fce4a15e5",
        "34178987c4c90de633567df5fe99c223ae365655490bfe19ef95d30c0c231719",
    ),
}

OTHER_DIGESTS = {
    "compare-nmax": "f9c1ed55e5110bf3b1a3fb0f144dc1ccdba1cbffeb3b3377c178106357e18795",
    "degradation": "9a8f8fde603b616ed68e619040522af1beb788dcf963e82d087ecafe11fb80d5",
    "value-grid": "b0c87ab65ecf7a6779d1ac2f9402e6f2cee01f3b3c1ed56faee7f43e4bcf2cbc",
    "value-grid-quadratic": "d695e065b54a85106a3a34be4976f7bb68d1b0255d0c2635e61be2eef823572b",
    "value-grid-slack": "b68d775c55a64d9de9f73664c83d4238465e5d5c5cec9ae3182568ba83623b23",
    "verify-capture_time": "bab5fbbb5b3e9cdcb1ea070e78ee86b76fc61711cf8d325c935b304551ac3dc8",
    "verify-evader": "17c3cd7b3cbfabcb7c37ff0baf2284f7bd63abe08b24558872a05547a1493a0d",
    "verify-evader-wait": "1e25fa1f79deea917ebd2eb6d5fd92be0d4a2581d15207730cb133d181b246b5",
    "verify-jensen": "e00932ab06eb480e2d925c8dac87a8281a992d23e2a6bdbd2d3a953153de3898",
    "verify-oracle": "8e48728110e77e4766b6389990032dcaa14198e3dedfafc9b7a09aeb88061173",
    "verify-pursuer": "538838272ebce499f990eec3e3957face518ecae585e6548c59216002013c2f9",
}

# sha256 of the stdout and the stderr of ``verify all --trials 200 --seed 0``.
VERIFY_ALL_DIGESTS = (
    "8a88a836a9e0e2cf440036252e06e9f578d10ae91e6e5742f3ff215a3bbac1d6",
    "03e30425255e456cc892c4b1d3ca3f69098bc2d8e9d714daec38ee2215e7a0d8",
)


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(capsys, *argv) -> None:
    assert main(list(argv)) in (0, 1)
    capsys.readouterr()  # the printed lines are checked in test_cli.py


@pytest.mark.parametrize("pursuer", PURSUER_NAMES)
@pytest.mark.parametrize("evader", sorted(EVADERS))
def test_simulate_outputs(pursuer, evader, tmp_path, capsys):
    config = tmp_path / "game.json"
    config.write_text(json.dumps(dict(GAME, pursuer=pursuer, evader=EVADERS[evader])))
    base = tmp_path / "run"
    _run(capsys, "simulate", "--config", str(config), "--out", str(base))
    got = (_sha256(tmp_path / "run.outcome.json"), _sha256(tmp_path / "run.trajectory.csv"))
    assert got == SIMULATE_DIGESTS[f"{pursuer}/{evader}"]


OTHER_RUNS = {
    "compare-nmax": ["compare-nmax", "--nu-min", "0.1", "--nu-max", "0.9"],
    # A horizon past the capture-time bound defines no beta: every beta cell is empty.
    "degradation": ["degradation", "--nu", "0.5,0.7", "--tf-frac", "1.3"],
    "value-grid": ["value-grid", "--nu", "0.7", "--r-cap", "0.1", "--rho-max", "3",
                   "--rho-steps", "20", "--tau-max", "5", "--tau-steps", "20",
                   "--ell", "0:4"],
    # Six of the seven case tags, with capture_region reached through
    # nu^(ell+1)*rho <= r_cap away from rho <= r_cap.
    "value-grid-quadratic": ["value-grid", "--phi", "quadratic-above-capture", "--nu", "0.55",
                             "--r-cap", "0.1", "--rho-max", "3", "--rho-steps", "20",
                             "--tau-max", "8", "--tau-steps", "20", "--ell", "0:7"],
    # The slack band: stage0_case2b rows and capture_region rows that are not tight.
    "value-grid-slack": ["value-grid", "--nu", "0.7", "--r-cap", "0.1", "--rho-min", "0.1",
                         "--rho-max", "0.18", "--rho-steps", "9", "--tau-max", "2",
                         "--tau-steps", "9", "--ell", "0:3"],
    "verify-pursuer": ["verify", "pursuer", "--trials", "50"],
    "verify-evader": ["verify", "evader"],
    "verify-evader-wait": ["verify", "evader"],
    "verify-oracle": ["verify", "oracle"],
    "verify-capture_time": ["verify", "capture_time", "--trials", "20"],
    "verify-jensen": ["verify", "jensen", "--trials", "200"],
}


OTHER_CONFIGS = {"verify-evader-wait": WAIT_STATE}


@pytest.mark.parametrize("name", sorted(OTHER_RUNS))
def test_other_outputs(name, tmp_path, capsys):
    argv = list(OTHER_RUNS[name])
    if name in OTHER_CONFIGS:
        config = tmp_path / "game.json"
        config.write_text(json.dumps(OTHER_CONFIGS[name]))
        argv += ["--config", str(config)]
    out = tmp_path / "out"
    _run(capsys, *argv, "--out", str(out))
    assert _sha256(out) == OTHER_DIGESTS[name]


def test_verify_all_streams(capsys):
    """Every suite's report JSON on stdout and its verdict line on stderr; exit 1.

    The exit is 1 because the jensen suites report the false RMS form.
    """
    assert main(["verify", "all", "--trials", "200", "--seed", "0"]) == 1
    out, err = capsys.readouterr()
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    assert got == VERIFY_ALL_DIGESTS
