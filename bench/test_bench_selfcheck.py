"""Self-check of the benchmark, collected by the tier-1 command.

Runs ``--smoke`` (tiny populations, 8 bursts, one repeat) and asserts
what a timing-free run can: every name in ``BENCHMARK.json`` is emitted, traffic is a pure function of the seed, and the
generator's ground-truth labels equal the scalar oracle.  No timing is
asserted anywhere.
"""

import json
import re
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent
_ROOT = _BENCH.parent
for path in (str(_ROOT / "src"), str(_BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import apnabench  # noqa: E402
from apnabench import cli, engine, traffic  # noqa: E402

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def contract():
    with open(_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_contract_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in contract["workloads"]] + [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(_NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])
    assert set(traffic.GENERATORS) == {w["name"] for w in contract["workloads"]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_name(contract, capsys, tmp_path, trace, kind):
    assert cli.main(["--smoke", "--trace", trace, "--out-dir", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 4 * 8 * apnabench.BURST
    expected = {
        f"{workload['name']}.{metric['name']}": metric["unit"]
        for workload in contract["workloads"]
        for metric in contract[kind]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if kind == "per_layer":
        for workload in contract["workloads"]:
            assert (tmp_path / f"trace_{workload['name']}.json").is_file()


@pytest.fixture(scope="module")
def smoke_plans():
    return {
        name: generate(1, traffic.SMOKE)
        for name, generate in traffic.GENERATORS.items()
    }


def _wire(plan):
    return [burst.frames for burst in plan.bursts + plan.warm]


def test_same_seed_same_frames_other_seed_other_frames(smoke_plans):
    for name, generate in traffic.GENERATORS.items():
        assert _wire(generate(1, traffic.SMOKE)) == _wire(smoke_plans[name])
        assert _wire(generate(2, traffic.SMOKE)) != _wire(smoke_plans[name])


def test_ground_truth_equals_scalar_oracle(smoke_plans):
    for plan in smoke_plans.values():
        assert engine.oracle_check(plan, bursts=len(plan.bursts)) == 0
