"""Bitwise pins of all eight suites: the solve-bearing ones, equivalences,
which reads every BMO functional, identities, which checks the exact
operator identities, and stopping, which runs every packing search.

Every float a suite reports (each measured statistic, each assertion's worst
value, each finding's numbers) is compared as float.hex against
suite_pins.json.  The configs cover a full lockstep group at D=8 and D=10 and
a run whose last group is partial (37 trials at D=6), so a trial's values
must not depend on the group it is solved in.  Each config is also run as
one joint pass over all eight suites, held to the same pins, so a suite's
values must not depend on which other suites share its pass.

To re-record after a change that is meant to move floats (and say so in
CHANGES.md):  PYTHONPATH=src python tests/test_suite_pins.py
Before it writes suite_pins.json, it prints every pin it moves (old -> new,
hex and decimal), adds or removes.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from dyadbloom.config import SUITE_NAMES, ExperimentConfig
from dyadbloom.suites import SuiteResult, run_suites

PINS = pathlib.Path(__file__).with_name("suite_pins.json")
CONFIGS = ((8, 5, 2026), (10, 4, 2026), (6, 37, 7))


def _hex(v):
    return v.hex() if isinstance(v, float) else v


def _config(depth: int, trials: int, seed: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {**ExperimentConfig().to_dict(), "depth": depth, "trials": trials, "seed": seed}
    )


def result_floats(res: SuiteResult) -> dict:
    out = {}
    for key, stats in res.measured.items():
        if isinstance(stats, dict):
            out.update({f"measured.{key}.{s}": _hex(v) for s, v in stats.items()})
        else:
            out[f"measured.{key}"] = stats
    for a in res.assertions:
        out[f"assertion.{a.name}"] = _hex(a.worst)
    for i, fd in enumerate(res.findings):
        out.update({f"finding.{i}.{k}": _hex(v) for k, v in fd.data.items()})
    return out


def suite_floats(name: str, depth: int, trials: int, seed: int) -> dict:
    return result_floats(run_suites(replace(_config(depth, trials, seed), suites=(name,)))[0])


def _key(name, depth, trials, seed):
    return f"{name} D={depth} trials={trials} seed={seed}"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "D{}x{}s{}".format(*c))
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_floats_are_pinned(name, config):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    assert suite_floats(name, *config) == pins[_key(name, *config)]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: "D{}x{}s{}".format(*c))
def test_joint_pass_matches_the_pins(config):
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    results = run_suites(_config(*config))
    assert [res.suite for res in results] == list(SUITE_NAMES)
    for res in results:
        assert result_floats(res) == pins[_key(res.suite, *config)], res.suite


def _show(v):
    # a pinned value as recorded, with its decimal reading for hex floats
    return f"{v} ({float.fromhex(v)!r})" if isinstance(v, str) else repr(v)


def pin_changes(old: dict, new: dict) -> list[str]:
    """One line per pin that a re-record moves, adds or removes."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        was, now = old.get(key, {}), new.get(key, {})
        for entry in sorted(was.keys() | now.keys()):
            if entry not in now:
                lines.append(f"{key}: {entry} removed, was {_show(was[entry])}")
            elif entry not in was:
                lines.append(f"{key}: {entry} added, {_show(now[entry])}")
            elif was[entry] != now[entry]:
                lines.append(f"{key}: {entry} {_show(was[entry])} -> {_show(now[entry])}")
    return lines


def test_pin_changes_lists_moved_added_and_removed_pins():
    old = {"s": {"a": "0x1.0000000000000p+0", "b": 3, "c": "0x1.0000000000000p-1"}}
    new = {"s": {"a": "0x1.8000000000000p+0", "b": 3, "d": 4}}
    assert pin_changes(old, new) == [
        "s: a 0x1.0000000000000p+0 (1.0) -> 0x1.8000000000000p+0 (1.5)",
        "s: c removed, was 0x1.0000000000000p-1 (0.5)",
        "s: d added, 4",
    ]
    assert pin_changes(old, old) == []


if __name__ == "__main__":
    record = {_key(n, *c): suite_floats(n, *c) for n in SUITE_NAMES for c in CONFIGS}
    old = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    changes = pin_changes(old, record)
    print("\n".join(changes) if changes else "no pin moves")
    PINS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
