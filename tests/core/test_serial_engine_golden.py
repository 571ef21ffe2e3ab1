"""Golden records of the serial (``jobs=None``) tuning engine.

The serial engine is the paper-faithful oracle: one invocation feed and one
noise stream for the whole search, with a method switch whenever a rating
does not converge (paper Sections 3-4).  Each case below tunes a small
three-flag search and compares everything it decides and charges against
``serial_engine_golden.json``, bit for bit (floats as ``float.hex``):

* the best configuration (as the flags it disables), the method used, the methods tried and the number
  of versions rated;
* every measurement (candidate, reference, speed) of the search log;
* the ledger's cycles by category, invocations and program runs.

The cases cover every rating method (CBR, MBR, RBR, and forced WHL and
AVG), both machines, both execution tiers, the switches CBR -> RBR and
CBR -> MBR, forced WHL on a program whose inputs carry a live object
from one invocation to the next (crafty's ``dirs`` table), and RBR on
versions that are not data-oblivious, whose repeated re-executions the
replay store serves by input position (art, gzip).

Regenerate the fixture only for an intended change of the serial engine's
results::

    PYTHONPATH=src python tests/core/test_serial_engine_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.compiler import OptConfig
from repro.core.peak import PeakTuner
from repro.core.rating import RatingSettings
from repro.core.search import IterativeElimination
from repro.machine import machine_by_name
from repro.workloads import get_workload

FIXTURE = Path(__file__).with_name("serial_engine_golden.json")

FLAGS = ("strength-reduce", "schedule-insns", "inline-functions")

#: name -> (benchmark, machine, forced method, exec tier, rating settings)
CASES: dict[str, tuple[str, str, str | None, int, dict]] = {
    "swim-p4-cbr-t0": ("swim", "pentium4", None, 0, {}),
    "mgrid-sparc2-mbr-t1": ("mgrid", "sparc2", None, 1, {}),
    "art-p4-rbr-t1": ("art", "pentium4", None, 1, {}),
    "swim-sparc2-whl-t1": ("swim", "sparc2", "WHL", 1, {}),
    "swim-p4-avg-t0": ("swim", "pentium4", "AVG", 0, {}),
    "swim-p4-whl-t0": ("swim", "pentium4", "WHL", 0, {}),
    "crafty-p4-whl-t1": ("crafty", "pentium4", "WHL", 1, {}),
    "mgrid-p4-mbr-t0": ("mgrid", "pentium4", None, 0, {}),
    "art-sparc2-rbr-t0": ("art", "sparc2", None, 0, {}),
    "swim-p4-cbr-to-rbr-t1": (
        "swim", "pentium4", None, 1,
        {"var_threshold": 1e-7, "max_invocations": 80},
    ),
    "apsi-sparc2-cbr-to-mbr-t0": (
        "apsi", "sparc2", None, 0,
        {"var_threshold": 1e-7, "max_invocations": 40},
    ),
    "wupwise-p4-cbr-t1": ("wupwise", "pentium4", None, 1, {}),
    "mgrid-p4-whl-t1": ("mgrid", "pentium4", "WHL", 1, {}),
    "applu-sparc2-cbr-t0": ("applu", "sparc2", None, 0, {}),
    "gzip-p4-rbr-t1": ("gzip", "pentium4", None, 1, {}),
}


def _disabled(config: OptConfig) -> list[str]:
    """*config* as the -O3 flags it turns off (short and readable)."""
    return sorted(OptConfig.o3().enabled - config.enabled)


def record(case: str) -> dict:
    """Tune *case* on the serial engine and return its golden record."""
    benchmark, machine, method, tier, settings = CASES[case]
    tuner = PeakTuner(
        machine_by_name(machine),
        seed=1,
        settings=RatingSettings(**settings),
        search=IterativeElimination(),
        exec_tier=tier,
    )
    result = tuner.tune(get_workload(benchmark), method=method, flags=FLAGS)
    ledger = result.ledger
    return {
        "best_config": _disabled(result.best_config),
        "method_used": result.method_used,
        "methods_tried": list(result.methods_tried),
        "n_versions_rated": result.n_versions_rated,
        "measurements": [
            [_disabled(m.candidate), _disabled(m.reference), float(m.speed).hex()]
            for m in result.search.measurements
        ],
        "by_category": {
            k: float(v).hex() for k, v in sorted(ledger.by_category.items())
        },
        "invocations": ledger.invocations,
        "program_runs": ledger.program_runs,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


def test_fixture_covers_every_method_and_a_switch(golden):
    used = {rec["method_used"] for rec in golden.values()}
    assert used == {"CBR", "MBR", "RBR", "WHL", "AVG"}
    assert any(len(rec["methods_tried"]) > 1 for rec in golden.values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_serial_engine_matches_golden(case, golden):
    assert record(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.write_text(
        json.dumps({case: record(case) for case in sorted(CASES)}, indent=1) + "\n"
    )
