"""Golden records: tiny fig3/fig4/fig5 runs must reproduce a stored fixture.

tests/golden_records.json holds, per case, the config overrides and the
records at full precision (written by tests/make_golden_records.py).
Integers, seeds, epochs and accuracies must match exactly; losses within
LOSS_RTOL, which leaves room only for floating-point reassociation.
"""

import json
from pathlib import Path

import pytest

from artifact import make_config, run_experiment

GOLDEN = json.loads(Path(__file__).with_name("golden_records.json").read_text())
LOSS_RTOL = 1e-9


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[f"{i}-{c['experiment']}"
                              for i, c in enumerate(GOLDEN["cases"])])
def test_golden_records(case):
    fields = GOLDEN["fields"]
    rows = run_experiment(make_config(case["experiment"], **case["overrides"]))
    got = [[getattr(r, name) for name in fields] for r in rows]
    assert len(got) == len(case["rows"])
    for mine, ref in zip(got, case["rows"]):
        for name, a, b in zip(fields, mine, ref):
            if name == "train_loss":
                assert a == pytest.approx(b, rel=LOSS_RTOL, abs=0.0), (ref, name)
            else:
                assert a == b, (ref, name)
