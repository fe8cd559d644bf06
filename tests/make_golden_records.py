"""Write tests/golden_records.json, the fixture test_golden_records reads.

Usage, from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/make_golden_records.py

Runs each tiny config below through make_config -> run_experiment and
stores the config with its records at full precision, without wall_ms.
Regenerate only for a deliberate change of results, and name the change.
"""

from __future__ import annotations

import json
from pathlib import Path

from artifact import make_config, run_experiment

PATH = Path(__file__).with_name("golden_records.json")
FIELDS = ("trial", "model", "n", "M", "epoch", "train_loss", "train_acc",
          "test_acc", "seed")

# Siamese runs mostly get at least 60 epochs so that early stopping
# (perfect training accuracy at epoch >= 50) can show up in the records.
CASES = (
    ("fig3", dict(n=3, trials=2, per_class_counts=(4,), test_per_class=5,
                  epochs=10, record_every=4)),
    ("fig4", dict(n=8, trials=1, per_class_counts=(1, 3), test_per_class=5,
                  models=("qnn_m", "dnn", "cnn"), epochs=60,
                  record_every=20)),
    ("fig5", dict(sweep_n=(4, 5), trials=2, per_class_counts=(3,),
                  test_per_class=5, epochs=80, record_every=10)),
    # below the early-stop floor: the cap ends training off the schedule
    ("fig5", dict(sweep_n=(4,), trials=1, per_class_counts=(3,),
                  test_per_class=5, models=("dnn",), epochs=45,
                  record_every=10)),
    # epochs, lr and record_every left to the trainers' and configs' defaults
    ("fig3", dict(n=2, trials=1, per_class_counts=(3,), test_per_class=5)),
    ("fig5", dict(sweep_n=(4,), trials=1, per_class_counts=(2,),
                  test_per_class=5, models=("dnn",))),
)


def records(experiment, overrides):
    rows = run_experiment(make_config(experiment, **overrides))
    return [[getattr(r, name) for name in FIELDS] for r in rows]


def main():
    cases = [{"experiment": experiment,
              "overrides": {k: list(v) if isinstance(v, tuple) else v
                            for k, v in overrides.items()},
              "rows": records(experiment, overrides)}
             for experiment, overrides in CASES]
    PATH.write_text(json.dumps({"fields": FIELDS, "cases": cases}) + "\n")
    print(f"wrote {sum(len(c['rows']) for c in cases)} rows to {PATH}")


if __name__ == "__main__":
    main()
