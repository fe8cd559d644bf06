"""Harness and CLI contract tests: configs, seeding, splits, CSV, exit codes."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from artifact.cli import main
from artifact.config import (
    MAX_ARRAY_BYTES,
    ConfigError,
    load_config,
    make_config,
)
from artifact.dataset import generate_dataset, load_dataset
from artifact.harness import (
    CSV_HEADER,
    RunRecord,
    _draw_disjoint_test,
    derive_seed,
    emit_csv,
    final_records,
    read_csv,
    run_block,
    run_experiment,
    summarize,
)
from artifact.oracle import run_oracle_check


def make_record(trial=0, model="qnn_m", n=4, M=20, epoch=3, loss=0.1,
                train_acc=1.0, test_acc=0.9, seed=42, wall_ms=12.5):
    return RunRecord(trial, model, n, M, epoch, loss, train_acc, test_acc,
                     seed, wall_ms)


# ------------------------------------------------------------- config


def test_fig3_defaults():
    c = make_config("fig3")
    assert c.n == 4
    assert c.trials == 10
    assert c.models == ("qnn_m", "qnn_u")
    assert c.per_class_counts == (10,)
    assert c.test_per_class == 40
    assert c.epsilon is None  # resolved to 1/(4 ln N) at sampling time


def test_fig4_defaults():
    c = make_config("fig4")
    assert c.n == 10
    assert c.trials == 50
    assert c.models == ("qnn_m", "dnn", "cnn")
    assert c.per_class_counts == tuple(range(1, 11))


def test_fig5_defaults():
    c = make_config("fig5")
    assert c.sweep_n == (4, 5, 6, 7)
    assert c.models == ("qnn_m", "dnn")
    assert c.per_class_counts == (5,)


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiment"):
        make_config("fig9")


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError, match="unknown config field"):
        make_config("fig3", bogus=1)


def test_lambda_alias_maps_to_lam():
    assert make_config("fig3", **{"lambda": 0.05}).lam == 0.05


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        make_config("fig3", trials=0)
    with pytest.raises(ConfigError):
        make_config("fig3", n=1)
    with pytest.raises(ConfigError):
        make_config("fig3", epsilon=-0.1)
    with pytest.raises(ConfigError):
        make_config("fig3", models=("qnn_m", "mystery"))
    with pytest.raises(ConfigError):
        make_config("fig5", sweep_n=())
    with pytest.raises(ConfigError, match="unknown rounding mode"):
        make_config("fig3", rounding="foo")
    with pytest.raises(ConfigError, match="unknown partner mode"):
        make_config("fig3", partner="bar")
    for field in ("epsilon", "lam", "lr"):
        # an integer no float holds would overflow in training
        for value in (float("nan"), float("inf"), -float("inf"), 10 ** 400):
            with pytest.raises(ConfigError, match="is not a finite float"):
                make_config("fig3", **{field: value})
    assert make_config("fig3", lr=1e308).lr == 1e308
    # fields the experiment would silently ignore
    with pytest.raises(ConfigError, match="one per-class training count"):
        make_config("fig3", per_class_counts=(1, 5, 10))
    with pytest.raises(ConfigError, match="one per-class training count"):
        make_config("fig5", per_class_counts=(2, 3))
    with pytest.raises(ConfigError, match="must not repeat"):
        make_config("fig4", per_class_counts=(1, 1))
    for experiment in ("fig3", "fig4"):
        with pytest.raises(ConfigError, match="sweep_n is for fig5 only"):
            make_config(experiment, sweep_n=(4, 5))
    with pytest.raises(ConfigError, match="n must not be set"):
        make_config("fig5", n=4)
    for field, value in (("sweep_n", (4, 5)), ("trials", 7),
                         ("models", ("dnn",)), ("per_class_counts", (10,)),
                         ("test_per_class", 2), ("epochs", 3), ("lr", 0.1),
                         ("record_every", 1)):
        with pytest.raises(ConfigError, match="oracle report does not read"):
            make_config("oracle", **{field: value})
    assert make_config("oracle").n == 10
    make_config("oracle", n=4, master_seed=3, epsilon=0.2, lam=0.05,
                rounding="randomized", partner="gaussian")


def test_cnn_register_size_constraint():
    with pytest.raises(ConfigError, match="cnn requires"):
        make_config("fig4", n=6)  # 2**6 pixels is 8x8, below the minimum
    with pytest.raises(ConfigError, match="cnn requires"):
        make_config("fig5", models=("cnn",), sweep_n=(4, 5))
    assert make_config("fig4", n=8).n == 8  # 16x16 is allowed


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "fig3", "n": 3, "trials": 2,
                                "lambda": 0.02}))
    c = load_config(path)
    assert (c.experiment, c.n, c.trials, c.lam) == ("fig3", 3, 2, 0.02)


def test_load_config_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 4}))
    with pytest.raises(ConfigError, match="missing the 'experiment'"):
        load_config(missing)
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(array)


# ------------------------------------------------------------ seeding


def test_derive_seed_is_deterministic_and_distinct():
    a = derive_seed(0, "fig3", 0, "data")
    assert a == derive_seed(0, "fig3", 0, "data")
    others = {
        derive_seed(0, "fig3", 1, "data"),
        derive_seed(0, "fig3", 0, "test"),
        derive_seed(0, "fig4", 0, "data"),
        derive_seed(1, "fig3", 0, "data"),
    }
    assert a not in others
    assert len(others) == 4
    assert all(isinstance(s, int) and s >= 0 for s in others | {a})


def test_disjoint_test_never_repeats_training_pairs():
    train = generate_dataset(2, None, 5, seed=0)
    keys = {s.key() for s in train}
    test = _draw_disjoint_test(2, None, 10, seed=1, train_keys=keys,
                               rounding="sign", partner="encoded")
    assert len(test) == 20
    assert all(s.key() not in keys for s in test)
    labels = [s.label for s in test]
    assert labels.count(0) == 10 and labels.count(1) == 10


IMPOSSIBLE_SPLIT = {"experiment": "fig3", "n": 2, "trials": 1,
                    "per_class_counts": [500], "test_per_class": 40,
                    "models": ["qnn_m"]}


def test_impossible_disjoint_test_split_is_a_config_error():
    fields = {k: v for k, v in IMPOSSIBLE_SPLIT.items() if k != "experiment"}
    with pytest.raises(ConfigError, match=r"test_per_class=40\) at n=2 .* "
                                          r"training pool of \d+ distinct"):
        run_experiment(make_config("fig3", **fields))


def test_cli_run_exits_1_on_an_impossible_disjoint_test_split(tmp_path,
                                                              capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "x.csv"
    cfg.write_text(json.dumps(IMPOSSIBLE_SPLIT))
    code = main(["run", "--experiment", "fig3", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 1
    assert "test_per_class=40" in capsys.readouterr().err
    assert not out.exists()


def test_config_arrays_past_the_cap_are_rejected():
    """Each counted array can set the bound: the float barcode rows, dnn's
    first-layer weights and qnn_u's encoded states."""
    assert MAX_ARRAY_BYTES == 2 ** 30
    make_config("fig3", n=9, models=("qnn_u",))  # 335,544,320 bytes
    with pytest.raises(ConfigError, match=r"n=10 is too large for qnn_u: "
                                          r".* 1,342,177,280 bytes"):
        make_config("fig3", n=10, models=("qnn_m", "qnn_u"))
    small = dict(sweep_n=(21,), per_class_counts=(1,), test_per_class=1)
    make_config("fig5", models=("qnn_m",), **small)  # 33,554,432 bytes
    with pytest.raises(ConfigError, match=r"n=21 is too large for dnn: "
                                          r".* 2,147,483,648 bytes"):
        make_config("fig5", models=("qnn_m", "dnn"), **small)
    with pytest.raises(ConfigError, match="n=30 is too large for qnn_m"):
        make_config("fig5", sweep_n=(4, 30))
    with pytest.raises(ConfigError, match="n=40 is too large for the oracle"):
        make_config("oracle", n=40)


# an address-space cap for a child process: room for the interpreter and
# numpy, and far below the arrays an oversized n would ask for
CHILD_ADDRESS_SPACE = 2 ** 31
CAPPED_MAIN = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, ({0}, {0}))\n"
               "from artifact.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n").format(CHILD_ADDRESS_SPACE)


def run_capped_cli(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("n", [40, 64])
def test_cli_run_exits_1_on_an_oversized_n_in_a_capped_child(tmp_path, n):
    """Without the check, n=40 asks the sampler for an 8 TiB array (exit 2)
    and n=64 fails in numpy with a message that names no field."""
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "x.csv"
    cfg.write_text(json.dumps({"experiment": "fig3", "n": n, "trials": 1,
                               "models": ["qnn_m"]}))
    proc = run_capped_cli("run", "--experiment", "fig3", "--config",
                          str(cfg), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert f"error: n={n} is too large for qnn_m" in proc.stderr
    assert "bytes, over the 1,073,741,824-byte cap" in proc.stderr
    assert not out.exists()


def test_cli_gen_data_exits_1_on_an_oversized_n_in_a_capped_child(tmp_path):
    out = tmp_path / "d.json"
    proc = run_capped_cli("gen-data", "--n", "40", "--per-class", "2",
                          "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert ("error: n=40 is too large for gen-data: its largest array would "
            "take 35,184,372,088,832 bytes") in proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------- CSV


def test_csv_header_is_exact(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([make_record()], path)
    first = path.read_text().splitlines()[0]
    assert first == "trial,model,n,M,epoch,train_loss,train_acc,test_acc,seed,wall_ms"


def test_two_records_make_three_lines(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv([make_record(epoch=0), make_record(epoch=5)], path)
    assert len(path.read_text().splitlines()) == 3


def test_empty_records_raise(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        emit_csv([], tmp_path / "out.csv")


def test_rows_sorted_by_trial_model_epoch(tmp_path):
    records = [
        make_record(trial=1, model="qnn_m", epoch=0),
        make_record(trial=0, model="qnn_u", epoch=5),
        make_record(trial=0, model="qnn_m", epoch=5),
        make_record(trial=0, model="qnn_m", epoch=0),
    ]
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    rows = read_csv(path)
    keys = [(r.trial, r.model, r.epoch) for r in rows]
    assert keys == sorted(keys)


def test_csv_round_trip_preserves_fields(tmp_path):
    rec = make_record(loss=0.123456789, test_acc=0.875, wall_ms=31.25)
    path = tmp_path / "out.csv"
    emit_csv([rec], path)
    back = read_csv(path)[0]
    assert (back.trial, back.model, back.n, back.M, back.epoch, back.seed) == (
        rec.trial, rec.model, rec.n, rec.M, rec.epoch, rec.seed)
    assert back.train_loss == pytest.approx(rec.train_loss, rel=1e-5)
    assert back.test_acc == rec.test_acc


def test_read_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("trial,model\n0,qnn_m\n")
    with pytest.raises(ValueError, match="unexpected CSV header"):
        read_csv(path)


def test_record_rejects_out_of_range_accuracy():
    with pytest.raises(ValueError, match="outside"):
        make_record(train_acc=1.5)
    assert np.isnan(make_record(test_acc=float("nan")).test_acc)


# ---------------------------------------------------------- summarize


def test_summarize_groups_on_final_epoch():
    records = [
        make_record(trial=0, epoch=0, train_acc=0.5, test_acc=0.5),
        make_record(trial=0, epoch=10, train_acc=1.0, test_acc=0.8),
        make_record(trial=1, epoch=0, train_acc=0.5, test_acc=0.5),
        make_record(trial=1, epoch=10, train_acc=1.0, test_acc=0.6),
    ]
    finals = final_records(records)
    assert sorted(r.epoch for r in finals) == [10, 10]
    table = summarize(records)
    assert len(table) == 1
    row = table[0]
    assert (row["model"], row["n"], row["M"], row["trials"]) == ("qnn_m", 4, 20, 2)
    assert row["test_mean"] == pytest.approx(0.7)
    assert row["train_mean"] == pytest.approx(1.0)


# ------------------------------------------------------- experiments


def tiny_fig3_config(seed=0):
    return make_config("fig3", n=3, trials=2, per_class_counts=(2,),
                       test_per_class=5, epochs=4, record_every=2,
                       master_seed=seed)


def test_fig3_tiny_run_produces_both_models():
    records = run_experiment(tiny_fig3_config())
    models = {r.model for r in records}
    assert models == {"qnn_m", "qnn_u"}
    assert {r.trial for r in records} == {0, 1}
    assert all(r.n == 3 and r.M == 4 for r in records)
    qnn_m_rows = [r for r in records if r.model == "qnn_m"]
    assert len(qnn_m_rows) == 2  # one row per trial; epoch = sweeps used
    assert all(r.epoch >= 1 for r in qnn_m_rows)
    qnn_u_epochs = sorted(r.epoch for r in records
                          if r.model == "qnn_u" and r.trial == 0)
    assert qnn_u_epochs == [0, 2, 4]
    assert all(np.isfinite(r.test_acc) for r in records)
    assert all(r.wall_ms >= 0 for r in records)


def test_rerun_identical_modulo_wall_ms(tmp_path):
    a = run_experiment(tiny_fig3_config(seed=7))
    b = run_experiment(tiny_fig3_config(seed=7))

    def strip(rs):
        return sorted((r.trial, r.model, r.n, r.M, r.epoch, r.train_loss,
                       r.train_acc, r.test_acc, r.seed) for r in rs)

    assert strip(a) == strip(b)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(a, pa)
    emit_csv(b, pb)

    def drop_wall(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert drop_wall(pa) == drop_wall(pb)


def test_different_master_seed_changes_data():
    a = run_experiment(tiny_fig3_config(seed=0))
    b = run_experiment(tiny_fig3_config(seed=1))
    assert {r.seed for r in a}.isdisjoint({r.seed for r in b})


def test_fig4_sweeps_nested_prefixes():
    config = make_config("fig4", n=4, trials=1, per_class_counts=(1, 3),
                         models=("qnn_m",), test_per_class=5)
    records = run_experiment(config)
    assert sorted({r.M for r in records}) == [2, 6]
    assert all(r.n == 4 for r in records)


@pytest.mark.parametrize("models", [("qnn_m", "dnn"), ("dnn",)])
def test_fig4_extracts_features_once_per_trial(monkeypatch, models):
    """The training pool's and the test split's rows, whatever the number
    of prefixes; none without qnn_m."""
    import artifact.harness as harness

    sizes = []
    extract = harness.extract_feature_matrix

    def counting(samples, pool):
        sizes.append(len(samples))
        return extract(samples, pool)

    monkeypatch.setattr(harness, "extract_feature_matrix", counting)
    for counts in ((1, 2, 3), (3,)):
        sizes.clear()
        run_experiment(make_config("fig4", n=4, trials=2,
                                   per_class_counts=counts, models=models,
                                   test_per_class=4, epochs=2))
        assert sizes == ([6, 8] * 2 if "qnn_m" in models else [])


def test_fig5_sweeps_register_sizes():
    config = make_config("fig5", sweep_n=(2, 3), trials=1,
                         per_class_counts=(3,), models=("qnn_m",),
                         test_per_class=5)
    records = run_experiment(config)
    assert sorted({r.n for r in records}) == [2, 3]
    assert all(r.M == 6 for r in records)


def _without_wall_ms(records):
    return [repr(replace(r, wall_ms=0.0)) for r in records]


@pytest.mark.parametrize("config, n, trial", [
    (make_config("fig4", n=4, trials=2, per_class_counts=(1, 3),
                 models=("qnn_m", "dnn"), test_per_class=4, epochs=3), 4, 1),
    (make_config("fig5", sweep_n=(2, 3), trials=2, per_class_counts=(2,),
                 models=("qnn_m", "dnn"), test_per_class=4, epochs=3), 3, 1),
], ids=["fig4", "fig5"])
def test_a_block_run_alone_equals_its_rows_in_the_full_run(config, n, trial):
    full = run_experiment(config)
    block = run_block(config, n, trial)
    assert block and {(r.n, r.trial) for r in block} == {(n, trial)}
    assert _without_wall_ms(block) == _without_wall_ms(
        [r for r in full if (r.n, r.trial) == (n, trial)])
    sizes = config.sweep_n if config.experiment == "fig5" else (config.n,)
    blocks = [r for size in sizes for t in range(config.trials)
              for r in run_block(config, size, t)]
    assert _without_wall_ms(full) == _without_wall_ms(blocks)


def test_run_experiment_rejects_the_oracle_config():
    with pytest.raises(ConfigError, match="run_oracle_check"):
        run_experiment(make_config("oracle"))


def test_oracle_report_passes():
    config = make_config("oracle", n=5)
    report = run_oracle_check(config)
    assert all(v["pass"] for v in report["identity"].values())
    assert all(v["pass"] for v in report["flat_barcode"].values())
    stats5 = report["class_stats"][5]
    assert stats5["uncorrelated_mean"] <= 3.0 / 2 ** 5
    assert stats5["separation_se"] >= 5.0
    assert report["threshold_vs_qnn_m"]["pass"]
    assert report["pass"]
    json.dumps(report)  # must be JSON-serializable as written


# ------------------------------------------------------------------ CLI


def test_cli_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data.json"
    code = main(["gen-data", "--n", "3", "--per-class", "4", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    ds = load_dataset(out)
    assert ds.n == 3 and len(ds) == 8
    assert "wrote 8 samples" in capsys.readouterr().out


def test_cli_gen_data_validation_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["gen-data", "--n", "1", "--per-class", "4", "--out", out]) == 1
    assert main(["gen-data", "--n", "3", "--per-class", "0", "--out", out]) == 1
    assert main(["gen-data", "--n", "3", "--per-class", "2",
                 "--epsilon", "-1", "--out", out]) == 1


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0"])
def test_cli_gen_data_rejects_an_epsilon_not_positive_and_finite(
        tmp_path, capsys, epsilon):
    out = tmp_path / "x.json"
    assert main(["gen-data", "--n", "3", "--per-class", "2",
                 f"--epsilon={epsilon}", "--out", str(out)]) == 1
    assert "epsilon must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_required_argument_exits_1(capsys):
    assert main(["gen-data", "--n", "3"]) == 1
    assert "error" in capsys.readouterr().err.lower()


def test_cli_unknown_experiment_exits_1(tmp_path):
    code = main(["run", "--experiment", "fig9",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_cli_run_fig3_with_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "fig3", "n": 3, "trials": 1, "per_class_counts": [2],
        "test_per_class": 5, "epochs": 3, "record_every": 3,
        "models": ["qnn_m"]}))
    out = tmp_path / "out.csv"
    code = main(["run", "--experiment", "fig3", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows and all(r.model == "qnn_m" for r in rows)
    printed = capsys.readouterr().out
    assert "records" in printed and "qnn_m" in printed


def test_cli_run_rejects_mismatched_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fig4"}))
    code = main(["run", "--experiment", "fig3", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_cli_run_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fig3", "mystery": 1}))
    code = main(["run", "--experiment", "fig3", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


@pytest.mark.parametrize("field, value", [
    ("trials", "3"), ("epsilon", "0.1"), ("per_class_counts", 5), ("n", 4.5),
    ("trials", True), ("models", "qnn_m"),
    # strings, but outside the mode field's choices
    ("rounding", "foo"), ("partner", "bar"),
    # numbers, but not finite (JSON NaN and Infinity)
    ("lr", float("nan")), ("lambda", float("nan")), ("epsilon", float("nan")),
    ("lr", float("inf")), ("lr", 10 ** 400),
])
def test_cli_run_rejects_wrongly_typed_config_field(tmp_path, capsys, field,
                                                    value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fig3", "n": 3, "trials": 1,
                               "models": ["qnn_m"], field: value}))
    code = main(["run", "--experiment", "fig3", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_run_rejects_a_field_the_experiment_ignores(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "x.csv"
    cfg.write_text(json.dumps({"experiment": "fig3", "n": 3, "trials": 1,
                               "models": ["qnn_m"],
                               "per_class_counts": [1, 5, 10]}))
    code = main(["run", "--experiment", "fig3", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 1
    assert "one per-class training count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_cli_run_exits_1_on_a_non_finite_training_loss(tmp_path, capsys):
    """A huge finite lr blows the weights up; the first NaN loss ends the
    run with exit 1 instead of writing nan rows."""
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "x.csv"
    cfg.write_text(json.dumps({"experiment": "fig5", "sweep_n": [4],
                               "trials": 1, "per_class_counts": [2],
                               "test_per_class": 2, "models": ["dnn"],
                               "epochs": 5, "lr": 1e300}))
    code = main(["run", "--experiment", "fig5", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 1
    assert "train loss is nan at epoch" in capsys.readouterr().err
    assert not out.exists()


def test_cli_summarize_round_trip(tmp_path, capsys):
    path = tmp_path / "r.csv"
    emit_csv([make_record(trial=t, epoch=e, test_acc=0.9)
              for t in (0, 1) for e in (0, 10)], path)
    assert main(["summarize", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "qnn_m" in out and "0.9" in out


def test_cli_summarize_missing_file_exits_1(tmp_path):
    assert main(["summarize", "--in", str(tmp_path / "nope.csv")]) == 1


def test_cli_validate_pool(capsys):
    assert main(["validate-pool", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out
    assert "swap_wht" in out
    assert "at n=2" in out
    assert main(["validate-pool", "--n", "3"]) == 0
    assert "at n=3" in capsys.readouterr().out
    assert main(["validate-pool", "--n", "1"]) == 1
    assert main(["validate-pool", "--n", "4"]) == 1
    assert "n_check <= 3" in capsys.readouterr().err


def test_cli_oracle_writes_json_report(tmp_path):
    out = tmp_path / "oracle.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "oracle", "n": 4}))
    code = main(["run", "--experiment", "oracle", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True


def test_process_level_exit_code():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from artifact.cli import main; raise SystemExit("
         "main(['validate-pool', '--n', '1']))"],
        capture_output=True, text=True)
    assert proc.returncode == 1


@pytest.mark.parametrize("argv", [
    ["run", "--experiment", "fig3", "--out", "{tmp}/missing_dir/x.csv"],
    ["run", "--experiment", "fig3", "--out", "{tmp}"],
    ["run", "--experiment", "fig3", "--config", "{tmp}",
     "--out", "{tmp}/x.csv"],
    ["summarize", "--in", "{tmp}"],
    ["gen-data", "--n", "3", "--per-class", "2", "--out", "{tmp}"],
    ["gen-data", "--n", "3", "--per-class", "2",
     "--out", "{tmp}/missing_dir/x.json"],
], ids=["run-out-missing-dir", "run-out-dir", "run-config-dir",
        "summarize-in-dir", "gen-data-out-dir", "gen-data-out-missing-dir"])
def test_cli_bad_path_exits_1_before_any_work(tmp_path, monkeypatch, capsys,
                                              argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the path was checked")

    monkeypatch.setattr("artifact.cli.run_experiment", no_work)
    monkeypatch.setattr("artifact.cli.generate_dataset", no_work)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    assert "error:" in capsys.readouterr().err
