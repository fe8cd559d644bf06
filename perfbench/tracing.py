"""In-memory span tracer that wraps the workbench's public functions.

Each wrapper is installed where the caller looks the name up: the harness
and qnn_var bind names with ``from .x import f``, so the harness's own
``extract_feature_matrix`` attribute is wrapped, not only the one in
qnn_meas. ``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, trial]``: ``parent`` indexes the span
that was open when this one started (-1 for none) and ``trial`` is the trial
whose training pool was drawn last. Spans stay in memory until
``write_spans``; ``layer_metrics`` derives self times and counts from them.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("dataset", "symmetry", "statevec", "qnn_meas", "qnn_var",
          "classical", "optim", "harness")
ROOT = "harness.run_experiment"
EMIT = "harness.emit_csv"

# (owner, attribute, span name). The owner is the module (or module:class)
# whose code looks the attribute up at call time.
TARGETS = (
    ("artifact.harness", "generate_dataset", "dataset.generate_dataset"),
    ("artifact.harness", "sample_pair", "dataset.sample_pair_test"),
    ("artifact.dataset", "sample_pair", "dataset.sample_pair"),
    ("artifact.harness", "build_pool", "symmetry.build_pool"),
    ("artifact.symmetry", "build_pool", "symmetry.build_pool"),
    ("artifact.harness", "extract_feature_matrix",
     "qnn_meas.extract_feature_matrix"),
    ("artifact.harness", "lasso_fit", "qnn_meas.lasso_fit"),
    ("artifact.harness", "train_qnn_u", "qnn_var.train_qnn_u"),
    ("artifact.qnn_var", "loss_and_gradient", "qnn_var.loss_and_gradient"),
    ("artifact.qnn_var", "model_eval", "qnn_var.model_eval"),
    ("artifact.qnn_var", "apply_ansatz", "qnn_var.apply_ansatz"),
    ("artifact.qnn_var", "apply_observable", "statevec.apply_observable"),
    ("artifact.statevec", "apply_observable", "statevec.apply_observable"),
    ("artifact.harness", "train_siamese", "classical.train_siamese"),
    ("artifact.classical:SiameseModel", "forward", "classical.forward"),
    ("artifact.classical:SiameseModel", "loss_and_gradients",
     "classical.loss_and_gradients"),
    ("artifact.qnn_var", "adam_step", "optim.adam_step"),
    ("artifact.classical", "adam_step", "optim.adam_step"),
)


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans and counts around the wrapped calls while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self.trial = -1
        self.trial_of_seed = {}  # training-pool seed -> trial index
        self._unique_rows = set()
        self._units = {}
        self._stack = []
        self._saved = []

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, self.trial]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span the benchmark opens itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # ------------------------------------------------------ installation

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for path, attr, name in TARGETS:
            owner = _owner(path)
            original = vars(owner).get(attr)
            if original is None:
                if f"{path}.{attr}" not in self.missing:
                    self.missing.append(f"{path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    @staticmethod
    def restored(originals) -> bool:
        """True when every target is again the object in ``originals``."""
        return all(vars(_owner(path)).get(attr) is originals[(path, attr)]
                   for path, attr, _ in TARGETS)

    @staticmethod
    def originals():
        return {(path, attr): vars(_owner(path)).get(attr)
                for path, attr, _ in TARGETS}

    def _wrap(self, fn, name):
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            span = open_(before(args, kwargs) if before else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------- counters

    def _before_dataset_generate_dataset(self, args, kwargs):
        self.trial = self.trial_of_seed.get(_arg(args, kwargs, 3, "seed"),
                                             -1)
        return "dataset.generate_dataset"

    def _after_qnn_meas_extract_feature_matrix(self, args, kwargs, result):
        n = _arg(args, kwargs, 1, "pool").n
        self.counts["feature_rows"] += len(result)
        self._unique_rows.update((self.trial, n, s.key())
                                 for s in _arg(args, kwargs, 0, "samples"))
        self.counts["unique_feature_rows"] = len(self._unique_rows)

    def _after_qnn_meas_lasso_fit(self, args, kwargs, result):
        self.counts["lasso_fits"] += 1
        self.counts["lasso_sweeps"] += int(result.sweeps_used)
        self.counts["lasso_converged"] += bool(result.converged)

    def _count_split_overlap(self, args, kwargs):
        train = {s.key() for s in _arg(args, kwargs, 0, "train_samples")}
        test = kwargs.get("test_samples") or ()
        self.counts["split_overlap"] += sum(s.key() in train for s in test)

    def _before_qnn_var_train_qnn_u(self, args, kwargs):
        self._count_split_overlap(args, kwargs)
        return "qnn_var.train_qnn_u"

    def _before_classical_train_siamese(self, args, kwargs):
        self._count_split_overlap(args, kwargs)
        kind = _arg(args, kwargs, 1, "spec").kind()
        return "classical.train_siamese." + ("dnn" if kind == "mlp" else "cnn")

    def _after_classical_train_siamese(self, args, kwargs, result):
        self.counts["siamese_runs"] += 1
        self.counts["stopped_early"] += bool(result.stopped_early)

    def _after_statevec_apply_observable(self, args, kwargs, result):
        state = _arg(args, kwargs, 0, "state")
        expr = _arg(args, kwargs, 1, "expr")
        units = self._units.get(id(expr))
        if units is None:
            units = sum(len(getattr(f, "terms", (f,))) for f in expr.factors)
            self._units[id(expr)] = units
        # computed, not measured: each primitive (one Pauli term, SWAP or
        # WHT) reads the whole state and writes a state of the same size
        self.counts["bytes_moved"] += 2 * units * getattr(state, "nbytes", 0)

    # ------------------------------------------------------------ output

    def write_spans(self, path):
        """Gzipped CSV, one span per line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8",
                       newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("name", "start", "end", "parent", "trial"))
            writer.writerows(self.spans)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, call_start, test_draws_accepted):
    """Per-layer metrics from the spans; ``call_start`` indexes the first
    span of the traced call (earlier spans belong to set-up)."""
    spans = tracer.spans
    count = Counter()
    incl = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        count[name] += 1
        incl[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_by_layer = defaultdict(float)
    root_self = 0.0
    call_self = defaultdict(float)
    eval_forward = 0.0
    dataset_top = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        own = end - start - child[i]
        self_by_layer[layer] += own
        if name == ROOT:
            root_self += own
        if i >= call_start:
            call_self[layer] += own
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "classical.forward" \
                and parent_name != "classical.loss_and_gradients":
            eval_forward += end - start
        if layer == "dataset" and not parent_name.startswith("dataset."):
            dataset_top += end - start
    c = tracer.counts
    wall = incl[ROOT] + incl[EMIT]
    epochs_u = count["qnn_var.loss_and_gradient"]
    epochs_c = count["classical.loss_and_gradients"]
    test_draws = count["dataset.sample_pair_test"]
    out = {
        "qnn_var.train_s": (incl["qnn_var.train_qnn_u"], "s"),
        "qnn_var.grad_s": (incl["qnn_var.loss_and_gradient"], "s"),
        "qnn_var.eval_s": (incl["qnn_var.model_eval"], "s"),
        "qnn_var.circuit_passes": (count["qnn_var.apply_ansatz"], "count"),
        "qnn_var.passes_per_epoch": (
            _ratio(count["qnn_var.apply_ansatz"], epochs_u), "count"),
        "statevec.apply_observable_calls": (
            count["statevec.apply_observable"], "count"),
        "statevec.apply_observable_s": (
            incl["statevec.apply_observable"], "s"),
        "statevec.bytes_moved_computed": (c["bytes_moved"], "B"),
        "qnn_meas.features_s": (incl["qnn_meas.extract_feature_matrix"], "s"),
        "qnn_meas.feature_rows": (c["feature_rows"], "count"),
        "qnn_meas.unique_row_ratio": (
            _ratio(c["unique_feature_rows"], c["feature_rows"]), "ratio"),
        "qnn_meas.lasso_s": (incl["qnn_meas.lasso_fit"], "s"),
        "qnn_meas.lasso_sweeps": (c["lasso_sweeps"], "count"),
        "qnn_meas.lasso_converged_ratio": (
            _ratio(c["lasso_converged"], c["lasso_fits"]), "ratio"),
        "classical.dnn.train_s": (incl["classical.train_siamese.dnn"], "s"),
        "classical.cnn.train_s": (incl["classical.train_siamese.cnn"], "s"),
        "classical.fwd_bwd_s": (incl["classical.loss_and_gradients"], "s"),
        "classical.eval_forward_s": (eval_forward, "s"),
        "classical.forwards_per_epoch": (
            _ratio(count["classical.forward"], epochs_c), "count"),
        "classical.epochs": (epochs_c, "count"),
        "classical.early_stop_ratio": (
            _ratio(c["stopped_early"], c["siamese_runs"]), "ratio"),
        "optim.adam_s": (incl["optim.adam_step"], "s"),
        "optim.adam_steps": (count["optim.adam_step"], "count"),
        "dataset.sample_s": (dataset_top, "s"),
        "dataset.pairs_drawn": (
            count["dataset.sample_pair"] + test_draws, "count"),
        "dataset.test_accept_ratio": (
            _ratio(test_draws_accepted, test_draws), "ratio"),
        "symmetry.build_pool_s": (incl["symmetry.build_pool"], "s"),
        "symmetry.build_pool_calls": (count["symmetry.build_pool"], "count"),
        "harness.emit_csv_s": (incl[EMIT], "s"),
        "trace.coverage": (
            _ratio(sum(v for k, v in call_self.items() if k != "harness"),
                   wall), "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    # trial time no wrapped call covers; emit_csv has its own metric
    out["harness.self_s"] = (root_self, "s")
    return out
