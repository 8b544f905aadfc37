import json
from dataclasses import asdict, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovabench import cli
from ovabench import harness as harness_mod
from ovabench import heads as heads_mod
from ovabench.data import CORRUPTION_KINDS, Dataset, gen_ring, save_dataset, split
from ovabench.harness import (BATCH_BLOCK_ENTRIES, LOG_EVERY, STAGES, ExperimentConfig,
                              TrainingDiverged, centers_report,
                              derive_seed, evaluate, landscape, make_datasets, run_all,
                              shift_sweep, train, write_centers_csv, write_landscape_csv,
                              write_landscape_pgm)
from ovabench.heads import (HeadKind, logits, loss_and_grads, loss_and_predicted, predict,
                            probabilities)
from ovabench.metrics import auroc_auprc, ece, read_predictions
from ovabench.nncore import ModelParams, forward, init_params, sgd_step

from gradcheck import params_from_arrays

ALL_HEADS = list(HeadKind)


def tiny_config(seed=0, **optim):
    cfg = ExperimentConfig(seed=seed)
    cfg.data.n_per_class = 24
    cfg.optim.steps = optim.pop("steps", 60)
    cfg.optim.batch_size = 16
    cfg.optim.learning_rate = optim.pop("learning_rate", 0.01)
    cfg.landscape.resolution = 9
    cfg.metrics.num_thresholds = 11
    cfg.ood.n = 30
    return cfg


_DEFAULT = ExperimentConfig()
SECTION_FIELDS = {f.name: [g.name for g in fields(getattr(_DEFAULT, f.name))]
                  for f in fields(ExperimentConfig) if is_dataclass(getattr(_DEFAULT, f.name))}

# JSON-shaped values (NaN and infinities included, as json.loads accepts them),
# with integers well beyond the float range.
JSON_SCALARS = (st.none() | st.booleans() | st.floats() | st.integers(-3, 300)
                | st.integers(-2 ** 1100, 2 ** 1100) | st.text(max_size=6)
                | st.sampled_from(["softmax", "dm", "ova_dm", "literal", "random",
                                   *CORRUPTION_KINDS]))
JSON_VALUES = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3), max_leaves=8)

# Config dicts: one section with a field or two of its own (so the type and
# range checks of every field are reached), or any JSON under up to two
# top-level keys.
CONFIG_DICTS = st.one_of([
    st.fixed_dictionaries({name: st.dictionaries(
        st.sampled_from(names), JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3), max_size=2)})
    for name, names in SECTION_FIELDS.items()]) | st.dictionaries(
    st.sampled_from([*SECTION_FIELDS, "head", "seed", "out_dir", "bogus"]), JSON_VALUES,
    max_size=2)


def checked_train(config, head, train_data):
    """``train`` as it was when every step went through the checked ``loss_and_grads`` and
    ``sgd_step``, frozen as its oracle: (params, log), or the same ``TrainingDiverged``."""
    x, y = train_data.features, train_data.labels
    zeros = head.is_distance and config.model.distance_init == "zeros"
    params = harness_mod.init_params([x.shape[1], *config.model.hidden],
                                     config.data.num_classes, head_biases=head.uses_biases,
                                     head_init="zeros" if zeros else "glorot",
                                     seed=derive_seed(config.seed, f"init:{head.value}"))
    velocity, grads = ModelParams.zeros(params.layout), ModelParams.zeros(params.layout)
    rng = np.random.default_rng(derive_seed(config.seed, f"train:{head.value}"))
    steps, batch = config.optim.steps, config.optim.batch_size
    block = max(1, BATCH_BLOCK_ENTRIES // batch)

    def full_eval():
        value, pred = loss_and_predicted(
            head, harness_mod._embed(params, head, x, "training row")[1], y)
        return value, float((pred == y).mean())

    log = {"step": [], "loss": [], "accuracy": []}
    for first in range(1, steps + 1, block):
        idx = rng.integers(0, len(x), size=(min(block, steps + 1 - first), batch))
        for step, xs, ys in zip(range(first, steps + 1), x[idx], y[idx]):
            try:
                loss_and_grads(head, params, xs, ys, grads)
                sgd_step(params, grads, velocity, config.optim.learning_rate,
                         config.optim.momentum)
                if step % LOG_EVERY == 0 or step == steps:
                    for column, value in zip(log.values(), (step, *full_eval())):
                        column.append(value)
            except ValueError as exc:
                raise TrainingDiverged(f"training diverged at step {step} "
                                       f"for head '{head.value}': {exc}") from exc
    return params, log


def training_outcome(fn, config, head, train_data):
    """A finished run's parameter bytes and log, or the text of its ``TrainingDiverged``."""
    try:
        result = fn(config, head, train_data)
    except TrainingDiverged as exc:
        return str(exc)
    params, log = (result.params, result.log) if hasattr(result, "log") else result
    return params.flat.tobytes(), log


def identity_body_model(head_weights, head_biases=None):
    return params_from_arrays([np.eye(2)], [np.zeros(2)],
                              head_weights=np.asarray(head_weights, dtype=np.float64),
                              head_biases=head_biases)


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config(seed=5)
        again = ExperimentConfig.from_dict(asdict(cfg))
        assert asdict(again) == asdict(cfg)

    def test_from_dict_leaves_its_argument_unchanged(self):
        raw = {"seed": 3, "data": {"n_per_class": 20}, "optim": {"steps": 40}}
        kept = json.loads(json.dumps(raw))
        ExperimentConfig.from_dict(raw)
        assert raw == kept

    def test_unknown_head_rejected_before_any_training(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"head": "argmax_of_vibes"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"optimizer": {"lr": 1.0}})
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict({"optim": {"lr": 1.0}})

    def test_invalid_values_rejected(self):
        cfg = tiny_config()
        cfg.optim.learning_rate = -1.0
        with pytest.raises(ValueError):
            cfg.validate()

    @pytest.mark.parametrize("where, value", [
        ("data.num_classes", 1), ("data.n_per_class", 0), ("data.radius", 0.0),
        ("data.variance", -2.0), ("data.angle_formula", "spiral"),
        ("data.train_fraction", 0.0), ("model.hidden", [16, 0]),
        ("model.distance_init", "ones"), ("optim.learning_rate", 0.0),
        ("optim.momentum", 1.0), ("optim.batch_size", 0), ("optim.steps", -1),
        ("sweep.kinds", ["blur"]), ("sweep.intensities", [6]), ("ood.n", 0),
        ("ood.box_halfwidth", 0.0), ("ood.exclusion_radius", -1.0),
        ("metrics.num_bins", 0), ("metrics.num_thresholds", 1),
        ("landscape.resolution", 1), ("landscape.half_extent", -5.0),
        ("sweep.kinds", []), ("sweep.kinds", ["rotation", "rotation"]),
        ("sweep.intensities", []), ("sweep.intensities", [3, 3]),
        ("landscape.resolution", 1001),
        ("data.num_classes", 1001), ("data.n_per_class", 100001), ("model.hidden", [16, 4097]),
        ("optim.batch_size", 100001), ("optim.steps", 10000001), ("ood.n", 1000001),
        ("metrics.num_bins", 10001), ("metrics.num_thresholds", 100001),
        ("data.radius", 1e308), ("data.variance", 1e300), ("ood.box_halfwidth", 1e308),
        ("ood.exclusion_radius", 1e200), ("landscape.half_extent", 1e308),
    ])
    def test_range_error_names_field_and_value(self, where, value):
        section, name = where.split(".")
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_dict({section: {name: value}})
        assert str(info.value).startswith(f"{where} must be ")
        assert str(info.value).endswith(f", got {value!r}")

    @pytest.mark.parametrize("where, value", [
        ("optim.steps", "10"), ("optim.steps", 10.5), ("optim.steps", True),
        ("model.hidden", [16, "a"]), ("ood.n", 1.5)])
    def test_mistyped_attribute_is_named_before_any_step(self, monkeypatch, where, value):
        train_d = make_datasets(tiny_config())[0]
        cfg = tiny_config()
        section, name = where.split(".")
        setattr(getattr(cfg, section), name, value)
        monkeypatch.setattr("ovabench.heads.loss_and_grads", None)  # a step would fail here
        for check in (cfg.validate, lambda: train(cfg, HeadKind.SOFTMAX_AFFINE, train_d)):
            with pytest.raises(ValueError) as info:
                check()
            assert str(info.value).startswith(f"{where} must be ")
            assert str(info.value).endswith(f", got {value!r}")

    @pytest.mark.parametrize("stage, where, value", [
        ("make_datasets", "data.n_per_class", "5"),
        ("evaluate", "metrics.num_thresholds", "5"),
        ("landscape", "landscape.resolution", "10"),
        ("landscape", "landscape.resolution", 10 ** 6),  # a 7.28 TiB grid unchecked
    ], ids=["make_datasets", "evaluate", "landscape-str", "landscape-huge"])
    def test_every_stage_names_a_mistyped_attribute_and_writes_nothing(self, tmp_path, stage,
                                                                       where, value):
        cfg = tiny_config()
        _, test_d, ood = make_datasets(cfg)
        params = init_params([2, 16, 16], cfg.data.num_classes, head_biases=True, seed=0)
        section, name = where.split(".")
        setattr(getattr(cfg, section), name, value)
        head = HeadKind.SOFTMAX_AFFINE
        call = {"make_datasets": lambda: make_datasets(cfg),
                "evaluate": lambda: evaluate(params, head, test_d, ood, cfg, tmp_path),
                "landscape": lambda: landscape(params, head, cfg)}[stage]
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(f"{where} must be ")
        assert str(info.value).endswith(f", got {value!r}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("raw", [[], "seed", None])
    def test_config_that_is_not_an_object_refused(self, raw):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            ExperimentConfig.from_dict(raw)

    def test_section_replaced_by_a_dict_is_named(self):
        cfg = tiny_config()
        cfg.optim = {"steps": 10}
        with pytest.raises(ValueError, match=r"^optim must be OptimConfig, got \{'steps': 10\}$"):
            cfg.validate()

    @settings(max_examples=300, deadline=None)
    @given(CONFIG_DICTS)
    def test_any_json_config_builds_or_raises_value_error(self, raw):
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ValueError:
            return
        assert isinstance(cfg, ExperimentConfig)


class TestTrain:
    def test_zero_steps_distance_head_is_chance(self):
        cfg = tiny_config(steps=0)
        result = train(cfg, HeadKind.OVA_DISTANCE, make_datasets(cfg)[0])
        # zero centers -> all logits tie -> argmax picks class 0 -> exactly 1/K
        assert result.final_accuracy == pytest.approx(0.1, abs=1e-12)

    def test_zero_steps_affine_head_near_chance(self):
        cfg = tiny_config(steps=0)
        result = train(cfg, HeadKind.SOFTMAX_AFFINE, make_datasets(cfg)[0])
        assert result.final_accuracy < 0.35

    def test_checkpoint_and_log_written(self, tmp_path):
        cfg = tiny_config()
        result, _ = STAGES["train"](cfg, HeadKind.SOFTMAX_AFFINE, None,
                                    lambda: make_datasets(cfg), tmp_path)
        assert (tmp_path / "checkpoint.json").exists()
        log_lines = (tmp_path / "train_log.csv").read_text().splitlines()
        assert log_lines[0] == "step,loss,accuracy"
        assert len(log_lines) == 1 + len(result.log["step"])

    def test_bad_out_dir_fails_before_the_first_step(self, tmp_path, monkeypatch):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        calls = []
        monkeypatch.setattr("ovabench.heads.loss_and_grads", lambda *args: calls.append(args))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(asdict(tiny_config())))
        assert cli.main(["train", "--head", "softmax", "--config", str(config),
                         "--out", str(a_file)]) == 1
        assert calls == []

    def test_deterministic_checkpoints(self, tmp_path):
        cfg = tiny_config(seed=21)
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            STAGES["train"](cfg, HeadKind.OVA_AFFINE, None, lambda: make_datasets(cfg),
                            tmp_path / name)
        assert (tmp_path / "a/checkpoint.json").read_bytes() \
            == (tmp_path / "b/checkpoint.json").read_bytes()

    def test_divergence_reports_step_and_head(self):
        cfg = tiny_config(learning_rate=50.0, steps=400)
        with pytest.raises(TrainingDiverged, match=r"step \d+ for head 'softmax'"):
            train(cfg, HeadKind.SOFTMAX_AFFINE, make_datasets(cfg)[0])

    def test_dataset_of_another_class_count_refused(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="dataset class count does not match the config"):
            train(cfg, HeadKind.SOFTMAX_AFFINE, gen_ring(num_classes=3, n_per_class=5))

    def test_random_distance_init_option(self):
        cfg = tiny_config(steps=0)
        cfg.model.distance_init = "random"
        random_init = train(cfg, HeadKind.OVA_DISTANCE, make_datasets(cfg)[0])
        assert random_init.params.head_weights.any()
        cfg.model.distance_init = "zeros"
        zero_init = train(cfg, HeadKind.OVA_DISTANCE, make_datasets(cfg)[0])
        assert not zero_init.params.head_weights.any()

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_update_matches_per_tensor_reference_bitwise(self, head):
        # train() draws the indices of BATCH_BLOCK_ENTRIES // batch steps at once:
        # batch 16 fits in one partial block, 1000 and 30000 span several blocks
        # and end in a partial one; the reference draws once per step
        for steps, batch in ((300, 16), (300, 1000), (5, 30000)):
            cfg = tiny_config(steps=steps)
            cfg.optim.batch_size = batch
            result = train(cfg, head, make_datasets(cfg)[0])
            train_d = make_datasets(cfg)[0]
            x, y = train_d.features, train_d.labels
            params = init_params([x.shape[1], *cfg.model.hidden], cfg.data.num_classes,
                                 head_biases=head.uses_biases,
                                 head_init="zeros" if head.is_distance else "glorot",
                                 seed=derive_seed(cfg.seed, f"init:{head.value}"))
            velocity = [np.zeros(t.shape) for t in params.tensors]
            rng = np.random.default_rng(derive_seed(cfg.seed, f"train:{head.value}"))
            m, lr = cfg.optim.momentum, cfg.optim.learning_rate
            for _ in range(cfg.optim.steps):
                idx = rng.integers(0, len(x), size=cfg.optim.batch_size)
                _, grads = loss_and_grads(head, params, x[idx], y[idx],
                                          ModelParams.zeros(params.layout))
                for p, g, v in zip(params.tensors, grads.tensors, velocity, strict=True):
                    v[...] = m * v - lr * g
                    p[...] = p + v
            for name, got, want in zip(params.layout.names, result.params.tensors,
                                       params.tensors, strict=True):
                assert np.array_equal(got, want), f"{name} at {steps} steps of {batch}"

    @pytest.mark.parametrize("head", ALL_HEADS, ids=[h.value for h in ALL_HEADS])
    def test_train_equals_the_checked_loop_bitwise(self, head):
        """Steps 99 and 101 end inside an interval, 100 on its log step, and 0 has none."""
        for steps in (0, 1, 99, 100, 101, 250):
            for batch in (1, 16):
                cfg = tiny_config(steps=steps)
                cfg.optim.batch_size = batch
                train_d = make_datasets(cfg)[0]
                assert training_outcome(train, cfg, head, train_d) == \
                    training_outcome(checked_train, cfg, head, train_d), (steps, batch)

    @pytest.mark.filterwarnings("error")  # neither the unchecked steps nor the replay warn
    @pytest.mark.parametrize("head, change, learning_rate, batch, momentum, n_per_class, "
                             "steps, message", [
        (HeadKind.OVA_DISTANCE, None, 20, 16, 0.9, 24, 250, "non-finite loss for batch index"),
        (HeadKind.SOFTMAX_AFFINE, ("head_biases", 1e307), 1e-4, 1, 0.9, 2, 250,
         "non-finite loss for batch index"),
        (HeadKind.SOFTMAX_AFFINE, ("head_weights", 1e300), 1e-300, 16, 0.9, 24, 250,
         "non-finite mean loss"),
        (HeadKind.SOFTMAX_AFFINE, None, 5, 1, 0.9, 24, 250, "non-finite gradient for"),
        (HeadKind.OVA_AFFINE, ("head_biases", 1e307), 1e-3, 1, 0.0, 2, 250,
         "non-finite gradient for"),
        (HeadKind.SOFTMAX_AFFINE, ("flat", 1e-264), 1e271, 16, 0.9, 24, 250,
         "non-finite parameter"),
        (HeadKind.OVA_AFFINE, None, 50, 16, 0.9, 30, 6, "the model's logits are not finite"),
    ], ids=["loss", "loss-later-interval", "mean-loss", "gradient",
            "gradient-later-interval", "parameter", "log-evaluation"])
    def test_divergence_is_refused_as_by_the_checked_loop(self, monkeypatch, head, change,
                                                          learning_rate, batch, momentum,
                                                          n_per_class, steps, message):
        """Each kind of divergence, at the step and with the text of the checked loop.  All
        but the log evaluation's happen at steps that are not log steps, and those before step
        99 once more at the last step before a log step; a head bias of 1e307 gives losses near
        1e307 that the parameters survive for a while at small rates."""
        if change:
            monkeypatch.setattr(harness_mod, "init_params",
                                lambda *args, **kwargs: changed(init_params(*args, **kwargs)))

        def changed(params):
            tensor, value = change
            if tensor == "head_biases":
                params.head_biases[1] = value
            else:
                getattr(params, tensor)[...] *= value
            return params

        cfg = tiny_config(steps=steps, learning_rate=learning_rate)
        cfg.optim.batch_size, cfg.optim.momentum, cfg.data.n_per_class = \
            batch, momentum, n_per_class
        train_d = make_datasets(cfg)[0]
        got = training_outcome(train, cfg, head, train_d)
        assert got == training_outcome(checked_train, cfg, head, train_d)
        step, text = got.removeprefix("training diverged at step ").split(
            f" for head '{head.value}': ")
        assert text.startswith(message), got
        assert (int(step) == steps) == (message == "the model's logits are not finite"), got
        assert int(step) % LOG_EVERY or int(step) == steps, got
        if int(step) < min(steps, LOG_EVERY - 1):  # again as the interval's last unchecked step,
            cfg.optim.steps = int(step) + 1  # where only the parameters show a bad gradient
            assert training_outcome(train, cfg, head, train_d) == got

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("head", [HeadKind.SOFTMAX_AFFINE, HeadKind.OVA_AFFINE],
                             ids=["softmax", "ova"])
    def test_a_loss_sum_that_overflows_from_finite_losses_trains_on_bitwise(self, monkeypatch,
                                                                            head):
        """A head bias of 1e307 makes 9 of the 10 training rows' losses about 1e307: each
        step's loss and each log evaluation's mean are finite, but an interval's sum is not.
        The replay finds no diverging step, and training goes on with the oracle's bits."""
        def biased(*args, **kwargs):
            params = init_params(*args, **kwargs)
            params.head_biases[1] = 1e307
            return params

        monkeypatch.setattr(harness_mod, "init_params", biased)
        cfg = tiny_config(steps=250, learning_rate=1e-6)
        cfg.optim.batch_size, cfg.data.n_per_class = 1, 2
        train_d = make_datasets(cfg)[0]
        want = training_outcome(checked_train, cfg, head, train_d)
        calls = []
        real = heads_mod.loss_and_grads
        monkeypatch.setattr(heads_mod, "loss_and_grads",
                            lambda *args: calls.append(args) or real(*args))
        got = training_outcome(train, cfg, head, train_d)
        assert got == want
        assert got[1]["step"] == [100, 200, 250] and min(got[1]["loss"]) > 1e306
        assert len(calls) == 250  # every interval replayed: its 1e307 losses overflow the sum

    def test_each_log_step_and_no_other_goes_through_the_checked_pair(self, monkeypatch):
        """``bench/`` times a step from ``heads.loss_and_grads`` to the ``harness.sgd_step``
        after it: a run without divergence calls that pair once per log step, in order."""
        calls = []
        for module, name in ((heads_mod, "loss_and_grads"), (harness_mod, "sgd_step")):
            monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name),
                                name=name: calls.append(name) or real(*args))
        for steps, pairs in ((30, 1), (10000, 100)):
            calls.clear()
            cfg = tiny_config(steps=steps)
            train(cfg, HeadKind.SOFTMAX_AFFINE, make_datasets(cfg)[0])
            assert calls == ["loss_and_grads", "sgd_step"] * pairs

    @pytest.mark.parametrize("convert", [lambda f: f.astype(np.float32), np.ndarray.tolist],
                             ids=["float32", "list"])
    def test_features_become_read_only_float64_when_built_and_train_bitwise(self, convert):
        """Converted once, by ``Dataset``: float32 rows would give a float32 step.  The
        features cannot change after that, so ``train`` does not check them again."""
        cfg = tiny_config(steps=150)
        ring = make_datasets(cfg)[0]
        source = convert(ring.features)
        train_d = Dataset(source, ring.labels, 10)
        assert train_d.features.dtype == np.float64 and not train_d.features.flags.writeable
        as_float64 = Dataset(np.asarray(source, dtype=np.float64), train_d.labels, 10)
        for head in (HeadKind.SOFTMAX_AFFINE, HeadKind.OVA_DISTANCE):
            assert training_outcome(train, cfg, head, train_d) == \
                training_outcome(checked_train, cfg, head, as_float64)


def group_outcomes(config, train_data):
    """``training_outcome`` with the final accuracy, per head, of training all four in
    lockstep and of training each alone."""
    def outcome(result):
        if isinstance(result, TrainingDiverged):  # raised from the refusal, as alone
            assert str(result).endswith(f": {result.__cause__}"), result
            return str(result)
        return result.params.flat.tobytes(), result.log, result.final_accuracy

    def alone(head):
        try:
            return outcome(train(config, head, train_data))
        except TrainingDiverged as exc:
            return str(exc)

    lockstep = train(config, tuple(ALL_HEADS), train_data)
    return [outcome(r) for r in lockstep], [alone(head) for head in ALL_HEADS]


def diverging(head, change, config):
    """An ``init_params`` that applies ``change`` (tensor, factor or value) to ``head``'s
    initial parameters only, as the divergence tests do."""
    def init(*args, **kwargs):
        params = init_params(*args, **kwargs)
        if kwargs["seed"] == derive_seed(config.seed, f"init:{head.value}"):
            tensor, value = change
            if tensor == "head_biases":
                params.head_biases[1] = value
            else:
                getattr(params, tensor)[...] *= value
        return params
    return init


class TestLockstep:
    """``train`` given a tuple of heads runs one step loop for all of them."""

    def test_lockstep_equals_training_alone_bitwise(self):
        """Steps 99 and 101 end inside an interval, 100 on its log step, and 0 has none; at
        batch 1000 the lockstep block (32 steps) is a quarter of one head's (131 steps).  At
        batch 1, 99 steps and more, the affine heads diverge here and leave the stacks."""
        for steps, batch in [(s, b) for s in (0, 1, 99, 100, 101, 250) for b in (1, 16)] + [
                (300, 1000)]:
            cfg = tiny_config(steps=steps)
            cfg.optim.batch_size = batch
            lockstep, alone = group_outcomes(cfg, make_datasets(cfg)[0])
            assert lockstep == alone, (steps, batch)

    def test_a_single_head_in_a_tuple_trains_as_alone_bitwise(self):
        cfg = tiny_config(steps=150)
        train_d = make_datasets(cfg)[0]
        for head in ALL_HEADS:
            (result,) = train(cfg, (head,), train_d)
            assert training_outcome(lambda *args: result, cfg, head, train_d) == \
                training_outcome(checked_train, cfg, head, train_d)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("head, change, learning_rate, batch, momentum, n_per_class, "
                             "message", [
        (HeadKind.SOFTMAX_AFFINE, ("head_biases", 1e307), 1e-4, 1, 0.9, 2,
         "non-finite loss for batch index"),
        (HeadKind.OVA_AFFINE, ("head_biases", 1e307), 1e-3, 1, 0.0, 2,
         "non-finite gradient for"),
        (HeadKind.SOFTMAX_AFFINE, ("head_weights", 1e300), 1e-300, 16, 0.9, 24,
         "non-finite mean loss"),
        (HeadKind.OVA_DISTANCE, ("head_weights", np.nan), 0.01, 16, 0.9, 24,
         "non-finite loss for batch index"),
        (HeadKind.SOFTMAX_AFFINE, ("head_biases", 1e307), 1e-6, 1, 0.9, 2, None),
    ], ids=["loss-later-interval", "gradient-later-interval", "mean-loss", "first-step",
            "sum-overflow"])
    def test_a_diverging_head_fails_alone_bitwise(self, monkeypatch, head, change,
                                                 learning_rate, batch, momentum, n_per_class,
                                                 message):
        """The head that diverges gets the checked loop's message and step; the others, and
        a head whose replay refuses nothing (only its loss sum overflowed), train on with the
        bits they have alone."""
        cfg = tiny_config(steps=250, learning_rate=learning_rate)
        cfg.optim.batch_size, cfg.optim.momentum, cfg.data.n_per_class = \
            batch, momentum, n_per_class
        monkeypatch.setattr(harness_mod, "init_params", diverging(head, change, cfg))
        train_d = make_datasets(cfg)[0]
        lockstep, alone = group_outcomes(cfg, train_d)
        assert lockstep == alone
        for h, got in zip(ALL_HEADS, lockstep):
            if h is head and message:
                assert got == training_outcome(checked_train, cfg, head, train_d)
                assert got.split(f" for head '{head.value}': ")[1].startswith(message), got
            else:
                assert not isinstance(got, str), got

    def test_heads_diverging_in_one_interval_leave_together(self, monkeypatch):
        cfg = tiny_config(steps=250, learning_rate=1e-3)
        cfg.optim.batch_size, cfg.data.n_per_class = 1, 2
        nan = diverging(HeadKind.OVA_DISTANCE, ("head_weights", np.nan), cfg)
        monkeypatch.setattr(harness_mod, "init_params", lambda *args, **kwargs: diverging(
            HeadKind.SOFTMAX_AFFINE, ("head_biases", 1e307), cfg)(*args, **kwargs)
            if kwargs["seed"] != derive_seed(cfg.seed, "init:ova_dm") else nan(*args, **kwargs))
        lockstep, alone = group_outcomes(cfg, make_datasets(cfg)[0])
        assert lockstep == alone
        assert [isinstance(o, str) for o in lockstep] == [True, False, False, True]

    def test_each_log_step_goes_through_the_checked_pair_in_head_order(self, monkeypatch):
        """``bench/`` pairs each ``heads.loss_and_grads`` with the ``harness.sgd_step`` after it."""
        calls = []
        real = heads_mod.loss_and_grads
        monkeypatch.setattr(heads_mod, "loss_and_grads",
                            lambda head, *args: calls.append(head) or real(head, *args))
        monkeypatch.setattr(harness_mod, "sgd_step", lambda *args, real=sgd_step:
                            calls.append("sgd_step") or real(*args))
        cfg = tiny_config(steps=250)
        train(cfg, tuple(ALL_HEADS), make_datasets(cfg)[0])
        assert calls == [c for head in ALL_HEADS for c in (head, "sgd_step")] * 3


class TestEvaluate:
    def test_forced_correct_labels(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, HeadKind.SOFTMAX_AFFINE, make_datasets(cfg)[0])
        _, test_d, ood = make_datasets(cfg)
        pred, _ = predict(probabilities(
            HeadKind.SOFTMAX_AFFINE,
            logits(HeadKind.SOFTMAX_AFFINE, result.params,
                   forward(result.params, test_d.features)[-1])))
        forced = Dataset(features=test_d.features, labels=pred, num_classes=test_d.num_classes)
        summary = evaluate(result.params, HeadKind.SOFTMAX_AFFINE, forced, ood, cfg,
                           out_dir=tmp_path)
        assert summary["accuracy"] == 1.0
        # with accuracy forced to 1 per bin, ece reduces to the weighted gap to 1
        table = np.genfromtxt(tmp_path / "calibration.csv", delimiter=",", names=True)
        expected = sum((table["count"][b] / table["count"].sum())
                       * abs(1.0 - table["mean_confidence"][b])
                       for b in range(len(table)) if table["count"][b])
        assert summary["ece"] == pytest.approx(expected, abs=1e-12)

    def test_summary_recomputable_from_csv(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, HeadKind.OVA_AFFINE, make_datasets(cfg)[0])
        _, test_d, ood = make_datasets(cfg)
        summary = evaluate(result.params, HeadKind.OVA_AFFINE, test_d, ood, cfg,
                           out_dir=tmp_path)
        records = read_predictions(tmp_path / "predictions.csv")
        id_records = records[~records.is_ood]
        acc = float(np.mean(id_records.is_correct))
        ece_value, _ = ece(id_records, cfg.metrics.num_bins)
        auroc, auprc = auroc_auprc(records.confidence, ~records.is_ood)
        assert abs(acc - summary["accuracy"]) < 1e-12
        assert abs(ece_value - summary["ece"]) < 1e-12
        assert abs(auroc - summary["auroc"]) < 1e-12
        assert abs(auprc - summary["auprc"]) < 1e-12

    def test_artifact_files_written(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, HeadKind.SOFTMAX_DISTANCE, make_datasets(cfg)[0])
        _, test_d, ood = make_datasets(cfg)
        evaluate(result.params, HeadKind.SOFTMAX_DISTANCE, test_d, ood, cfg,
                 out_dir=tmp_path)
        for name in ("predictions.csv", "calibration.csv", "curve.csv",
                     "histograms.csv", "metrics.json"):
            assert (tmp_path / name).exists()

    def test_the_ood_points_every_head_scores_are_read_only(self):
        """``run_all`` hands one OOD array to each head's ``evaluate``; a write into it (once
        accepted) would change the AUROC of every head scored after it."""
        ood = make_datasets(tiny_config())[2]
        with pytest.raises(ValueError, match="read-only"):
            ood[0, 0] = 1e300


class TestLandscape:
    def test_ova_distance_confidence_one_at_center(self):
        cfg = tiny_config()
        cfg.landscape.resolution = 101  # integer grid over +-50
        model = identity_body_model(np.array([[10.0, -20.0], [-3.0, 7.0]]).T)
        grid = landscape(model, HeadKind.OVA_DISTANCE, cfg)
        i = int(np.argwhere(np.isclose(grid["x"], 10.0) & np.isclose(grid["y"], -20.0))[0][0])
        assert grid["confidence"][i] == 1.0
        assert grid["label"][i] == 0

    def test_softmax_probabilities_sum_to_one_on_grid(self):
        cfg = tiny_config()
        result = train(cfg, HeadKind.SOFTMAX_AFFINE, make_datasets(cfg)[0])
        grid_pts = np.column_stack([g.ravel() for g in np.meshgrid(
            np.linspace(-50, 50, 9), np.linspace(50, -50, 9))])
        emb = forward(result.params, grid_pts)[-1]
        p = probabilities(HeadKind.SOFTMAX_AFFINE,
                          logits(HeadKind.SOFTMAX_AFFINE, result.params, emb))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-9

    def test_grid_layout_row0_is_ymax(self):
        cfg = tiny_config()
        model = identity_body_model(np.zeros((2, 3)))
        grid = landscape(model, HeadKind.OVA_DISTANCE, cfg)
        assert grid["y"][0] == 50.0
        assert grid["y"][-1] == -50.0
        assert grid["confidence"].shape == (9 * 9,)

    def test_csv_and_pgm_outputs(self, tmp_path):
        cfg = tiny_config()
        model = identity_body_model(np.array([[0.0, 0.0]]).T)
        grid = landscape(model, HeadKind.OVA_DISTANCE, cfg)
        write_landscape_csv(tmp_path / "landscape.csv", grid)
        write_landscape_pgm(tmp_path / "landscape.pgm", grid["confidence"].reshape(9, 9))
        lines = (tmp_path / "landscape.csv").read_text().splitlines()
        assert lines[0] == "x,y,confidence,label"
        assert len(lines) == 1 + 81
        raw = (tmp_path / "landscape.pgm").read_bytes()
        assert raw.startswith(b"P5\n9 9\n255\n")
        assert len(raw) == len(b"P5\n9 9\n255\n") + 81
        # center pixel is the class center: confidence 1 -> 255
        center = raw[len(b"P5\n9 9\n255\n") + 4 * 9 + 4]
        assert center == 255


class TestCentersReport:
    def test_affine_head_refused(self):
        cfg = tiny_config()
        model = identity_body_model(np.zeros((2, 3)), head_biases=np.zeros(3))
        data = gen_ring(num_classes=3, n_per_class=5, seed=1)
        with pytest.raises(ValueError, match="center"):
            centers_report(model, HeadKind.SOFTMAX_AFFINE, data)

    def test_forced_alignment_is_zero(self):
        data = gen_ring(num_classes=4, n_per_class=30, seed=2)
        emb_means = np.stack([data.features[data.labels == c].mean(axis=0)
                              for c in range(4)])
        model = identity_body_model(emb_means.T)
        report = centers_report(model, HeadKind.OVA_DISTANCE, data)
        assert np.abs(report["alignment_error"][-4:]).max() < 1e-12  # the 4 center rows

    def test_class_without_training_points_refused(self):
        data = gen_ring(num_classes=3, n_per_class=5, seed=4)
        data = Dataset(data.features[data.labels != 1], data.labels[data.labels != 1], 3)
        model = identity_body_model(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="class 1 has no points in the training data"):
            centers_report(model, HeadKind.SOFTMAX_DISTANCE, data)

    def test_csv_row_count_is_n_plus_k(self, tmp_path):
        data = gen_ring(num_classes=4, n_per_class=30, seed=3)
        model = identity_body_model(np.random.default_rng(0).standard_normal((2, 4)))
        report = centers_report(model, HeadKind.SOFTMAX_DISTANCE, data)
        write_centers_csv(tmp_path / "centers.csv", report)
        lines = (tmp_path / "centers.csv").read_text().splitlines()
        assert len(lines) == 1 + len(data) + 4


class TestShiftSweep:
    def test_clean_row_matches_direct_evaluation(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, HeadKind.SOFTMAX_AFFINE, make_datasets(cfg)[0])
        _, test_d, ood = make_datasets(cfg)
        cols = shift_sweep(result.params, HeadKind.SOFTMAX_AFFINE, test_d, cfg, tmp_path)
        summary = evaluate(result.params, HeadKind.SOFTMAX_AFFINE, test_d, ood, cfg, tmp_path)
        assert cols["kind"][0] == "none" and cols["intensity"][0] == 0
        assert cols["accuracy"][0] == pytest.approx(summary["accuracy"], abs=1e-12)
        assert cols["ece"][0] == pytest.approx(summary["ece"], abs=1e-12)

    def test_constant_predictor_invariant_to_rotation(self, tmp_path):
        cfg = tiny_config()
        cfg.sweep.kinds = ["rotation"]
        model = identity_body_model(np.zeros((2, 10)))  # all logits tie -> always class 0
        _, test_d, _ = make_datasets(cfg)
        sweep = shift_sweep(model, HeadKind.OVA_DISTANCE, test_d, cfg, tmp_path)
        accs = set(sweep["accuracy"])
        assert len(accs) == 1  # rotation preserves both labels and the prediction

    @pytest.mark.parametrize("where, value", [("sweep.kinds", []),
                                              ("sweep.intensities", [2, 2])])
    def test_empty_or_repeated_sweep_list_refused(self, tmp_path, where, value):
        cfg = tiny_config()
        setattr(cfg.sweep, where.split(".")[1], value)
        model = identity_body_model(np.zeros((2, 10)))
        with pytest.raises(ValueError, match=rf"^{where} must be "):
            shift_sweep(model, HeadKind.OVA_DISTANCE, make_datasets(tiny_config())[1], cfg,
                        tmp_path)

    def test_stats_cover_each_intensity(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, HeadKind.OVA_DISTANCE, make_datasets(cfg)[0])
        _, test_d, _ = make_datasets(cfg)
        shift_sweep(result.params, HeadKind.OVA_DISTANCE, test_d, cfg, out_dir=tmp_path)
        stats = (tmp_path / "sweep_stats.csv").read_text().splitlines()[1:]
        assert {int(line.split(",")[0]) for line in stats} == {1, 2, 3, 4, 5}
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep_stats.csv").exists()
        dumps = list((tmp_path / "shift").glob("predictions_*.csv"))
        assert len(dumps) == 1 + 2 * 5  # clean + kinds x intensities

    def test_sweep_rows_recomputable_from_dumps(self, tmp_path):
        cfg = tiny_config()
        result = train(cfg, HeadKind.SOFTMAX_DISTANCE, make_datasets(cfg)[0])
        _, test_d, _ = make_datasets(cfg)
        sweep = shift_sweep(result.params, HeadKind.SOFTMAX_DISTANCE, test_d, cfg,
                            out_dir=tmp_path)
        for kind, intensity, accuracy, ece_value in zip(*sweep.values()):
            dump = tmp_path / "shift" / f"predictions_{kind}_{intensity}.csv"
            records = read_predictions(dump)
            acc = float(np.mean(records.is_correct))
            value, _ = ece(records, cfg.metrics.num_bins)
            assert abs(acc - accuracy) < 1e-12
            assert abs(value - ece_value) < 1e-12

    def test_refused_sweep_leaves_no_shift_directory(self, tmp_path):
        cfg = tiny_config()
        params = init_params([2, *cfg.model.hidden], 10, head_biases=False, seed=5)
        params.flat *= 1e160  # finite, but the body overflows on every input
        with pytest.raises(ValueError, match="not finite for test row 0"):
            shift_sweep(params, HeadKind.SOFTMAX_DISTANCE, make_datasets(cfg)[1], cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []


EXPECTED_EVAL_FILES = ("metrics.json", "predictions.csv", "calibration.csv",
                       "curve.csv", "sweep.csv", "landscape.csv")


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runall")
    cfg = tiny_config(seed=3)
    outcome = run_all(cfg, out)
    return cfg, outcome, out


class TestRunAll:
    def test_all_stages_ok(self, completed_run):
        _, outcome, _ = completed_run
        assert outcome.ok
        for head, stages in outcome.manifest["stages"].items():
            assert all(state == "ok" for state in stages.values()), (head, stages)

    def test_directory_contract(self, completed_run):
        _, _, out = completed_run
        for head in ALL_HEADS:
            head_dir = out / head.value
            for name in EXPECTED_EVAL_FILES:
                assert (head_dir / name).exists(), (head.value, name)
            assert (head_dir / "checkpoint.json").exists()
            assert (head_dir / "landscape.pgm").exists()
            assert (head_dir / "centers.csv").exists() == head.is_distance
        assert (out / "comparison.csv").exists()
        assert (out / "MANIFEST.json").exists()
        assert (out / "data" / "train.csv").exists()
        assert (out / "data" / "test.meta.json").exists()

    def test_comparison_matches_per_head_summaries(self, completed_run):
        _, _, out = completed_run
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            head, _, acc, ece_s, auroc_s, _ = row.split(",")
            summary = json.loads((out / head / "metrics.json").read_text())
            assert abs(float(acc) - summary["accuracy"]) < 1e-12
            assert abs(float(ece_s) - summary["ece"]) < 1e-12
            assert abs(float(auroc_s) - summary["auroc"]) < 1e-12

    def test_rerun_bitwise_identical(self, completed_run, tmp_path):
        cfg, _, out = completed_run
        second = run_all(cfg, tmp_path / "again")
        assert second.ok
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        again = {p.relative_to(tmp_path / "again"): p.read_bytes()
                 for p in (tmp_path / "again").rglob("*") if p.is_file()}
        assert again.keys() == files.keys()
        for name, content in files.items():
            assert again[name] == content, name

    def test_sidecars_regenerate_the_data(self, completed_run, tmp_path):
        _, _, out = completed_run
        seed = json.loads((out / "MANIFEST.json").read_text())["config"]["seed"]
        meta = json.loads((out / "data" / "train.meta.json").read_text())
        p = meta["params"]
        ring = gen_ring(p["num_classes"], p["n_per_class"], p["radius"], p["variance"],
                        seed=meta["seed"], angle_formula=p["angle_formula"])
        halves = split(ring, p["train_fraction"], seed=derive_seed(seed, "split"))
        for name, half in zip(("train", "test"), halves):
            save_dataset(tmp_path / f"{name}.csv", half, p, meta["seed"])
            for suffix in (".csv", ".meta.json"):
                assert ((tmp_path / name).with_suffix(suffix).read_bytes()
                        == (out / "data" / name).with_suffix(suffix).read_bytes()), name

    def test_a_head_that_diverges_fails_alone(self, completed_run, tmp_path, monkeypatch):
        """All four heads train in one lockstep loop; one that diverges leaves it, and the
        other three write the files they write in a run without the fault."""
        cfg, _, out = completed_run
        monkeypatch.setattr(harness_mod, "init_params",
                            diverging(HeadKind.OVA_DISTANCE, ("head_weights", np.nan), cfg))
        outcome = run_all(cfg, tmp_path / "one_diverged")
        stages = outcome.manifest["stages"]
        assert not outcome.ok
        assert stages["ova_dm"]["train"].startswith(
            "failed: training diverged at step 1 for head 'ova_dm': non-finite loss for batch "
            "index "), stages["ova_dm"]
        assert {name: state for name, state in stages["ova_dm"].items() if name != "train"} \
            == dict.fromkeys(["evaluate", "sweep", "landscape", "centers"], "skipped")
        assert not any((tmp_path / "one_diverged" / "ova_dm").iterdir())
        for head in ("softmax", "dm", "ova"):
            assert set(stages[head].values()) == {"ok"}, stages[head]
        for name in ("data", "softmax", "dm", "ova"):
            files = sorted(p for p in (out / name).rglob("*") if p.is_file())
            assert files and [p.read_bytes() for p in files] == [
                (tmp_path / "one_diverged" / p.relative_to(out)).read_bytes() for p in files]

    def test_invalid_config_rejected_upfront(self, tmp_path):
        cfg = tiny_config()
        cfg.landscape.resolution = 1
        with pytest.raises(ValueError):
            run_all(cfg, tmp_path / "never")
        assert not (tmp_path / "never").exists()

    @pytest.mark.filterwarnings("error")  # refused without a warning first
    def test_log_evaluation_divergence_is_recorded_with_step_and_head(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "optim": {"learning_rate": 50, "steps": 6, "batch_size": 16},
            "data": {"n_per_class": 30}, "landscape": {"resolution": 10}})
        stages = run_all(cfg, tmp_path / "diverged").manifest["stages"]
        for head in ("softmax", "ova"):
            assert stages[head]["train"].startswith(
                f"failed: training diverged at step 6 for head '{head}': the model's logits "
                "are not finite for training row 0 (input ["), stages[head]
            assert stages[head]["evaluate"] == "skipped"

    def test_centers_refused_for_fewer_than_three_training_rows(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "data": {"num_classes": 2, "n_per_class": 1, "train_fraction": 1.0},
            "optim": {"steps": 5}, "landscape": {"resolution": 4}})
        outcome = run_all(cfg, tmp_path / "two_rows")
        assert not outcome.ok
        for head, stages in outcome.manifest["stages"].items():
            assert {stages[name] for name in ("train", "evaluate", "sweep", "landscape")} \
                == {"ok"}, (head, stages)
            if head in ("dm", "ova_dm"):
                assert stages["centers"] == (
                    "failed: data.num_classes 2, data.n_per_class 1 and data.train_fraction "
                    "1.0 leave 2 training rows; centers need >= 3")
            assert not (tmp_path / "two_rows" / head / "centers.csv").exists()

    def test_stage_failure_recorded_and_artifacts_retained(self, tmp_path, monkeypatch):
        import ovabench.harness as harness_mod

        def broken_landscape(params, head, config):
            raise RuntimeError("synthetic stage failure")

        monkeypatch.setattr(harness_mod, "landscape", broken_landscape)
        outcome = run_all(tiny_config(), tmp_path / "partial")
        assert not outcome.ok
        manifest = json.loads((tmp_path / "partial" / "MANIFEST.json").read_text())
        assert manifest["completed"] is False
        for head, stages in manifest["stages"].items():
            assert stages["landscape"].startswith("failed: synthetic")
            assert stages["train"] == "ok"
            if head in ("dm", "ova_dm"):
                assert stages["centers"] == "skipped"
        # artifacts from the stages that ran are still on disk
        assert (tmp_path / "partial" / "softmax" / "metrics.json").exists()
        assert not (tmp_path / "partial" / "softmax" / "landscape.csv").exists()
