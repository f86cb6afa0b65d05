"""Model zoo and training loop tests."""

import numpy as np
import pytest

from repro.workloads.frameworks import LibraryBundle, evaluate, train
from repro.workloads.frameworks.datasets import dataset_for
from repro.workloads.frameworks.networks import (
    CAFFE_MODELS,
    MODEL_ZOO,
    PYTORCH_MODELS,
)


@pytest.fixture
def libs(native_stack):
    """Sampled execution: fast, fine for shape/inventory checks."""
    device, _, runtime = native_stack
    device.max_blocks_per_launch = 8
    return LibraryBundle.create(runtime)


@pytest.fixture
def libs_exact(native_stack):
    """Full execution: required when numerical convergence matters."""
    _, _, runtime = native_stack
    return LibraryBundle.create(runtime)


class TestZooInventory:
    def test_all_paper_models_present(self):
        expected = {"lenet", "siamese", "cifar10", "cv", "rnn",
                    "googlenet", "alexnet", "caffenet", "vgg11",
                    "mobilenetv2", "resnet50"}
        assert expected == set(MODEL_ZOO)

    def test_framework_split_covers_zoo(self):
        assert set(CAFFE_MODELS) | set(PYTORCH_MODELS) == set(MODEL_ZOO)
        assert not set(CAFFE_MODELS) & set(PYTORCH_MODELS)

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_models_construct_with_parameters(self, libs, name):
        model = MODEL_ZOO[name](libs)
        assert model.parameter_count() > 0
        assert model.num_classes == 10


class TestForwardShapes:
    @pytest.mark.parametrize("name", ["lenet", "cifar10", "cv",
                                      "alexnet", "caffenet", "vgg11",
                                      "resnet50", "mobilenetv2",
                                      "googlenet"])
    def test_logits_shape(self, libs, name):
        from repro.workloads.frameworks.tensor import DeviceTensor

        model = MODEL_ZOO[name](libs)
        data = dataset_for(model.input_shape, samples=4)
        batch = next(data.batches(4))
        x = DeviceTensor.from_host(libs.runtime, batch.images)
        logits = model.forward(x)
        assert logits.shape == (4, 10)
        values = logits.download()
        assert np.isfinite(values).all()

    def test_rnn_logits(self, libs):
        from repro.workloads.frameworks.tensor import DeviceTensor

        model = MODEL_ZOO["rnn"](libs)
        data = dataset_for(model.input_shape, samples=4)
        batch = next(data.batches(4))
        x = DeviceTensor.from_host(libs.runtime, batch.images)
        logits = model.forward(x)
        assert logits.shape == (4, 10)


class TestTraining:
    def test_lenet_loss_decreases(self, libs_exact, native_stack):
        libs = libs_exact
        model = MODEL_ZOO["lenet"](libs)
        data = dataset_for(model.input_shape, samples=16)
        result = train(model, data, epochs=3, batch_size=8, lr=0.1)
        assert result.batches == 6
        assert result.final_loss < result.first_loss
        # A block handed back to the per-thread engine, or a span
        # re-run block by block, is still exact, so an engine bug would
        # only show as a slower launch: pin that every block of LeNet
        # is vectorised, and a whole grid at a time (counts, not
        # timing: no launch of LeNet needs more than two passes).
        device = native_stack[0]
        executor = device.executor
        assert executor.engine_blocks["block"] > 0
        assert executor.engine_blocks["thread"] == 0
        assert executor.engine_blocks["fallback"] == 0
        assert executor.span_bails == 0
        launches = device.metrics.kernels_launched
        assert launches < executor.engine_blocks["block"]
        assert executor.engine_passes <= 2 * launches

    def test_rnn_trains_output_layer(self, libs_exact):
        libs = libs_exact
        model = MODEL_ZOO["rnn"](libs)
        data = dataset_for(model.input_shape, samples=16)
        result = train(model, data, epochs=4, batch_size=8, lr=0.2)
        assert result.final_loss < result.first_loss

    def test_siamese_pair_training(self, libs):
        model = MODEL_ZOO["siamese"](libs)
        data = dataset_for(model.input_shape, samples=16)
        result = train(model, data, epochs=2, batch_size=8, lr=0.05)
        assert result.batches == 4
        assert np.isfinite(result.losses).all()

    def test_evaluate_returns_accuracy(self, libs):
        model = MODEL_ZOO["lenet"](libs)
        data = dataset_for(model.input_shape, samples=16)
        result = evaluate(model, data, batch_size=8)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.samples == 16

    def test_training_beats_chance(self, libs_exact):
        libs = libs_exact
        model = MODEL_ZOO["lenet"](libs)
        data = dataset_for(model.input_shape, samples=24)
        train(model, data, epochs=4, batch_size=8, lr=0.1)
        result = evaluate(model, data, batch_size=8)
        assert result.accuracy > 0.2  # chance is 0.1
