"""Tests for the benchmark zoo, the CryptoNets/HE baseline and the
analysis helpers (Fig. 5 pipeline, Fig. 6 crossover, throughput)."""


import numpy as np
import pytest

from repro.analysis import (
    ascii_gantt,
    ascii_plot,
    characterize,
    compute_delay_curves,
    find_crossover,
    schedule,
    schedule_from_result,
)
from repro.baselines import (
    CryptoNetsCostModel,
    CryptoNetsInference,
    HEContext,
    HEParams,
    Square,
)
from repro.errors import ReproError
from repro.nn import Adam, Dense, Sequential, TrainConfig, Trainer, accuracy
from repro.zoo import (
    PAPER_ARCHITECTURES,
    PAPER_FOLDS,
    benchmark_dataset,
    build_benchmark3_model,
)


def _macs(arch):
    """Linear-layer MACs of an architecture (what Table 5 divides)."""
    return sum(layer.a * layer.b for layer in arch.layers if layer.kind in ("fc", "conv"))


class TestZoo:
    def test_architecture_macs(self):
        assert _macs(PAPER_ARCHITECTURES["benchmark3"]) == 617 * 50 + 50 * 26
        assert (
            _macs(PAPER_ARCHITECTURES["benchmark4"])
            == 5625 * 2000 + 2000 * 500 + 500 * 19
        )

    def test_benchmark1_paper_arithmetic_flag(self):
        from repro.zoo import benchmark1_architecture

        paper = benchmark1_architecture(paper_arithmetic=True)
        fixed = benchmark1_architecture(paper_arithmetic=False)
        assert _macs(paper) - _macs(fixed) == (865 - 845) * 100

    def test_folds_table(self):
        assert PAPER_FOLDS == {
            "benchmark1": 9, "benchmark2": 12, "benchmark3": 6, "benchmark4": 120
        }

    def test_scaled_model_trains(self):
        x, y = benchmark_dataset("benchmark3", 600, seed=1)
        model = build_benchmark3_model(scale=0.5, seed=2)
        Trainer(model, TrainConfig(epochs=8, learning_rate=0.05)).fit(x, y)
        assert accuracy(model.predict(x), y) > 0.9

    def test_dataset_shapes(self):
        x1, _ = benchmark_dataset("benchmark1", 10)
        x2, _ = benchmark_dataset("benchmark2", 10)
        x3, _ = benchmark_dataset("benchmark3", 10)
        x4, _ = benchmark_dataset("benchmark4", 10)
        assert x1.shape[1:] == (28, 28, 1)
        assert x2.shape[1] == 784
        assert x3.shape[1] == 617
        assert x4.shape[1] == 5625

    def test_build_service_engine_wiring(self):
        """zoo benchmarks plug straight into the unified engine API."""
        from repro.circuits import FixedPointFormat
        from repro.engine import EngineConfig
        from repro.zoo import build_service

        service, (x, _) = build_service(
            "benchmark3",
            scale=0.05,
            config=EngineConfig(
                fmt=FixedPointFormat(2, 6),
                activation="exact",
                backend="simulate",
            ),
            n_train=200,
            epochs=4,
            seed=3,
        )
        record = service.infer(x[0])
        assert record.backend == "simulate"
        assert record.label == service.cleartext_label(x[0])

    def test_build_service_unknown_benchmark(self):
        from repro.zoo import build_service

        with pytest.raises(KeyError):
            build_service("benchmark9")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            benchmark_dataset("benchmark9", 10)


class TestHESimulator:
    def test_encrypt_decrypt_roundtrip(self):
        ctx = HEContext(HEParams(poly_degree=16))
        values = np.array([1, -5, 1000, 0])
        assert (ctx.decrypt(ctx.encrypt(values), 4) == values).all()

    def test_add_and_multiply_plain(self):
        ctx = HEContext(HEParams(poly_degree=8))
        a = ctx.encrypt(np.array([3, -2]))
        b = ctx.encrypt(np.array([10, 5]))
        total = ctx.add(a, b)
        assert (ctx.decrypt(total, 2) == [13, 3]).all()
        scaled = ctx.multiply_plain(total, -2)
        assert (ctx.decrypt(scaled, 2) == [-26, -6]).all()

    def test_ct_multiply_burns_noise(self):
        ctx = HEContext(HEParams(poly_degree=8, initial_noise_bits=100))
        a = ctx.encrypt(np.array([4]))
        squared = ctx.multiply(a, a)
        assert squared.noise_budget_bits < a.noise_budget_bits - 20
        assert squared.level == 1

    def test_exhausted_budget_corrupts(self):
        ctx = HEContext(HEParams(poly_degree=8, initial_noise_bits=30))
        a = ctx.encrypt(np.array([4]))
        for _ in range(3):
            a = ctx.multiply(a, a)
        assert not a.is_decryptable
        # the slots stay exact; what decrypts is noise
        assert ctx.decrypt(a, 1)[0] != a.slots[0]

    def test_batch_limit_enforced(self):
        ctx = HEContext(HEParams(poly_degree=4))
        with pytest.raises(ReproError):
            ctx.encrypt(np.zeros(5))

    def test_op_counting(self):
        ctx = HEContext(HEParams(poly_degree=8))
        a = ctx.encrypt(np.array([1]))
        ctx.add(a, a)
        ctx.multiply_plain(a, 3)
        assert ctx.op_counts["encrypt"] == 1
        assert ctx.op_counts["add"] == 1
        assert ctx.op_counts["mul_plain"] == 1


class TestCryptoNets:
    @pytest.fixture(scope="class")
    def square_net(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(600, 16))
        w = rng.normal(size=(16, 4))
        y = (x @ w).argmax(axis=1)
        model = Sequential(
            [Dense(16, use_bias=True), Square(), Dense(4, use_bias=True)],
            input_shape=(16,), seed=1,
        )
        Trainer(model, TrainConfig(epochs=120, batch_size=64),
                optimizer=Adam(0.01)).fit(x, y)
        return model, x, y

    def test_square_activation_trains(self, square_net):
        model, x, y = square_net
        assert accuracy(model.predict(x), y) > 0.95

    def test_he_inference_matches_plain_with_budget(self, square_net):
        model, x, y = square_net
        inference = CryptoNetsInference(
            model, HEParams(poly_degree=256, initial_noise_bits=250.0)
        )
        he_acc = accuracy(inference.predict(x[:256]), y[:256])
        plain_acc = accuracy(model.predict(x[:256]), y[:256])
        assert he_acc >= plain_acc - 0.06

    def test_privacy_utility_tradeoff(self, square_net):
        """Limitation (i): shrinking the noise budget (=more compact,
        'higher-privacy' parameters) destroys utility."""
        model, x, y = square_net
        tight = CryptoNetsInference(
            model, HEParams(poly_degree=256, initial_noise_bits=55.0)
        )
        assert accuracy(tight.predict(x[:256]), y[:256]) < 0.6

    def test_noise_spent_does_not_depend_on_the_start(self, square_net):
        """The circuit's depth fixes the noise it burns: a smaller initial
        budget ends that much lower, and below zero the slots corrupt."""
        model, x, _ = square_net
        budgets = [
            CryptoNetsInference(
                model, HEParams(poly_degree=256, initial_noise_bits=bits)
            ).min_noise_budget(x[:8])
            for bits in (250.0, 55.0)
        ]
        assert budgets[0] > 0 > budgets[1]
        assert budgets[0] - budgets[1] == pytest.approx(195.0)

    def test_non_dense_square_rejected(self):
        from repro.nn import Tanh

        model = Sequential([Dense(4), Tanh(), Dense(2)], input_shape=(3,))
        with pytest.raises(ReproError):
            CryptoNetsInference(model)

    def test_cost_model_steps(self):
        cost = CryptoNetsCostModel()
        assert cost.delay_seconds(1) == cost.delay_seconds(8192) == 570.11
        assert cost.delay_seconds(8193) == pytest.approx(2 * 570.11)
        assert cost.delay_seconds(0) == 0.0


class TestFigure6:
    def test_paper_crossovers(self):
        curves = compute_delay_curves()
        assert abs(curves.crossover_plain - 288) <= 2
        assert abs(curves.crossover_preprocessed - 2590) <= 10

    def test_table6_calibration_crossovers(self):
        """With Table 6's 570.11 s the crossovers move to 58/527 —
        the internal inconsistency EXPERIMENTS.md documents."""
        cost = CryptoNetsCostModel(batch_latency_s=570.11)
        assert find_crossover(9.67, cost) == 58
        assert find_crossover(1.08, cost) == 527

    def test_deepsecure_linear(self):
        curves = compute_delay_curves()
        ratio = curves.deepsecure_plain[-1] / curves.samples[-1]
        assert ratio == pytest.approx(9.67)

    def test_always_winning_case(self):
        # per-sample fast enough that GC wins across every window
        cost = CryptoNetsCostModel(batch_latency_s=570.11)
        assert find_crossover(570.11 / 8192 / 2, cost) >= 8192 * 32

    def test_ascii_plot_renders(self):
        text = ascii_plot(compute_delay_curves())
        assert "CryptoNets" in text and "#" in text


class TestPipelineSchedule:
    def test_overlap_beats_serial(self):
        sched = schedule([0.2] * 5, [0.1] * 5, [0.3] * 5)
        assert sched.makespan < sched.serial_time
        assert sched.speedup > 1.3

    def test_dependencies_respected(self):
        sched = schedule([0.2, 0.2], [0.1, 0.1], [0.3, 0.3], ot_time=0.05)
        by_label = {i.label: i for i in sched.intervals}
        assert by_label["transfer[0]"].start >= by_label["garble[0]"].end
        assert by_label["evaluate[0]"].start >= by_label["transfer[0]"].end
        assert by_label["garble[1]"].start >= by_label["garble[0]"].end
        assert by_label["evaluate[1]"].start >= by_label["evaluate[0]"].end

    def test_garbling_overlaps_evaluation(self):
        """Fig. 5's key point: garble[i+1] runs while evaluate[i] runs."""
        sched = schedule([0.3] * 3, [0.05] * 3, [0.3] * 3)
        by_label = {i.label: i for i in sched.intervals}
        assert by_label["garble[1]"].start < by_label["evaluate[0]"].end

    def test_makespan_lower_bound(self):
        sched = schedule([0.5, 0.5], [0.01, 0.01], [0.1, 0.1])
        assert sched.makespan >= 1.0  # garbling is the bottleneck

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ValueError):
            schedule([0.1], [0.1, 0.2], [0.1])

    def test_gantt_renders(self):
        text = ascii_gantt(schedule([0.2] * 3, [0.1] * 3, [0.2] * 3))
        assert "Alice" in text and "G" in text and "E" in text

    def test_schedule_from_measured_result(self, ot_group, rng):
        from repro.circuits import bits_from_int
        from repro.circuits.arith import ripple_add
        from repro.circuits.sequential import SequentialBuilder
        from repro.gc import SequentialSession

        bld = SequentialBuilder()
        x = bld.add_alice_inputs(8)
        acc = bld.add_registers(8)
        total = ripple_add(bld, acc, x)
        bld.bind_registers(acc, total)
        bld.mark_output_bus(total)
        seq = bld.build_sequential()
        result = SequentialSession(seq, ot_group=ot_group, rng=rng).run(
            [bits_from_int(3, 8)], [], cycles=3
        )
        sched = schedule_from_result(result)
        assert sched.makespan > 0
        assert len(sched.intervals) == 9


class TestThroughput:
    def test_characterize_sane(self):
        report = characterize(n_gates=1500)
        assert report.non_xor_per_s > 1000
        assert report.xor_per_s > report.non_xor_per_s  # free gates faster
        assert report.slowdown_vs_paper > 1.0
        assert report.coefficients.non_xor_clks > report.coefficients.xor_clks
