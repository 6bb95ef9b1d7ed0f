
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddcycle import (
    InputError,
    RetryExhausted,
    SelectorInstance,
    select_complement,
    verify_selector,
)
from oddcycle.selector import ceil_expected_survivors
from oracles import brute_force_selector


def random_instance(rng, n_max=10, q_max=4, cap=None):
    n = int(rng.integers(1, n_max + 1))
    q = int(rng.integers(0, q_max + 1))
    pairs = []
    for _ in range(q):
        size = int(rng.integers(0, (cap or n) + 1))
        chosen = rng.choice(n, size=min(size, n), replace=False)
        split = rng.random(len(chosen)) < 0.5
        a = [int(v) for v, s in zip(chosen, split) if s]
        b = [int(v) for v, s in zip(chosen, split) if not s]
        pairs.append((a, b))
    return SelectorInstance(n, pairs)


class TestExamples:
    def test_all_pairs_empty(self):
        inst = SelectorInstance(5, [([], []), ([], [])])
        res = select_complement(inst)
        assert sorted(int(v) for v in res.survivors) == list(range(5))
        assert verify_selector(inst, res, 5) is None

    def test_tiny_instance_matches_enumeration(self):
        inst = SelectorInstance(4, [({0}, {1})])
        res = select_complement(inst)
        best, _ = brute_force_selector(inst)
        assert len(res.survivors) == best == 3
        assert inst.survivor_target() == 3  # ceil(4 * 2^(-1/2))
        # one full side is avoided
        surv = set(int(v) for v in res.survivors)
        assert not (surv & {0}) or not (surv & {1})

    def test_n8_q2(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            inst = random_instance(rng, n_max=8, q_max=2, cap=4)
            if inst.n != 8 or inst.q != 2:
                continue
            res = select_complement(inst)
            target = inst.survivor_target()
            assert verify_selector(inst, res, target) is None
            best, _ = brute_force_selector(inst)
            assert target <= len(res.survivors) <= best


class TestDerandomizedGuarantee:
    def test_small_instances_against_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(400):
            inst = random_instance(rng)
            res = select_complement(inst)
            target = inst.survivor_target()
            assert verify_selector(inst, res, target) is None
            best, _ = brute_force_selector(inst)
            assert len(res.survivors) <= best

    @pytest.mark.parametrize("q", [62, 63, 64, 70])
    def test_weights_past_64_bits(self, q):
        # pair i = ({i mod 8}, {i+1 mod 8}): the weights pass 2^63, so an
        # int64 weight would wrap (with a RuntimeWarning, an error here)
        inst = SelectorInstance(8, [({i % 8}, {(i + 1) % 8}) for i in range(q)])
        res = select_complement(inst)
        assert verify_selector(inst, res, inst.survivor_target()) is None

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 100_000))
    def test_larger_instances(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_max=64, q_max=10)
        res = select_complement(inst)
        assert verify_selector(inst, res, inst.survivor_target()) is None


class TestSurvivorTarget:
    def test_exact_ceiling(self):
        # independent oracle: scan m upward using exact big-int comparison
        for n in (1, 2, 3, 7, 10, 33):
            for p in (0, 1, 2, n, 2 * n, 5 * n + 3):
                m = 1
                while m**n * 2**p < n**n:
                    m += 1
                assert ceil_expected_survivors(n, p) == m, (n, p)

    def test_boundary_cases(self):
        assert ceil_expected_survivors(8, 8) == 4  # 8 * 2^-1 exactly
        assert ceil_expected_survivors(8, 0) == 8
        assert ceil_expected_survivors(0, 5) == 0

    def test_instance_stats(self):
        inst = SelectorInstance(4, [({0}, {1})])
        assert list(inst.degrees()) == [1, 1, 0, 0]
        assert inst.degree_sum() == 2
        assert inst.mean_degree() == pytest.approx(0.5)


class TestRandomizedMode:
    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, n_max=30, q_max=6)
        a = select_complement(inst, "randomized", seed=9)
        b = select_complement(inst, "randomized", seed=9)
        assert a.choices == b.choices
        assert list(a.survivors) == list(b.survivors)
        # an int seed's first try draws from np.random.default_rng(seed)
        first = select_complement(inst, "randomized", seed=9, target=0)
        assert first.choices == tuple(np.random.default_rng(9).integers(0, 2, size=inst.q).tolist())

    def test_needs_seed(self):
        with pytest.raises(InputError):
            select_complement(SelectorInstance(2, []), "randomized")

    def test_retry_exhaustion(self):
        # target above n is unreachable
        inst = SelectorInstance(3, [({0}, {1})])
        with pytest.raises(RetryExhausted):
            select_complement(inst, "randomized", seed=0, max_tries=5, target=4)

    def test_halved_target_always_reached(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            inst = random_instance(rng, n_max=24, q_max=6)
            target = ceil_expected_survivors(inst.n, inst.degree_sum() + inst.n)
            res = select_complement(
                inst, "randomized", seed=int(rng.integers(1 << 30)), max_tries=50, target=target
            )
            assert verify_selector(inst, res, target) is None


class TestValidation:
    def test_overlapping_pair_rejected(self):
        with pytest.raises(InputError):
            SelectorInstance(4, [({0, 1}, {1, 2})])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            SelectorInstance(3, [({0}, {5})])

    @pytest.mark.parametrize("side", [[0.5, 1.9], np.array([0.0, 1.0]), [True, False]],
                             ids=["fractional", "float", "bool"])
    def test_non_integer_ids_rejected(self, side):
        # np.int64 casting would truncate 0.5, 1.9 onto elements 0, 1
        with pytest.raises(InputError):
            SelectorInstance(5, [(side, [2])])
        with pytest.raises(InputError):
            SelectorInstance(5, [([2], side)])

    @pytest.mark.parametrize("side", [0, np.int64(0), [[0]], np.array([[0, 1]])],
                             ids=["int", "numpy-int", "nested", "2-d"])
    def test_scalar_and_nested_sides_rejected(self, side):
        with pytest.raises(InputError, match="1-D"):
            SelectorInstance(3, [(side, [2])])
        with pytest.raises(InputError, match="1-D"):
            SelectorInstance(3, [([2], side)])

    def test_empty_sides_of_any_dtype_accepted(self):
        inst = SelectorInstance(3, [([], np.array([], dtype=float)), ({0}, np.array([2]))])
        assert [[side.tolist() for side in pair] for pair in inst.pairs] == [[[], []], [[0], [2]]]
        assert all(side.dtype == np.int64 for pair in inst.pairs for side in pair)

    @pytest.mark.parametrize("call", [
        lambda: SelectorInstance(5.5, []),
        lambda: SelectorInstance("5", []),
        lambda: SelectorInstance(True, []),
        lambda: select_complement(SelectorInstance(3, []), "randomized", seed=0, max_tries=-1),
        lambda: select_complement(SelectorInstance(3, []), "randomized", seed=0, max_tries=0),
        lambda: select_complement(SelectorInstance(3, []), "randomized", seed=0, max_tries=2.0),
        lambda: select_complement(SelectorInstance(3, []), "randomized", seed=0, target=1.5),
        lambda: select_complement(SelectorInstance(3, []), "randomized", seed=0, target="2"),
        lambda: select_complement(SelectorInstance(3, []), "randomized", seed=-1),
        lambda: ceil_expected_survivors(5.5, 2),
        lambda: ceil_expected_survivors(5, 2.0),
        lambda: ceil_expected_survivors(True, 1),
    ], ids=["n-float", "n-str", "n-bool", "tries-negative", "tries-0", "tries-float",
            "target-float", "target-str", "seed-negative", "ceil-n-float", "ceil-sum-float",
            "ceil-n-bool"])
    def test_malformed_arguments_rejected(self, call):
        with pytest.raises(InputError):
            call()

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            select_complement(SelectorInstance(2, []), "magic")
