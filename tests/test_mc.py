"""Seed derivation, deterministic parallel execution, and aggregation."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from levelsim import mc, tolerances as tol
from levelsim.gff import sample_interiors_float32_bytes


class TestDeriveSeed:
    def test_deterministic(self):
        assert mc.derive_seed(12345, 678) == mc.derive_seed(12345, 678)

    def test_collision_free_in_index(self):
        n = 1_000_000
        seeds = {mc.derive_seed(900, i) for i in range(n)}
        assert len(seeds) == n

    def test_distinct_across_masters(self):
        masters = {mc.derive_seed(m, 0) for m in range(1000)}
        assert len(masters) == 1000

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            mc.derive_seed(1, -1)

    def test_64_bit_range(self):
        for i in (0, 1, 17, 2**20):
            s = mc.derive_seed(2**63, i)
            assert 0 <= s < 2**64


class TestReplicaRng:
    def test_streams_are_reproducible(self):
        a = mc.replica_rng(7, 3).random(4)
        b = mc.replica_rng(7, 3).random(4)
        assert np.array_equal(a, b)

    def test_streams_differ_by_index(self):
        draws = [mc.replica_rng(7, i).random() for i in range(50)]
        assert len(set(draws)) == 50

    def test_reads_no_os_entropy(self, monkeypatch):
        # numpy seeds a default SeedSequence() through this randbits
        from numpy.random import bit_generator

        def never(bits):
            raise AssertionError("replica_rng read OS entropy")

        monkeypatch.setattr(bit_generator, "randbits", never)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.Philox(key=1)
        for index in range(20):
            mc.replica_rng(7, index).random()

    def test_stream_is_philox_keyed_by_derived_seed(self):
        for master, index in ((0, 0), (7, 3), (2**40, 199)):
            expected = np.random.Generator(np.random.Philox(key=mc.derive_seed(master, index)))
            got = mc.replica_rng(master, index)
            assert np.array_equal(got.standard_normal(500), expected.standard_normal(500))
            assert np.array_equal(got.integers(0, 2**62, 50), expected.integers(0, 2**62, 50))


class TestReplicaPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            mc.ReplicaPlan(0, 1)


class TestCallerShare:
    """On n threads the calling thread is one of them."""

    @staticmethod
    def meet(i, barrier):
        # the first two indices wait for each other, so two threads hold them
        if i < 2:
            barrier.wait()
        return threading.get_ident()

    def test_caller_works_and_results_keep_index_order(self):
        barrier = threading.Barrier(2, timeout=30)
        results = mc._map_indices(
            40, lambda i: i, lambda i, made: (made, self.meet(i, barrier)), threads=2
        )
        assert [made for made, _ in results] == list(range(40))
        assert threading.get_ident() in {worker for _, worker in results[:2]}
        assert len({worker for _, worker in results[:2]}) == 2

    @pytest.mark.parametrize("side", ["caller", "pool"])
    def test_exceptions_propagate_from_either_share(self, side):
        barrier = threading.Barrier(2, timeout=30)
        caller = threading.get_ident()

        def call(i, made):
            on_caller = self.meet(i, barrier) == caller
            if i < 2 and on_caller == (side == "caller"):
                raise RuntimeError(f"boom on {side}")
            return i

        with pytest.raises(RuntimeError, match=f"boom on {side}"):
            mc._map_indices(10, lambda i: i, call, threads=2)

    def test_streams_are_made_in_index_order(self):
        made = []
        mc._map_indices(50, made.append, lambda i, _: i, threads=4)
        assert made == list(range(50))

    def test_no_index_is_lost_or_repeated_under_contention(self):
        # more threads than cores, a tiny switch interval and a stream that
        # yields the interpreter: a hand-out outside the lock would skip or
        # repeat indices
        made = []

        def stream(i):
            time.sleep(0)
            made.append(i)
            return i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = mc._map_indices(2000, stream, lambda i, j: j, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert made == list(range(2000))
        assert results == list(range(2000))


def test_maps_not_bound_by_blas_run_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
    plan = mc.ReplicaPlan(40, 1)
    ids = mc.parallel_map(plan, lambda rng: threading.get_ident())
    blocks = mc.map_blocks(plan, 1, lambda rng, size: [threading.get_ident()])
    assert set(ids) == set(blocks.tolist()) == {threading.get_ident()}


def test_blas_map_without_the_pin_runs_serially(monkeypatch):
    monkeypatch.setattr(mc, "_BLAS_PINNED", False)
    ids = mc.map_blocks(
        mc.ReplicaPlan(9, 1), 1, lambda rng, size: [threading.get_ident()], gil_free_bytes=8
    )
    assert set(ids.tolist()) == {threading.get_ident()}


def peak_blocks(plan, gil_free_bytes) -> tuple[int, int]:
    """The most blocks of one map alive at once, and the threads they ran on."""
    lock = threading.Lock()
    active = peak = 0
    threads = set()

    def task(rng, size):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
            threads.add(threading.get_ident())
        time.sleep(0.02)
        with lock:
            active -= 1
        return np.zeros(size)

    mc.map_blocks(plan, 1, task, gil_free_bytes=gil_free_bytes)
    return peak, len(threads)


def test_gil_free_map_runs_no_more_blocks_than_the_field_budget_holds(monkeypatch):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(mc, "_BLAS_PINNED", True)
    plan = mc.ReplicaPlan(24, 1)
    monkeypatch.setattr(tol, "FIELD_BYTES_MAX", 1000)
    for block_bytes, most in ((100, 8), (300, 3), (999, 1), (5000, 1)):
        peak, threads = peak_blocks(plan, block_bytes)
        assert peak <= most and threads <= most, block_bytes
        assert (peak > 1) == (most > 1), block_bytes
    # coarse-tail --zeta 0 --grid-n 9000: a one-field block of 12 * 8998^2 B
    # passes the 1 GiB guard, so it runs alone
    monkeypatch.undo()
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
    block_bytes = sample_interiors_float32_bytes(9000, 1)
    assert block_bytes == 12 * 8998**2 <= tol.FIELD_BYTES_MAX
    assert peak_blocks(plan, block_bytes) == (1, 1)


def run_fresh(args: list[str], blas_threads: int) -> str:
    """Stdout of a fresh interpreter on this package, started with OpenBLAS's
    default thread count set to blas_threads."""
    src = str(Path(mc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": str(blas_threads)}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(
    None in [mc._openblas(path) for path in mc._blas_extensions()],
    reason="no OpenBLAS thread control",
)
class TestBlasPin:
    def test_import_pins_openblas_to_one_thread(self):
        # numpy's OpenBLAS and scipy's, each behind its own extension module
        code = (
            "from levelsim import mc; "
            "print(*(mc._openblas(path)[0]() for path in mc._blas_extensions()))"
        )
        assert run_fresh(["-c", code], 2).split() == ["1", "1"]

    def test_report_does_not_depend_on_the_host_blas_threads(self):
        runs = (
            # on two threads, decompose-var's float64 products at N = 256 once
            # moved increment_variance_level1 in its last digits
            ["decompose-var", "--grid-n", "256", "--replicas", "100", "--seed", "1"],
            # the dense route's banded solves run on scipy's OpenBLAS, not numpy's
            ["gff-cov", "--grid-n", "32", "--replicas", "1000", "--seed", "1"],
        )
        for argv in runs:
            argv = ["-m", "levelsim", *argv]
            assert run_fresh(argv, 1) == run_fresh(argv, 2)


class TestParallelMap:
    def test_preserves_replica_order(self):
        plan = mc.ReplicaPlan(100, 5)
        sequential = [mc.replica_rng(5, i).random() for i in range(100)]
        assert mc.parallel_map(plan, lambda rng: rng.random()) == sequential

    def test_worker_exceptions_propagate(self):
        def task(rng):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            mc.parallel_map(mc.ReplicaPlan(3, 1), task)


class TestMapBlocks:
    @staticmethod
    def draw(rng, size):
        return rng.standard_normal((size, 3))

    def test_block_of_one_is_parallel_map(self):
        plan = mc.ReplicaPlan(37, 11)
        blocks = mc.map_blocks(plan, 1, lambda rng, size: rng.random(size))
        assert blocks.tolist() == mc.parallel_map(plan, lambda rng: rng.random())

    def test_concurrency_does_not_change_results(self, monkeypatch):
        plan = mc.ReplicaPlan(103, 42)
        runs = [mc.map_blocks(plan, 8, self.draw, gil_free_bytes=192)]
        for c in (1, 4):
            for pinned in (False, True):
                monkeypatch.setattr(mc, "_usable_cpus", lambda: c)
                monkeypatch.setattr(mc, "_BLAS_PINNED", pinned)
                runs.append(mc.map_blocks(plan, 8, self.draw, gil_free_bytes=192))
        assert len({run.tobytes() for run in runs}) == 1

    def test_short_last_block(self):
        sizes = []

        def task(rng, size):
            sizes.append(size)
            return self.draw(rng, size)

        values = mc.map_blocks(mc.ReplicaPlan(23, 9), 10, task)
        assert sizes == [10, 10, 3]
        assert values.shape == (23, 3)
        # block b draws from replica_rng(master, b)
        assert np.array_equal(values[20:], self.draw(mc.replica_rng(9, 2), 3))

    def test_validation(self):
        plan = mc.ReplicaPlan(5, 1)
        with pytest.raises(ValueError, match="block"):
            mc.map_blocks(plan, 0, self.draw)
        with pytest.raises(ValueError, match="shape"):
            mc.map_blocks(plan, 2, lambda rng, size: self.draw(rng, 1))


class TestSummarize:
    def test_known_values(self):
        est = mc.summarize([1.0, 2.0, 3.0, 4.0])
        assert est.mean == pytest.approx(2.5)
        # sample std of 1..4 is sqrt(5/3)
        assert est.stderr == pytest.approx(math.sqrt(5.0 / 3.0) / 2.0)
        assert est.replicas == 4
        assert est.zero_count == 0

    def test_permutation_invariant(self):
        values = list(np.random.default_rng(3).normal(size=40))
        shuffled = values[::-1]
        a, b = mc.summarize(values), mc.summarize(shuffled)
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.stderr == pytest.approx(b.stderr, rel=1e-12)

    def test_zero_count_and_single_value(self):
        est = mc.summarize([0.0, 0.0, 1.0])
        assert est.zero_count == 2
        single = mc.summarize([5.0])
        assert math.isnan(single.stderr)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc.summarize([])

    def test_within(self):
        est = mc.Estimate(mean=1.0, stderr=0.1, replicas=10)
        assert est.within(1.25, 3.0)
        assert not est.within(1.5, 3.0)


class TestRunReplicas:
    def test_constant_task(self):
        est = mc.run_replicas(mc.ReplicaPlan(50, 8), lambda rng: 2.5)
        assert est.mean == 2.5
        assert est.stderr == 0.0

    def test_uniform_mean(self):
        est = mc.run_replicas(mc.ReplicaPlan(4000, 21), lambda rng: rng.random())
        assert est.within(0.5, 3.5)


class TestBinomialEstimate:
    def test_normal_interval_when_counts_large(self):
        est = mc.binomial_estimate(40, 100)
        se = math.sqrt(0.4 * 0.6 / 100)
        assert est.mean == pytest.approx(0.4)
        assert est.stderr == pytest.approx(se)
        assert est.ci_low == pytest.approx(0.4 - 1.959963984540054 * se)
        assert est.ci_high == pytest.approx(0.4 + 1.959963984540054 * se)

    def test_exact_interval_for_rare_events(self):
        # zero successes: upper endpoint solves (1-hi)^n = alpha/2
        n = 200
        est = mc.binomial_estimate(0, n)
        assert est.ci_low == 0.0
        assert est.ci_high == pytest.approx(1.0 - 0.025 ** (1.0 / n), rel=1e-9)
        full = mc.binomial_estimate(n, n)
        assert full.ci_high == 1.0
        assert full.ci_low == pytest.approx(0.025 ** (1.0 / n), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            mc.binomial_estimate(1, 0)
        with pytest.raises(ValueError):
            mc.binomial_estimate(5, 4)
        with pytest.raises(ValueError):
            mc.clopper_pearson(1, 0)


class TestClopperPearson:
    """scipy.stats is the oracle here only; the package never imports it."""

    def test_bitwise_equal_to_beta_quantiles(self):
        for trials in (1, 2, 3, 10, 37, 100, 999, 5000, 20_000):
            for successes in {0, 1, 2, trials // 3, trials // 2, trials - 1, trials}:
                if successes > trials:
                    continue
                for level in (0.5, 0.9, 0.95, 0.99):
                    alpha = 1.0 - level
                    lo = 0.0 if successes == 0 else float(
                        stats.beta.ppf(alpha / 2, successes, trials - successes + 1)
                    )
                    hi = 1.0 if successes == trials else float(
                        stats.beta.ppf(1 - alpha / 2, successes + 1, trials - successes)
                    )
                    assert mc.clopper_pearson(successes, trials, level) == (lo, hi)

    def test_successes_outside_trials_raise(self):
        for successes in (12, 11, -1):
            with pytest.raises(ValueError, match=r"successes .* outside \[0, 10\]"):
                mc.clopper_pearson(successes, 10)

    def test_level_outside_unit_interval_raises(self):
        for level in (1.5, 1.0, 0.0, -0.2, float("nan")):
            with pytest.raises(ValueError, match=r"level .* outside \(0, 1\)"):
                mc.clopper_pearson(3, 10, level=level)


class TestKsTwoSample:
    """Exact equal-size two-sample KS against scipy.stats.ks_2samp(method="exact")."""

    @pytest.mark.parametrize("n", [1, 50, 1000, 20_000])
    @pytest.mark.parametrize("shift", [0.0, 0.05, 0.3])
    def test_bitwise_equal_to_scipy_exact(self, n, shift):
        rng = np.random.default_rng(n)
        a = rng.normal(size=n)
        b = rng.normal(size=n) + shift
        ref = stats.ks_2samp(a, b, method="exact")
        assert mc.ks_two_sample(a, b) == (float(ref.statistic), float(ref.pvalue))

    def test_ties_are_counted_on_the_pooled_sample(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 5, 300).astype(float)
        b = rng.integers(0, 6, 300).astype(float)
        ref = stats.ks_2samp(a, b, method="exact")
        assert mc.ks_two_sample(a, b) == (float(ref.statistic), float(ref.pvalue))

    def test_identical_samples_give_p_one(self):
        a = np.random.default_rng(4).normal(size=1000)
        assert mc.ks_two_sample(a, a[::-1]) == (0.0, 1.0)

    def test_shifted_pair_gives_a_tiny_exact_p_value(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=1000)
        b = rng.normal(size=1000) + 0.39
        d, p = mc.ks_two_sample(a, b)
        assert 1e-17 < p < 1e-15
        ref = stats.ks_2samp(a, b, method="exact")
        assert (d, p) == (float(ref.statistic), float(ref.pvalue))

    def test_unequal_or_empty_samples_raise(self):
        with pytest.raises(ValueError, match="equal size"):
            mc.ks_two_sample([0.0, 1.0], [0.5])
        with pytest.raises(ValueError, match="equal size"):
            mc.ks_two_sample([], [])
        with pytest.raises(ValueError, match="equal size"):
            mc.ks_two_sample(np.zeros((2, 2)), np.zeros((2, 2)))


class TestFitExponent:
    def test_recovers_exact_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [3.0 * v + 1.0 for v in x]
        fit = mc.fit_exponent(x, y)
        assert fit.slope == pytest.approx(3.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert max(abs(r) for r in fit.residuals) < 1e-12
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-12)

    def test_noisy_slope_recovery(self):
        rng = np.random.default_rng(14)
        x = np.linspace(0.0, 5.0, 60)
        y = -2.0 * x + 0.7 + rng.normal(scale=0.05, size=x.size)
        fit = mc.fit_exponent(x, y)
        assert abs(fit.slope + 2.0) < 4.0 * fit.slope_stderr
        assert abs(fit.slope + 2.0) <= 0.05 * 2.0

    def test_two_points_have_nan_stderr(self):
        fit = mc.fit_exponent([0.0, 1.0], [1.0, 2.0])
        assert fit.slope == pytest.approx(1.0)
        assert math.isnan(fit.slope_stderr)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            mc.fit_exponent([1.0], [2.0])
        with pytest.raises(ValueError):
            mc.fit_exponent([1.0, 1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            mc.fit_exponent([1.0, 2.0], [1.0, 2.0, 3.0])
