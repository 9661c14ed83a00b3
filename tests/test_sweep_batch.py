"""The gauge sweep works on its gauges in batches: one sampling of the
closed form and one projection of the samples over a (G, n + 1) block, and
one clock inversion, one evaluation and one projection over a (G, 513)
comparison grid.  Batching changes no bit: each gauge's samples, (x, v)
and comparison are the ones it gets alone, because each is computed
elementwise and the root finder stops each row on its own.  Also the root
finder's 2-cycle stop and the Newton iteration counts of the benchmark's
gauge sweeps."""

import contextlib
import io
import math
import pathlib

import numpy as np
import pytest

import ksunfold.flow as closed_form
import ksunfold.reduction as reduction
from ksunfold import unfold_kepler, unfold_sweep
from ksunfold.cli import main
from ksunfold.errors import HorizonError
from ksunfold.integrate import (
    _ROOT_MAX_ITER,
    _ROOT_TOL,
    IntegratorConfig,
    _safeguarded_newton,
)

_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

_SWEEP = np.linspace(0.0, 6.28, 8)

# one upstairs period, 2 pi / sqrt(-2E), of the eccentric orbit
_ECC_PERIOD = 2 * math.pi / math.sqrt(1.36)

# (p0, tau_end, k, n_samples, gauges): the gallery orbits (one upstairs
# period, the collision orbit to tau = 6), two of them turned by rotations
# of the cube, force constant k = 2, a coarse sampling, and a sweep of 11
# gauges, which takes two batches
_CASES = {
    "circular": ([1.0, 0, 0, 0, 1.0, 0], 2 * math.pi, 1.0, 512, _SWEEP),
    "eccentric": ([1.0, 0, 0, 0, 0.8, 0], _ECC_PERIOD, 1.0, 512, _SWEEP),
    "collision": ([1.0, 0, 0, -0.5, 0, 0], 6.0, 1.0, 512, _SWEEP),
    "eccentric-rotated": ([0, 1.0, 0, 0, 0, 0.8], _ECC_PERIOD, 1.0, 512,
                          _SWEEP),
    "collision-rotated": ([0, 0, -1.0, 0, 0, 0.5], 6.0, 1.0, 512, _SWEEP),
    "k2": ([1.0, 0, 0, 0, 1.2, 0], 2 * math.pi / 1.6, 2.0, 512, _SWEEP),
    "samples64": ([1.0, 0, 0, 0, 0.8, 0], _ECC_PERIOD, 1.0, 64, _SWEEP),
    "eleven-gauges": ([1.0, 0, 0, 0, 0.8, 0], _ECC_PERIOD, 1.0, 512,
                      np.linspace(0.0, 6.28, 11)),
}


def _leg(results, p0, k):
    """The sweep's direct leg: integrated once, on the first gauge."""
    first = results[0]
    p0 = np.asarray(p0, dtype=float)
    return reduction._direct_leg(p0[:3], p0[3:], float(first.ts[-1]), k,
                                 IntegratorConfig(),
                                 first.upstairs.collision_time())


@pytest.mark.parametrize("case", sorted(_CASES))
def test_batched_comparison_equals_each_gauge_alone(case):
    p0, tau_end, k, n_samples, gauges = _CASES[case]
    swept = list(unfold_sweep(np.array(p0), tau_end, gauges, k=k,
                              n_samples=n_samples))
    assert len(swept) == len(gauges)
    leg = _leg(swept, p0, k)
    flows = [res.upstairs for res in swept]
    alone = []
    for flow in flows:  # each gauge evaluates the leg itself
        alone += reduction._compare_downstairs([flow], leg, {})
    assert all(d["compared"] for d in alone)
    # every float equal, and so every bit of a finite one
    assert [res.divergence for res in swept] == alone
    assert reduction._compare_downstairs(flows, leg, {}) == alone
    # and what a one-gauge unfold reports, for the first gauge
    first = unfold_kepler(np.array(p0), tau_end, gauge=gauges[0], k=k,
                          n_samples=n_samples)
    assert first.divergence == alone[0]


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_batched_samples_and_projection_equal_each_gauge_alone(case):
    p0, tau_end, k, n_samples, gauges = _CASES[case]
    swept = list(unfold_sweep(np.array(p0), tau_end, gauges, k=k,
                              n_samples=n_samples))
    assert len(swept) == len(gauges)
    for i, (gauge, res) in enumerate(zip(gauges, swept)):
        up = res.upstairs
        # a row of its batch's block
        first = swept[i - i % reduction._SWEEP_BATCH].upstairs
        assert up.states.base is first.states.base
        # the start that the one-gauge unfold lifts
        lone = unfold_kepler(np.array(p0), tau_end, gauge=gauge, k=k,
                             n_samples=n_samples, compare=False).upstairs
        assert (_bits(up.Y0).tolist(), _bits(up.U0).tolist(), up.E, up.g) \
            == (_bits(lone.Y0).tolist(), _bits(lone.U0).tolist(), lone.E,
                lone.g)
        # every sample and every (x, v) of a flow built alone
        (alone,), _ = closed_form._sample([(up.Y0, up.U0, up.E, up.g)],
                                          up.tau_end, up.k, up.n_samples)
        assert np.array_equal(up.times, alone.times)
        assert np.array_equal(_bits(up.states), _bits(alone.states))
        for got, want in zip((res.xs, res.vs),
                             reduction._downstairs(alone.states[:, :8])):
            assert np.array_equal(_bits(got), _bits(want))


def test_a_batch_is_checked_gauge_by_gauge():
    # the middle flow overflows (cosh of w = 1.8e5 by tau = 4): the batch
    # raises the error that flow raises alone
    Y0, U0 = np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])
    starts = [(Y0, U0, -0.5, 1.0), (Y0, U0, 1e9, 1.0), (Y0, U0, -0.5, 1.0)]
    with pytest.raises(HorizonError) as batch_error:
        closed_form._sample(starts, 4.0, 1.0, 64)
    with pytest.raises(HorizonError) as lone_error:
        closed_form._sample(starts[1:2], 4.0, 1.0, 64)
    assert str(batch_error.value) == str(lone_error.value)


def test_a_sweep_of_eleven_gauges_compares_in_two_batches(monkeypatch):
    p0, tau_end, k, n_samples, gauges = _CASES["eleven-gauges"]
    sizes = []
    compare = reduction._compare_downstairs

    def recording(flows, leg, on_grid):
        sizes.append(len(flows))
        return compare(flows, leg, on_grid)

    monkeypatch.setattr(reduction, "_compare_downstairs", recording)
    assert len(list(unfold_sweep(np.array(p0), tau_end, gauges))) == 11
    assert sizes == [reduction._SWEEP_BATCH, 11 - reduction._SWEEP_BATCH]


@pytest.mark.parametrize("bad", [3, 9])
def test_a_gauge_that_raises_comes_after_the_gauges_before_it(bad):
    # a NaN gauge is refused by its lift (`ks_lift`): its batch is redone
    # one gauge at a time, and each gauge before it has the samples,
    # comparison and (x, v) it gets in a sweep without it
    p0 = np.array([1.0, 0, 0, 0, 0.8, 0])
    gauges = [0.1 * i for i in range(12)]
    clean = list(unfold_sweep(p0, 4 * math.pi, gauges))
    gauges[bad] = math.nan
    sweep = unfold_sweep(p0, 4 * math.pi, gauges)
    for i in range(bad):
        res, want = next(sweep), clean[i]
        assert res.gauge == gauges[i]
        assert np.array_equal(_bits(res.upstairs.states),
                              _bits(want.upstairs.states))
        assert res.divergence == want.divergence
        for got, ref in zip((res.xs, res.vs), (want.xs, want.vs)):
            assert np.array_equal(_bits(got), _bits(ref))
    with pytest.raises(ValueError, match="finite"):
        next(sweep)


def test_a_gauge_angle_that_is_not_finite_fails_its_lift():
    # an inf gauge is refused by `ks_lift`, naming the gauge, and its batch
    # is redone one gauge at a time: the gauges before it are yielded first
    gauges = [0.1 * i for i in range(8)]
    gauges[3] = math.inf
    sweep = unfold_sweep(np.array([1.0, 0, 0, 0, 0.8, 0]), 4 * math.pi,
                         gauges)
    assert [next(sweep).gauge for _ in range(3)] == gauges[:3]
    with pytest.raises(ValueError, match="gauge angle must be finite"):
        next(sweep)


def _cubic(a):
    """(f, f') of x^3 - a."""
    return lambda x: (x * x * x - a, 3.0 * x * x)


def _counted(fdf, counts):
    def counted(x):
        counts.append(np.shape(x))
        return fdf(x)

    return counted


def test_newton_stops_each_row_on_its_own():
    # cube roots from the bracket [0, 3] to a loose tolerance: row 0 starts
    # next to its roots and stops while another iteration would still move
    # them; row 1 starts at the bracket's end and takes more iterations
    a = np.array([[1.0, 2.0, 3.0, 5.0, 8.0],
                  [0.5, 1.5, 4.0, 9.0, 20.0]])
    start = np.array([np.cbrt(a[0]) * (1.0 + 1e-4), np.full(5, 3.0)])
    lo, hi, tol = np.zeros_like(a), np.full_like(a, 3.0), 1e-6
    rows, iterations = [], []
    for i in range(2):
        counts = []
        rows.append(_safeguarded_newton(_counted(_cubic(a[i]), counts),
                                        lo[i], hi[i], start[i], tol))
        iterations.append(len(counts))
    assert iterations[0] < iterations[1] < _ROOT_MAX_ITER
    counts = []
    both = _safeguarded_newton(_counted(_cubic(a), counts), lo, hi, start,
                               tol)
    assert len(counts) == iterations[1]
    for got, want in zip(both, rows):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # row 0 kept its roots: the next iteration would have moved them
    nxt = _safeguarded_newton(_cubic(a[0]), lo[0], hi[0], rows[0], tol)
    assert not np.array_equal(nxt, rows[0])
    assert np.max(np.abs(both - np.cbrt(a))) < 1e-6


def test_newton_stops_a_two_cycle_at_the_rounding_limit(monkeypatch):
    # element 288 alternates between two taus whose clock residuals are a
    # couple of ulps of t either side of 0, where dt/dtau = 0.0225, so its
    # step of 3.95e-14 stays above 1e-14 |tau|: without the 2-cycle stop
    # this inversion ran to the iteration cap
    res = unfold_kepler((1, 0, 0, -0.5, 0, 0), 6.0, gauge=0.0,
                        compare=False)
    t = np.linspace(0.0, 0.99 * float(res.ts[-1]), 513)
    counts = []
    newton = closed_form._safeguarded_newton

    def counting(fdf, *args):
        return newton(_counted(fdf, counts), *args)

    monkeypatch.setattr(closed_form, "_safeguarded_newton", counting)
    tau = res.tau_of(t)
    assert len(counts) <= 6
    assert np.max(np.abs(res.t_of(tau) - t)) <= 1e-14


def test_newton_iterations_of_the_benchmark_sweeps(monkeypatch, tmp_path):
    # the three gallery sweeps of the benchmark at seed 7: one Newton
    # iteration per clock inversion on the circular orbit, three on the
    # eccentric and collision orbits, for every gauge alone and for the
    # batch; an added iteration fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(_BENCH))
    import workloads

    calls = workloads.build("unfold-sweep", 7, str(tmp_path))
    batches, batch_counts = [], []
    compare = reduction._compare_downstairs
    newton = closed_form._safeguarded_newton

    def recording(flows, leg, on_grid):
        batches.append((flows, leg))
        return compare(flows, leg, on_grid)

    def counting(fdf, *args):
        counts = []
        out = newton(_counted(fdf, counts), *args)
        batch_counts.append((counts[0], len(counts)))
        return out

    monkeypatch.setattr(reduction, "_compare_downstairs", recording)
    monkeypatch.setattr(closed_form, "_safeguarded_newton", counting)
    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(call.argv)) == 0
    assert [call.label for call in calls] == ["circular", "eccentric",
                                              "collision"]
    assert batch_counts == [((8, 513), n) for n in (1, 3, 3)]

    per_gauge = []
    for flows, leg in batches:
        row = []
        for flow in flows:
            grid = np.linspace(0.0, min(float(flow.states[-1, 8]), leg[1]),
                               513)
            del batch_counts[:]
            reduction._invert_clocks([flow], grid[None])
            [(shape, n)] = batch_counts
            assert shape == (1, 513)
            row.append(n)
        per_gauge.append(row)
    assert per_gauge == [[1] * 8, [3] * 8, [3] * 8]
