import numpy as np
import pytest

from thermbench.errors import ShapeError
from thermbench.excitation import (excitation_columns, informativity_check,
                                   pe_order, spectrum)
from thermbench.regressors import RegressorSpec, Structure
from thermbench.simulator import TimeSeriesDataset


def sine(n, cycles, phase=0.0, amp=1.0):
    k = np.arange(n)
    return amp * np.sin(2 * np.pi * cycles * k / n + phase)


def test_constant_signal_single_dc_line():
    rep = spectrum(np.full(128, 3.7))
    assert rep.n_lines == 1
    assert rep.dc_present
    assert rep.lines[0].freq == 0.0


def test_single_bin_sinusoid_one_line_no_dc():
    rep = spectrum(sine(128, 8))
    assert rep.n_lines == 1
    assert not rep.dc_present
    assert rep.lines[0].freq == pytest.approx(8 / 128)


def test_offset_plus_two_sines_three_lines():
    x = 2.0 + sine(256, 8) + sine(256, 31, phase=1.0, amp=0.5)
    rep = spectrum(x)
    assert rep.n_lines == 3
    assert rep.dc_present


def test_all_zero_signal_no_lines():
    rep = spectrum(np.zeros(64))
    assert rep.n_lines == 0
    assert pe_order(rep) == 0


def test_short_signal_rejected():
    with pytest.raises(ShapeError):
        spectrum(np.ones(7))


def test_pe_order_counting_rules():
    n = 512
    # constant -> 1
    assert pe_order(spectrum(np.full(n, 1.0))) == 1
    # one non-DC sinusoid -> 2
    assert pe_order(spectrum(sine(n, 10))) == 2
    # offset + two sinusoids -> 5
    assert pe_order(spectrum(1.0 + sine(n, 10) + sine(n, 37, 0.4, 0.7))) == 5
    # three non-DC sinusoids -> 6
    assert pe_order(spectrum(sine(n, 10) + sine(n, 37, 0.4, 0.7)
                             + sine(n, 81, 1.1, 0.5))) == 6


def test_parseval():
    rng = np.random.default_rng(1)
    for n in (64, 128, 255):
        x = rng.normal(size=n)
        rep = spectrum(x)
        assert rep.power.sum() == pytest.approx(np.sum(x ** 2), rel=1e-9)


def test_order_invariant_to_amplitude_and_phase():
    n = 512
    base = pe_order(spectrum(1.0 + sine(n, 9) + sine(n, 33, 0.0, 0.4)))
    for scale in (0.01, 5.0, 1234.5):
        for phase in (0.3, 1.7, 2.9):
            x = scale * (1.0 + sine(n, 9, phase) + sine(n, 33, phase + 1, 0.4))
            assert pe_order(spectrum(x)) == base


def test_leakage_merged_to_single_line():
    # off-bin frequency smears across adjacent bins; merging keeps one line
    n = 256
    k = np.arange(n)
    x = np.sin(2 * np.pi * 8.37 * k / n)
    rep = spectrum(x)
    non_dc = [l for l in rep.lines if l.freq > 0]
    assert len(non_dc) == 1


def test_lines_match_a_bin_by_bin_merge():
    # several off-bin sines over noise: runs of adjacent bins of every length
    rng = np.random.default_rng(3)
    for threshold in (1e-4, 1e-2, 0.3) * 8:
        n = int(rng.integers(8, 400))
        x = 0.01 * rng.normal(size=n) + sum(
            sine(n, rng.uniform(1.0, n / 2 - 1), rng.uniform(0, 6), rng.uniform(0.1, 2))
            for _ in range(int(rng.integers(1, 5))))
        rep = spectrum(x, threshold)
        # each run of bins above threshold * the strongest positive-frequency
        # bin is one line, at the run's first maximum
        power, cut = rep.power, threshold * rep.power[1:].max()
        want, k = [], 1
        while k < len(power):
            run = []
            while k < len(power) and power[k] > cut:
                run.append(k)
                k += 1
            if run:
                want.append(max(run, key=power.__getitem__))
            k += 1
        got = [round(line.freq * n) for line in rep.lines if line.freq > 0]
        assert got == want, (n, threshold)


def test_informativity_default_scenario_passes(cfg, default_dataset):
    report = informativity_check(default_dataset, cfg.model.spec)
    assert report.required_order == 6
    assert report.all_pass
    for e in report.entries:
        assert e.order >= 6 - (1 if e.dc_present else 0)


def test_informativity_constant_dataset_fails(default_dataset):
    n = len(default_dataset)
    cols = {c: np.full(n, 1.0) for c in default_dataset.columns}
    cols["t_hours"] = default_dataset.columns["t_hours"]
    ds = TimeSeriesDataset(epsilon=default_dataset.epsilon, n_neighbors=1,
                           columns=cols)
    report = informativity_check(ds, RegressorSpec(Structure.NRM_MI, 1))
    assert not report.all_pass
    assert all(not e.passed for e in report.entries)


def test_threshold_sweep_does_not_change_verdict():
    n = 1024
    x = 1.0 + sine(n, 12) + sine(n, 47, 0.7, 0.6) + sine(n, 131, 1.9, 0.4)
    orders = {pe_order(spectrum(x, threshold=t)) for t in (5e-5, 1e-4, 2e-4)}
    assert orders == {7}


def test_spectrum_csv_with_dual_frequency_axis(tmp_path):
    rep = spectrum(1.0 + sine(128, 8))
    path = tmp_path / "spec.csv"
    rep.to_csv(path, epsilon_hours=1.0 / 12.0)
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert data["freq_per_hour"][1] == pytest.approx(data["freq_cycles_per_sample"][1] * 12.0)
    assert np.sum(data["power"]) == pytest.approx(rep.power.sum(), rel=1e-6)


def test_excitation_columns_cover_inputs_and_disturbances():
    assert excitation_columns(2) == ["T_rj_1", "T_rj_2", "Tw_in", "Ta_in",
                                     "Vw", "Va", "Qext"]
