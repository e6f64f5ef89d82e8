from bench import calibrate


def test_scaled_uses_the_mean_of_the_bracketing_kernel_times():
    ref = calibrate.REF_S
    assert calibrate.scaled(2.0, ref, ref) == 2.0
    assert calibrate.scaled(2.0, 1.5 * ref, 2.5 * ref) == 1.0


def test_kernel_time_is_positive():
    cal = calibrate.Calibration(reps=5)
    times = [cal.measure() for _ in range(3)]
    assert all(t > 0 for t in times)
