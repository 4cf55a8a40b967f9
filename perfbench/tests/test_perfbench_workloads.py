from itertools import islice

import pytest

import run
import workloads


def first(workload, seed, n=300):
    return list(islice(workloads.OPS[workload](seed), n))


@pytest.mark.parametrize("workload", sorted(workloads.OPS))
def test_same_seed_same_inputs(workload):
    assert first(workload, 7) == first(workload, 7)


@pytest.mark.parametrize("workload", sorted(workloads.OPS))
def test_other_seed_other_inputs(workload):
    assert first(workload, 7) != first(workload, 8)


def test_series_pool_shape():
    for seed in range(20):
        pool = workloads.series_lambda_pool(workloads.rng_for("series_mix", seed))
        assert pool[0] == -1
        assert pool[1] < 0 < pool[2] and isinstance(pool[1], type(pool[2]))
        assert isinstance(pool[3], float) and isinstance(pool[4], float)
        assert pool[3] < 0 < pool[4]
        assert all(abs(x) <= 1 for x in pool)


@pytest.mark.parametrize("workload", ["crosscheck", "cli_cold"])
def test_cli_values_use_the_equals_form(workload):
    # `--lambda -2/7` is read as a flag; every value must ride in `--opt=value`
    for op in first(workload, 3):
        for arg in op["argv"][1:]:
            assert arg.startswith("--")
            assert "=" in arg or arg == "--verify", arg
        assert op["argv"][0] != "coeff" or "--verify" not in op["argv"] or workload == "crosscheck"


def test_inputs_stay_in_their_declared_ranges():
    for op in first("series_mix", 5, 2000):
        a = workloads.decode(op["a"], float)
        assert workloads.A_LOW <= a <= workloads.A_HIGH
        assert op["digits"] in workloads.SERIES_DIGITS and 0 <= op["n"] <= workloads.MAX_N
    for op in first("crosscheck", 5, 500):
        if op["lam"] is not None:
            top = max(max(band) for band in workloads.CROSSCHECK_LAMBDA[op["digits"]])
            assert abs(workloads.decode(op["lam"], float)) <= top
        assert 0 <= op["n"][0] <= op["n"][1] <= workloads.CROSSCHECK_N


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(1, 101)]
    value, pct, n = run.tail(samples[::-1])
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    value, pct, n = run.tail(samples[:11])
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)


def test_tail_without_ten_samples_beyond_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_blocks_hold_every_stratum_once():
    ops = first("crosscheck", 4, 400)
    blocks, sessions = {}, {}
    for op in ops:
        blocks.setdefault(op["block"], []).append(op)
        sessions.setdefault(op["session"], []).append(op)
    whole = [b for b in blocks.values() if b[-1].get("block_end")]
    assert len(whole) >= 3
    for block in whole:
        kinds = {op["session"]: (op["family"], op["digits"]) for op in block}
        assert sorted(f for f, _ in kinds.values()) == ["hurwitz"] * 2 + ["lerch"] * 2 + ["riemann"]
        for s, (family, _) in kinds.items():
            assert len(sessions[s]) == workloads.CROSSCHECK_CALLS[family]
    for calls in list(sessions.values())[:-1]:
        asked = sorted(n for op in calls for n in range(op["n"][0], op["n"][1] + 1))
        assert asked == list(range(workloads.CROSSCHECK_N + 1))
        widths = [op["n"][1] - op["n"][0] + 1 for op in calls]
        assert widths[0] > widths[1] and len(set(widths[1:])) == 1  # cold call widest


def test_crosscheck_sessions_other_than_riemann_never_repeat():
    keys = {}
    for op in first("crosscheck", 6, 2000):
        if op["family"] != "riemann":
            keys.setdefault((op["family"], op["a"], op["lam"], op["digits"]), set()).add(op["session"])
    assert all(len(sessions) == 1 for sessions in keys.values())


def test_a_slices_cover_log_a_once_each():
    import math
    rng = workloads.rng_for("test", 1)
    xs = workloads.a_slices(rng, 8, mpf_share=1.0)
    span = math.log(workloads.A_HIGH / workloads.A_LOW)
    slots = sorted(int(math.log(x / float(workloads.A_LOW)) / span * 8) for x in xs)
    assert slots == list(range(8))
