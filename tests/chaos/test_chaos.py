"""The seeded fault-injection framework: plans, determinism, batteries.

The expensive end-to-end batteries (`run_chaos`) are exercised here for
two cheap plans; ``make chaos-smoke`` runs a wider selection through the
CLI.  Everything else is unit-level: rule streams must be deterministic
per (seed, rule, point), plans must round-trip through JSON (that is how
forked corpus workers inherit them), and an unarmed ``fire`` must be a
no-op fast path.
"""

import json
import os

import pytest

from repro.obs import metrics
from repro.qa import chaos
from repro.qa.chaos import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    InjectedIOError,
    armed,
    built_in_plans,
    fire,
    plan_spec,
    run_chaos,
)


@pytest.fixture(autouse=True)
def _clean_state():
    chaos.clear_plan()
    metrics.registry().reset()
    yield
    chaos.clear_plan()
    metrics.registry().reset()


# -- rules and plans ----------------------------------------------------


def test_unarmed_fire_is_a_noop():
    assert chaos.active_plan() is None
    assert fire("factstore.load", key="abc") is None
    assert fire("session.compile") is None


def test_unknown_point_rejected_at_rule_construction():
    with pytest.raises(ValueError):
        FaultRule("no.such.point", probability=1.0)
    with pytest.raises(ValueError):
        FaultRule("factstore.load", probability=1.5)


def test_plan_json_roundtrip_preserves_rules():
    plan = FaultPlan(
        seed=42,
        name="rt",
        rules=(
            FaultRule("factstore.load", probability=0.25),
            FaultRule("corpus.worker_kill", probability=1.0, times=2,
                      after=1, match={"shard": 1}),
            FaultRule("daemon.handler", probability=0.5, arg=0.3),
        ),
    )
    back = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
    assert back.seed == plan.seed
    assert back.name == plan.name
    assert back.rules == plan.rules


def test_armed_plan_propagates_to_children_via_env():
    plan = FaultPlan(seed=7, name="env",
                     rules=(FaultRule("factstore.load", probability=1.0),))
    with armed(plan, env=True):
        encoded = os.environ.get(chaos.PLAN_ENV_VAR)
        assert encoded is not None
        back = FaultPlan.from_json(json.loads(encoded))
        assert back.rules == plan.rules
    assert chaos.PLAN_ENV_VAR not in os.environ


# -- deterministic firing -----------------------------------------------


def _firing_pattern(seed, probability, n=40):
    plan = FaultPlan(seed=seed, rules=(
        FaultRule("factstore.load", probability=probability),))
    pattern = []
    with armed(plan):
        for _ in range(n):
            try:
                fire("factstore.load")
                pattern.append(0)
            except InjectedIOError:
                pattern.append(1)
    return pattern


def test_same_seed_fires_identically_different_seed_differs():
    a = _firing_pattern(seed=3, probability=0.5)
    b = _firing_pattern(seed=3, probability=0.5)
    c = _firing_pattern(seed=4, probability=0.5)
    assert a == b
    assert 0 < sum(a) < len(a)  # actually probabilistic, not all-or-none
    assert a != c  # one specific pair could collide; these seeds do not


def test_interleaving_does_not_shift_a_points_stream():
    """Each point consumes its own RNG stream, so traffic on one point
    never changes when (only whether code reaches) another fires."""
    plan = FaultPlan(seed=9, rules=(
        FaultRule("factstore.load", probability=0.5),
        FaultRule("factstore.store", probability=0.5),
    ))

    def load_pattern(interleave):
        pattern = []
        with armed(plan.with_seed(9)):
            for i in range(30):
                if interleave:
                    try:
                        fire("factstore.store")
                    except InjectedIOError:
                        pass
                try:
                    fire("factstore.load")
                    pattern.append(0)
                except InjectedIOError:
                    pattern.append(1)
        return pattern

    assert load_pattern(False) == load_pattern(True)


def test_times_after_and_match_limit_firing():
    plan = FaultPlan(seed=0, rules=(
        FaultRule("session.compile", probability=1.0, after=2, times=2,
                  match={"module": "target"}),))
    fired = []
    with armed(plan):
        for i in range(8):
            module = "target" if i % 2 == 0 else "other"
            try:
                fire("session.compile", module=module)
                fired.append(0)
            except InjectedFault:
                fired.append(1)
    # Matching encounters are i = 0, 2, 4, 6: the first two are skipped
    # by `after`, the next two fire, and `times` stops anything further.
    assert fired == [0, 0, 0, 0, 1, 0, 1, 0]


def _fire_marks(count):
    for _ in range(count):
        fire("client.drop")


def test_forked_workers_count_into_the_plan_that_armed_them():
    # Six workers (more than a 2-vCPU machine has cores) and this
    # process fire at once: a lost update in the shared per-rule counts
    # would show as a short total.
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    with armed(FaultPlan(seed=0, rules=(FaultRule("client.drop"),))) as state:
        workers = [fork.Process(target=_fire_marks, args=(200,))
                   for _ in range(6)]
        for worker in workers:
            worker.start()
        _fire_marks(200)
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert state.injected() == {"client.drop": 200 * (len(workers) + 1)}


def test_injected_errors_are_typed():
    assert issubclass(InjectedIOError, OSError)
    assert issubclass(InjectedFault, RuntimeError)
    assert not issubclass(InjectedFault, OSError)


# -- built-in plans and batteries ---------------------------------------


def test_built_in_plans_cover_serve_and_corpus():
    specs = built_in_plans()
    names = {s.name for s in specs}
    assert {"cache-flaky", "cache-corrupt", "cache-bitflip", "compile-crash",
            "slow-handler", "client-drop", "mixed",
            "worker-kill", "poison-shard", "shard-hang",
            "stdio-flaky", "ledger-torn", "tracestore-torn"} <= names
    targets = {s.target for s in specs}
    assert targets == {"serve", "corpus", "stdio", "ledger",
                       "tracestore"}
    for spec in specs:
        plan = spec.plan(seed=1)
        assert plan.rules, spec.name
        assert FaultPlan.from_json(plan.to_json()).rules == plan.rules
    with pytest.raises(ValueError):
        plan_spec("no-such-plan")


def test_run_chaos_cache_corrupt_self_heals(tmp_path):
    report = run_chaos("cache-corrupt", seed=0, work_dir=tmp_path)
    assert report["ok"], report
    assert report["violations"] == []
    assert report["injected"].get("factstore.corrupt", 0) > 0
    assert report["ok_responses"] == report["requests"]


def test_run_chaos_cache_bitflip_reads_every_flip_as_a_miss(tmp_path):
    report = run_chaos("cache-bitflip", seed=0, work_dir=tmp_path)
    assert report["ok"], report
    assert report["violations"] == []
    flips = report["injected"].get("factstore.bitflip", 0)
    assert flips > 0
    assert report["store_corrupt"] == flips
    assert report["ok_responses"] == report["requests"]


def test_draw_is_deterministic_per_seed_and_rule():
    def positions(seed):
        rule = FaultRule("factstore.bitflip")
        with armed(FaultPlan(seed=seed, rules=(rule,))):
            return [chaos.draw(fire("factstore.bitflip"), 1 << 20)
                    for _ in range(8)]

    assert positions(1) == positions(1)
    assert positions(1) != positions(2)
    assert all(0 <= p < 1 << 20 for p in positions(3))
    with pytest.raises(ValueError):
        chaos.draw(FaultRule("factstore.bitflip"), 10)  # nothing armed


def test_run_chaos_compile_crash_yields_typed_errors(tmp_path):
    report = run_chaos("compile-crash", seed=0, work_dir=tmp_path)
    assert report["ok"], report
    assert report["violations"] == []
    injected = report["injected"].get("session.compile", 0)
    assert injected > 0
    assert report["typed_errors"].get("internal", 0) == injected
    assert report["ok_responses"] + injected == report["requests"]


def test_run_chaos_ledger_torn_never_wedges_the_gate(tmp_path):
    report = run_chaos("ledger-torn", seed=0, work_dir=tmp_path)
    assert report["ok"], report
    assert report["violations"] == []
    assert 0 < report["torn"] < report["appended"]
    assert report["read"] == report["appended"] - report["torn"]
    assert report["validated"] == report["read"]
    assert report["compared"] is True


def test_run_chaos_tracestore_torn_never_degrades_serving(tmp_path):
    report = run_chaos("tracestore-torn", seed=0, work_dir=tmp_path)
    assert report["ok"], report
    assert report["violations"] == []
    # Phase one: direct appends, about half torn, readers skip exactly.
    assert 0 < report["torn"] < report["appended"]
    assert report["read"] == report["appended"] - report["torn"]
    # Phase two: torn flushes under a live daemon never cost an answer.
    assert report["daemon_torn"] > 0
    assert report["ok_responses"] == report["requests"]
    assert report["daemon_records"] > 0


def test_run_chaos_stdio_crosses_the_process_boundary(tmp_path):
    report = run_chaos("stdio-flaky", seed=0, work_dir=tmp_path)
    assert report["ok"], report
    assert report["violations"] == []
    # The plan armed in a *subprocess* via REPRO_CHAOS_PLAN; its own
    # counters prove the faults fired on the far side of the pipe.
    assert report["injected"]["child"] > 0
    assert report["chaos_injected_total"] == report["injected"]["child"]
    # Every answer that crossed the pipe was pinned-correct or typed.
    assert report["ok_responses"] + \
        sum(report["typed_errors"].values()) == report["requests"]


@pytest.mark.parametrize("plan,injected,retries", [
    ("worker-kill", 1, 1),
    ("poison-shard", 2, 1),   # one kill per attempt on the poisoned shard
    ("shard-hang", 1, 1),
])
def test_run_chaos_counts_faults_that_kill_or_hang_a_worker(
        tmp_path, plan, injected, retries):
    report = run_chaos(plan, seed=0, work_dir=tmp_path)
    assert report["ok"], report
    assert report["chaos_injected_total"] == injected
    assert sum(report["injected"].values()) == injected
    assert report["shard_retries"] == retries


def test_run_chaos_is_deterministic_per_seed(tmp_path):
    a = run_chaos("cache-corrupt", seed=5, work_dir=tmp_path / "a")
    b = run_chaos("cache-corrupt", seed=5, work_dir=tmp_path / "b")
    assert a == b
