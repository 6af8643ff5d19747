"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

    python -m pytest benchmarks/e2e -q

The smoke runs drive ``run.py`` as the benchmark contract does — a
fresh process, every workload at toy size — and hold its output to the
metric names and units ``BENCHMARK.json`` declares.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import (READS, WORKLOADS, Request, make_split,  # noqa: E402
                       request_log)

SMOKE_BUDGET_S = 90.0


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {metric["name"]: metric["unit"]
                for metric in json.load(f)[section]}


def _run(*arguments, cwd=ROOT, timeout=SMOKE_BUDGET_S + 60):
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"),
         *arguments], cwd=cwd, capture_output=True, text=True,
        timeout=timeout)
    return child, time.perf_counter() - started


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_smoke_prints_every_declared_metric(trace, section):
    child, seconds = _run("--smoke", "--trace", trace)
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
    assert seconds < SMOKE_BUDGET_S
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {f"{workload}/{name}": unit for workload in WORKLOADS
                for name, unit in _declared(section).items()}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    assert all(isinstance(metric["value"], float)
               for metric in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    child, _ = _run("--workload", "serve.hot", "--smoke", cwd=str(tmp_path),
                    timeout=60)
    assert child.returncode != 0
    assert child.stdout.strip() == ""


def test_percentile_refuses_thin_tails():
    assert checks.percentile(range(20), 50) == 9
    assert checks.percentile(range(1000), 99) == 989
    with pytest.raises(ValueError, match="beyond"):
        checks.percentile(range(19), 50)
    with pytest.raises(ValueError, match="beyond"):
        checks.percentile(range(999), 99)
    assert checks.percentile_or_none(range(100), 99) is None


@pytest.mark.parametrize("name", ["serve.hot", "serve.churn"])
def test_request_schedule_is_a_pure_function_of_the_seed(name):
    spec = WORKLOADS[name].smoke()

    def schedule(seed):
        return request_log(spec, seed, 5.0, make_split(spec, seed))

    assert schedule(0) == schedule(0)
    assert schedule(0) != schedule(1)
    assert any(request.is_write for request in schedule(0)) \
        == (spec.write_rate > 0)
    # the seed moves the arrivals, never the load
    for seed in (0, 1):
        writes = sum(request.is_write for request in schedule(seed))
        assert writes == round(5.0 * spec.write_rate)
        assert len(schedule(seed)) - writes == round(5.0 * spec.read_rate)


@pytest.fixture(scope="module")
def split():
    return make_split(WORKLOADS["serve.hot"].smoke(), seed=0)


def _answer(split, user, ranking, sent=1.0):
    request = Request(0.0, READS, "/recommend", {"users": [user], "k": 20})
    return {"path": request.path, "payload": request.body, "status": 200,
            "body": json.dumps({"results": {str(user): ranking}}),
            "sent": sent, "done": sent + 0.001}


def _clean_ranking(split, user, avoid=()):
    taken = set(split.train.positives(user)) | set(avoid)
    return [item for item in range(split.dataset.num_items)
            if item not in taken][:20]


def test_ranking_check_accepts_a_valid_answer(split):
    user = split.test_users[0]
    records = [_answer(split, user, _clean_ranking(split, user))]
    assert checks.check_answers(records, split, 20) == []


def test_a_wrong_positive_fails_the_ranking_check(split):
    user = split.test_users[0]
    ranking = _clean_ranking(split, user)
    ranking[-1] = min(split.train.positives(user))
    problems = checks.check_answers([_answer(split, user, ranking)], split, 20)
    assert problems and "known positives" in problems[0]


def test_an_item_written_before_the_read_must_not_be_served(split):
    user = split.test_users[0]
    ranking = _clean_ranking(split, user)
    write = {"path": "/interactions", "payload": {"pairs": [[user,
                                                             ranking[0]]]},
             "status": 200, "body": "{}", "sent": 0.1, "done": 0.2}
    served_after = _answer(split, user, ranking, sent=0.5)
    served_before = _answer(split, user, ranking, sent=0.15)
    assert checks.check_answers([write, served_after], split, 20)
    assert checks.check_answers([write, served_before], split, 20) == []


@pytest.mark.parametrize("ranking_of", [
    lambda clean: clean[:19],
    lambda clean: clean[:19] + clean[:1],
    lambda clean: clean[:19] + [10 ** 9],
], ids=["short", "duplicate", "out-of-range"])
def test_malformed_rankings_fail_the_check(split, ranking_of):
    user = split.test_users[0]
    ranking = ranking_of(_clean_ranking(split, user))
    assert checks.check_answers([_answer(split, user, ranking)], split, 20)
