"""One pipeline repeat in a fresh process: generate → fit → evaluate.

``run.py`` starts this once per repeat, so every repeat pays its own
imports and allocations, as a user's job would.  Prints one JSON object.

    python benchmarks/e2e/pipeline_child.py WORKLOAD SEED STORE_DIR [--smoke]
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from workloads import (WORKLOADS, evaluate_recommender,  # noqa: E402
                       make_recommender, make_split, training_pairs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("store_dir")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    if args.smoke:
        spec = spec.smoke()

    split = make_split(spec, args.seed)
    setup_s = time.perf_counter() - STARTED
    recommender = make_recommender(spec, args.seed, args.store_dir)
    cpu_started = time.process_time()
    fit_started = time.perf_counter()
    recommender.fit(split)
    eval_started = time.perf_counter()
    result = evaluate_recommender(spec, recommender, split, args.seed)
    done = time.perf_counter()
    cpu_s = time.process_time() - cpu_started
    print(json.dumps({
        "setup_s": setup_s,
        "pipeline_s": done - fit_started,
        "cpu_s": cpu_s,
        "fit_s": eval_started - fit_started,
        "eval_s": done - eval_started,
        "ppr_s": recommender.ppr_seconds,
        "epoch_s": [stats.seconds for stats in recommender.history],
        "train_pairs": training_pairs(recommender, split),
        "eval_users": result.num_users,
        "recall": result.recall,
        "ndcg": result.ndcg,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


if __name__ == "__main__":
    main()
