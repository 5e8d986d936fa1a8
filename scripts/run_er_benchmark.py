#!/usr/bin/env python3
"""Benchmark the solver on seeded sparse random graphs against min-degree greedy.

With one worker, ER(700, 0.15) seeds 0-2 give best sizes 41/41/43
against greedy 38/41/39, 34-35 s per instance on one core of a 2-core
x86 box. The er preset's 7168 runs finish inside the default 300 s
limit, so a longer --time-limit changes nothing.
"""

import argparse
import time

from quadmis import gen_er, greedy_min_degree, resolve_config, solve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=700)
    ap.add_argument("--p", type=float, default=0.15)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--time-limit", type=float, default=300.0)
    ap.add_argument("--workers", type=int, default=None)
    args = ap.parse_args()

    print("instance             solver  greedy  found   seconds")
    bests, greedies = [], []
    for seed in range(args.seeds):
        g = gen_er(args.n, args.p, seed)
        t0 = time.perf_counter()
        rep = solve(g, resolve_config(g, preset="er", time_limit=args.time_limit), workers=args.workers)
        dt = time.perf_counter() - t0
        greedy = greedy_min_degree(g).size
        bests.append(rep.best_size)
        greedies.append(greedy)
        print(
            f"er({args.n},{args.p})#{seed}     {rep.best_size:>5}  {greedy:>6}"
            f"  {rep.mis_found_count:>5}  {dt:8.1f}"
        )
    print(
        f"means: solver {sum(bests) / len(bests):.2f}, greedy "
        f"{sum(greedies) / len(greedies):.2f}"
    )


if __name__ == "__main__":
    main()
