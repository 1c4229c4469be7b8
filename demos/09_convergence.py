"""Walkthrough: how fast random order sampling closes in on the optimum.

Generates a small corpus of 7-9 transaction instances, computes each one's
exhaustive best-ordering spread, then samples 1% of the pruned orderings and
reports what fraction of the optimum the sample recovers.
"""

from mevsearch.corpus import convergence_corpus, measure_convergence

instances = convergence_corpus(seed=5, count=12)
result = measure_convergence(instances, seed=5)

print("inst  pruned-paths  sampled  exhaustive-spread      sampled-spread     ratio")
for p in result.points:
    print(f" {p.index:>3} {p.paths_total:>12} {p.paths_sampled:>8}"
          f" {p.exhaustive_spread:>18} {p.sampled_spread:>18}  {float(p.ratio):>6.2f}")

print(f"\nInstances reaching 70% of the optimum with 1% of paths: "
      f"{result.hits}/{len(result.points)}")
