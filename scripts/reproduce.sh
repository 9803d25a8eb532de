#!/usr/bin/env bash
# Reproduce everything: tests, benchmark tables, fast experiment grid,
# and all runnable examples.  Outputs land in the repository root and in
# benchmarks/output/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/4 unit + property tests =="
python -m pytest tests/ 2>&1 | tee test_output.txt | tail -2

echo "== 2/4 benchmark suite (all paper tables + ablations, bench scale) =="
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt | tail -2
python benchmarks/bench_prediction_engine.py --smoke | tail -3

echo "== 3/4 full experiment grid (fast preset, all 12 datasets) =="
python -m repro.cli experiment --preset fast --output experiments_fast.txt | tail -5

echo "== 4/4 examples =="
for script in examples/*.py; do
    echo "-- ${script}"
    python "${script}" > /dev/null
done

echo "done. See benchmarks/output/, experiments_fast.txt, EXPERIMENTS.md."
