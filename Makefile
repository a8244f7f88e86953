# Convenience targets for the VIF reproduction.

.PHONY: install test bench bench-smoke bench-e2e bench-full experiments examples all

install:
	pip install -e .

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Fast sanity pass over the benchmark suite: skips the slow-marked
# paper-scale experiments and disables benchmark timing loops.
bench-smoke:
	pytest -m "not slow" --benchmark-disable benchmarks/

# The end-to-end serve-path benchmark (bench/README.md) at smoke scale: all
# four workloads, untraced then traced, every burst checked against the
# oracle.  Drop --scale for the run of record.
bench-e2e:
	python3 bench/run.py --scale smoke

bench-full:
	VIF_BENCH_FULL=1 pytest benchmarks/ --benchmark-only

experiments:
	python -m repro.cli run all

examples:
	@for f in examples/*.py; do echo "== $$f"; python $$f; echo; done

all: install test bench experiments
