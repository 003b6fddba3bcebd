# Convenience targets for the NetRS reproduction.

PYTHON ?= python3

.PHONY: install test test-fast test-slow ci faults-smoke mesoscale-smoke docs-check consistency-smoke figures bench-layered-smoke bench-ab lint help

help:
	@echo "install       editable install"
	@echo "test          full test suite (incl. slow shape assertions)"
	@echo "test-fast     fast tests only (~45 s on 2 cores)"
	@echo "ci            what CI runs: fast tests (see .github/workflows/ci.yml)"
	@echo "faults-smoke  crash-and-recover and link-cut drills from docs/FAULTS.md (retries, zero lost)"
	@echo "mesoscale-smoke  1k-host flow-tier demo (events/request per tier) + fidelity gate on every scenario + a --fidelity flow run the flow engine does not model + a packet ledger resumed under --fidelity flow"
	@echo "docs-check    validate every relative link/anchor in README.md + docs/*.md, then run the docs/CONSISTENCY.md example"
	@echo "consistency-smoke  quorum-write/read-repair/churn drill from docs/CONSISTENCY.md"
	@echo "lint          ruff + mypy (each skips if not installed)"
	@echo "figures       regenerate benchmarks/results/fig{4,5,6,7}.txt with \`netrs figure\` (seed 1, 6000 requests)"
	@echo "bench-layered-smoke  all five workloads of benchmarks/layered for 2 s each; fails unless all print \"correct\": true"
	@echo "bench-ab      BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=1]: alternating benchmarks/layered runs of a base revision and this tree"

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-slow:
	$(PYTHON) -m pytest tests/ -m slow

ci:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The runnable example of docs/FAULTS.md, exactly as written there: server#0
# crashes at 20 ms and recovers at 60 ms while clients retry on a 20 ms
# timeout.  Expect retries > 0 and lost=0 in the `faults:` report line.
faults-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run clirs \
		--requests 4000 \
		--faults "server-down@0.02:server#0;server-up@0.06:server#0" \
		--request-timeout 0.02 --max-retries 5
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run netrs-ilp \
		--requests 4000 \
		--faults "link-down@0.02:tor0.0/agg0.0;link-up@0.06:tor0.0/agg0.0" \
		--request-timeout 0.02 --max-retries 5

# Documentation gate: every relative link and anchor across README.md and
# docs/*.md must resolve (tests/test_doc_links.py), then the runnable example
# of docs/CONSISTENCY.md executes exactly as written there.
docs-check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -q tests/test_doc_links.py
	$(MAKE) consistency-smoke

# The runnable example of docs/CONSISTENCY.md, exactly as written there:
# a 20% write mix with W=2, quorum reads R=2, and server#1 leaving the
# ring at 30 ms then rejoining at 80 ms.  Expect writes/consistency/churn
# report lines with churn events=2 and migrated keys > 0.
consistency-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run clirs --requests 4000 \
		--write-fraction 0.2 --write-quorum 2 --read-quorum 2 \
		--churn-schedule "node-leave@0.03:server#1;node-join@0.08:server#1" \
		--request-timeout 0.05

# The flow tier's CI drill (docs/MESOSCALE.md): the scaled-down 1,024-host
# demo must run to completion (it prints events per request on both tiers),
# and the fidelity gate (flow == packet, bit for bit) must hold on every
# registered scenario.  Last, a ledger written on the packet engine must
# resume under --fidelity flow (a run option, outside the job digest)
# without re-running a job, printing the same table byte for byte.
mesoscale-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) examples/mesoscale_1m.py --smoke
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro validate-fidelity
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro run netrs-ilp --fidelity flow --requests 2000
	@d=$$(mktemp -d); \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro compare --requests 2000 \
		--run-dir "$$d/run" > "$$d/packet.out" || exit 1; \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro compare --requests 2000 \
		--fidelity flow --run-dir "$$d/run" --resume > "$$d/flow.out" 2> "$$d/flow.err" \
		|| { cat "$$d/flow.err"; exit 1; }; \
	cmp "$$d/packet.out" "$$d/flow.out" || exit 1; \
	grep -q "resume: 4/4 jobs already in ledger" "$$d/flow.err" \
		|| { cat "$$d/flow.err"; exit 1; }; \
	rm -rf "$$d"; \
	echo "cross-engine resume: 4/4 jobs from the packet ledger, identical table"

# ruff and mypy run when installed (pip install -e ".[lint]") and are
# skipped gracefully otherwise, so `make lint` works in a minimal install.
lint:
	@if command -v ruff >/dev/null 2>&1; then ruff check src tests; \
	else echo "ruff not installed; skipping (pip install -e '.[lint]')"; fi
	@if command -v mypy >/dev/null 2>&1; then mypy; \
	else echo "mypy not installed; skipping (pip install -e '.[lint]')"; fi

# The paper's Figs 4-7 at the committed scale -- small profile, seed 1, 6,000
# requests per cell -- one `netrs figure` run each (under two minutes for
# all four), written to benchmarks/results/ as the tables the CLI prints.
figures:
	@for figure in fig4 fig5 fig6 fig7; do \
		echo "benchmarks/results/$$figure.txt"; \
		PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro figure $$figure \
			--seed 1 --requests 6000 > benchmarks/results/$$figure.txt || exit 1; \
	done

# The repo's benchmark (BENCHMARK.json, benchmarks/layered/README.md), cut
# short: all five workloads -- the packet tier's three (plain reads; the
# NetRS pipeline behind an ILP placement; writes, quorums and churn) and
# both flow-tier ones (the sharded SoA engine -- teardown between
# in-process shards, then the merge -- and the scalar engine under faults),
# 2 s each.  Not a speed measurement -- a gate that the benchmark still runs
# on this tree and that its output checks (conservation, samples, the
# reference model's digest) still pass: the last stdout line of each run
# must say "correct": true.
bench-layered-smoke:
	@for workload in pkt-clirs-r95 pkt-netrs-ilp pkt-quorum-churn flow-soa-shard flow-tor-faults; do \
		out=$$($(PYTHON) benchmarks/layered/run.py --workload $$workload \
			--seed 1 --seconds 2 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -n 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct": true' || exit 1; \
	done

# A speed claim's measurement (benchmarks/ab.py): PAIRS alternating pairs of
# the BENCHMARK.json command on WORKLOAD, BASE in a git worktree beside this
# tree (or in WORKTREE=<dir>), medians, quartiles and pairs won printed.
# Takes PAIRS x 2 x ~25 s; run nothing else on the machine meanwhile.
PAIRS ?= 10
SEED ?= 1
bench-ab:
	$(PYTHON) benchmarks/ab.py --base $(BASE) --workload $(WORKLOAD) --pairs $(PAIRS) \
		--seed $(SEED) $(if $(WORKTREE),--worktree $(WORKTREE))
