# Convenience targets for the TBAA reproduction.

PYTHON ?= python

.PHONY: install test bench bench-quick bench-gate tables examples fuzz \
	fuzz-smoke profile-smoke corpus-gen corpus-smoke serve-smoke \
	chaos-smoke obs-smoke trace-smoke clean

# Seeded smoke corpus shared by corpus-smoke and the bench gate.
CORPUS_SMOKE_DIR ?= benchmarks/results/corpus-smoke

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/
	$(MAKE) fuzz-smoke
	$(MAKE) corpus-smoke
	$(MAKE) profile-smoke
	$(MAKE) serve-smoke
	$(MAKE) chaos-smoke
	$(MAKE) obs-smoke
	$(MAKE) trace-smoke
	$(MAKE) bench-gate

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Machine-readable alias-engine numbers: analysis construction time,
# may-alias query throughput, and Table 5 wall time under both the
# reference and the partition-based counting engines.  Every run also
# appends a ledger record to BENCH_history.jsonl so successive runs
# stay comparable (see `repro bench compare` / DESIGN.md §6f).
bench-quick:
	$(PYTHON) -m pytest benchmarks/bench_analysis_cost.py benchmarks/bench_table5_alias_pairs.py --benchmark-only
	$(PYTHON) -m repro.bench.perfjson -o BENCH_alias.json --prom BENCH_obs.prom \
		--history BENCH_history.jsonl

# Perf-regression gate: measure the benchmark suite twice (min-of-k)
# and compare against the committed baseline ledger inside a median+MAD
# noise band.  Exits nonzero on a regression beyond the tolerance; the
# generous --tol absorbs cross-host and CI-load variance (tighten it
# for same-host comparisons).
bench-gate: corpus-gen
	PYTHONPATH=src $(PYTHON) -m repro -q bench gate \
		--baseline BENCH_baseline.jsonl --repeats 2 --no-history --tol 2.0 \
		--corpus $(CORPUS_SMOKE_DIR) --serve

tables:
	$(PYTHON) -m repro tables

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

fuzz:
	$(PYTHON) -m pytest tests/integration/test_fuzz_rle.py -q

# Fixed-seed soundness fuzz over generated programs: every analysis
# level is cross-checked against the refinement hierarchy, the fast
# engine, and a traced dynamic run.  Deterministic, so a failure here
# is reproducible by seed; crash bundles land under the --out dir.
fuzz-smoke:
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed 0 --count 200 \
		--out benchmarks/results/fuzz-smoke

# Regenerate the seeded smoke corpus (content-hashed shards; the fixed
# seed makes this idempotent, so it is safe as a gate prerequisite).
corpus-gen:
	PYTHONPATH=src $(PYTHON) -m repro -q corpus gen $(CORPUS_SMOKE_DIR) \
		--count 60 --shard-size 20
	PYTHONPATH=src $(PYTHON) -m repro -q corpus verify $(CORPUS_SMOKE_DIR)

# Corpus pipeline smoke: generate + verify the sharded corpus, then
# sweep it with the differential engine (fast == reference on every
# program) across 2 worker processes.  No history records: the committed
# ledger only carries deliberate runs.
corpus-smoke: corpus-gen
	PYTHONPATH=src $(PYTHON) -m repro -q corpus run $(CORPUS_SMOKE_DIR) \
		--jobs 2 --engine differential --no-history

# Analysis-daemon smoke: boot the serve daemon with both transports
# (JSONL-on-stdio subprocess + localhost HTTP), fire the same batched
# query set over each, and require identical Table 5 rows, differential
# agreement with the cold fast/reference engines, warm == cold answers,
# and a clean shutdown (DESIGN.md §6h).
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro -q client --smoke

# Chaos smoke: fixed-seed fault-injection batteries over the serving
# stack (flaky + corrupting fact store, compile crashes, stalled
# handlers under a deadline, daemon kill + restart with a self-healing
# client) and the corpus pipeline (worker killed mid-shard, watchdog
# retry).  Green means: every answer that left the system was
# differential-pinned correct or a typed error (DESIGN.md §6i).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro -q chaos --seed 0 \
		--plan mixed --plan client-drop --plan worker-kill \
		--plan stdio-flaky --plan ledger-torn --plan tracestore-torn

# Live-observability smoke: boot a daemon with tracing + SLO tracking +
# access log on, run a traced --debug query end to end, parse every
# line of the /v1/metrics Prometheus exposition, check the request
# journal and the slow-request access log carry the trace id, and
# render `repro top --once` against the live daemon (DESIGN.md §6j).
obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro -q client --obs-smoke

# Continuous-tracing smoke: one trace propagated client → subprocess
# stdio daemon → forked corpus workers, every record flushed into a
# bounded on-disk trace store and reconstructed by `repro trace
# ls/show/top` as a single parent-linked cross-process span tree
# (DESIGN.md §6k).
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro -q client --trace-smoke

# Observability smoke: `repro profile` over two bundled benchmarks with
# the tree-sum check on, each --trace record validated by the shared
# JSONL validator, and one of them opened in the trace viewer as a
# one-segment store.
PROFILE_SMOKE_DIR = benchmarks/results/profile-smoke
profile-smoke:
	@mkdir -p $(PROFILE_SMOKE_DIR)
	PYTHONPATH=src $(PYTHON) -m repro -q profile m3cg --check \
		--trace $(PROFILE_SMOKE_DIR)/m3cg.jsonl
	PYTHONPATH=src $(PYTHON) -m repro -q profile slisp --check \
		--trace $(PROFILE_SMOKE_DIR)/slisp.jsonl
	PYTHONPATH=src $(PYTHON) -m repro.obs.jsonl \
		$(PROFILE_SMOKE_DIR)/m3cg.jsonl $(PROFILE_SMOKE_DIR)/slisp.jsonl
	PYTHONPATH=src $(PYTHON) -m repro -q trace show \
		"$$(PYTHONPATH=src $(PYTHON) -m repro -q trace export \
			--store $(PROFILE_SMOKE_DIR)/slisp.jsonl \
			| $(PYTHON) -c 'import json, sys; print(json.load(sys.stdin)["trace"])')" \
		--store $(PROFILE_SMOKE_DIR)/slisp.jsonl

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results \
		src/repro.egg-info test_output.txt bench_output.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
