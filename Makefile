# Convenience targets; `make check` is what CI runs.

.PHONY: all build test check bench micro determinism multicore demo contention obs groupcommit repl isolation chaos index clean

# Every registered engine; the per-engine smoke targets loop over it.
ENGINES := si si-cv sias sias-v

all: build

build:
	dune build

test:
	dune runtest --force

check: build test

bench:
	dune exec bench/main.exe

# Wall-clock microbenchmarks over the engine hot paths (point read,
# scan, update, visibility-heavy scan, TPC-C NOTPM) with a
# machine-readable summary. Pass BASELINE=path/to/old.json to print
# speedups against a previously recorded run.
micro:
	mkdir -p _obs
	dune exec bench/main.exe -- micro --bench-out _obs/BENCH_5.json \
	  $(if $(BASELINE),--bench-baseline $(BASELINE),)

# Simulated results are part of the model: the default-seed run of every
# engine x isolation level must reproduce the committed golden output
# byte for byte (--domains 1 pins the single-domain deterministic path;
# it is the default, spelled out here because multicore must never leak
# into it). Wall-clock optimisations that leak into simulated time fail
# here. The paged-index runs use a pool far below heap plus index, so
# their `buffer:` hit/miss/eviction line also pins the sequence of index
# page accesses. One bench chapter run under --faults and async commit
# pins the bench's fill-in of command-line flags into experiment setups
# (the wall-time line is the only host-dependent output and is dropped).
determinism:
	mkdir -p _obs
	for e in $(ENGINES); do \
	  echo "== $$e =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e --domains 1 > _obs/run_$$e.txt 2>&1 || exit 1; \
	  diff -u test/golden/run_$$e.txt _obs/run_$$e.txt || exit 1; \
	  for l in ssi wsi; do \
	    echo "== $$e/$$l =="; \
	    dune exec bin/sias_cli.exe -- run -e $$e --isolation $$l --domains 1 \
	      > _obs/run_$${e}_$${l}.txt 2>&1 || exit 1; \
	    diff -u test/golden/run_$${e}_$${l}.txt _obs/run_$${e}_$${l}.txt || exit 1; \
	  done; \
	  echo "== $$e/paged =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e --index paged -w 2 -d 20 --buffer 128 \
	    --domains 1 > _obs/run_$${e}_paged.txt 2>&1 || exit 1; \
	  diff -u test/golden/run_$${e}_paged.txt _obs/run_$${e}_paged.txt || exit 1; \
	done
	@echo "== bench vectors --faults 3 --synchronous-commit off =="
	dune exec bench/main.exe -- vectors --faults 3 --synchronous-commit off \
	  > _obs/bench_vectors_overlay.raw
	grep -v '^(total wall time' _obs/bench_vectors_overlay.raw > _obs/bench_vectors_overlay.txt
	diff -u test/golden/bench_vectors_overlay.txt _obs/bench_vectors_overlay.txt
	@echo "determinism OK: default-seed outputs match test/golden"

# Multicore smoke: the sharded TPC-C bench across 1/2/4 domains with the
# SI checker attached (non-zero exit on any violation), writing the
# scalability curve to _obs/BENCH_multicore.json, plus a 2-domain CLI
# run. Aggregate NOTPM must scale with domains (weak scaling); wall
# NOTPM additionally shows real-core speedup on multicore hosts.
multicore:
	mkdir -p _obs
	dune exec bench/main.exe -- multicore --bench-out _obs/BENCH_multicore.json
	dune exec bin/sias_cli.exe -- run -e sias-v --domains 2 -w 1 -d 10 \
	  --scale-div 300 --check-si
	@echo "multicore OK: _obs/BENCH_multicore.json"

demo:
	dune exec examples/recovery_demo.exe

# High-contention TPC-C smoke: every engine under deadlock detection with
# client retries and the online SI checker (non-zero exit on violation).
contention:
	for e in $(ENGINES); do \
	  echo "== $$e =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e -w 1 -d 10 --scale-div 300 \
	    --terminals 8 --conflict-policy detect --retries 5 --check-si || exit 1; \
	done

# Observability smoke: a short run emitting both artifacts, then validate
# them — the trace must parse as JSON, the metrics must contain the
# device write counter the paper's Table 1 is built from.
obs:
	mkdir -p _obs
	dune exec bin/sias_cli.exe -- run -e sias -w 5 -d 20 --scale-div 300 \
	  --flush t1 --gc 10 --metrics-out _obs/metrics.prom \
	  --trace-out _obs/trace.json --stats-interval 5
	python3 -m json.tool _obs/trace.json > /dev/null
	grep -q '^sias_device_bytes_total{device="data-ssd",op="write"}' _obs/metrics.prom
	grep -q '"traceEvents"' _obs/trace.json
	@echo "obs artifacts OK: _obs/metrics.prom _obs/trace.json"

# Commit-pipeline ablation: every engine under per-commit fsync, group
# commit and async commit. Going sync -> group -> async, commit-path
# fsyncs must fall and throughput must not regress.
groupcommit:
	mkdir -p _obs
	dune exec bench/main.exe -- groupcommit | tee _obs/groupcommit.txt

# Replication smoke: forced failover (load, partition, crash the
# primary, promote the standby, verify) on every engine, one remote-flush
# run over a lossy link, then the WAL-shipping lag-vs-commit-delay
# ablation with a machine-readable artifact.
repl:
	mkdir -p _obs
	for e in $(ENGINES); do \
	  echo "== failover $$e =="; \
	  dune exec examples/failover_demo.exe -- $$e || exit 1; \
	done
	dune exec bin/sias_cli.exe -- run -e sias-v -w 2 -d 10 --scale-div 300 \
	  --repl remote-flush --repl-link lossy
	dune exec bench/main.exe -- repl --bench-out _obs/BENCH_repl.json \
	  | tee _obs/repl.txt

# Isolation smoke: the si/ssi/wsi ablation across all four engines (the
# bench exits non-zero unless si shows write-skew anomalies and the
# serializable levels show none), the write-skew example, and a chaos
# run at --isolation ssi (volatile SIREAD/abort state must not survive a
# crash). BENCH_isolation.json records the per-engine overhead delta.
isolation:
	mkdir -p _obs
	dune exec bench/main.exe -- isolation --bench-out _obs/BENCH_isolation.json \
	  | tee _obs/isolation.txt
	dune exec examples/serializable.exe
	dune exec bin/sias_cli.exe -- chaos --isolation ssi

# Crash-schedule smoke: every engine x commit mode, a budgeted sample of
# deterministic crash schedules (including crashes during recovery and
# primary-crash failover) plus the out-of-space scenarios. Every schedule
# must recover byte-identically to the model prefix. CHAOS_FULL=1 drops
# the budget and enumerates every schedule (CI nightly). The report is
# kept as an artifact either way; non-zero exit on any failing schedule.
chaos:
	mkdir -p _obs
	dune exec bin/sias_cli.exe -- chaos --standby \
	  $(if $(CHAOS_FULL),--full,) | tee _obs/chaos_report.txt
	dune exec bin/sias_cli.exe -- chaos --index paged \
	  $(if $(CHAOS_FULL),--full,) | tee _obs/chaos_report_paged.txt

# Paged-index smoke: a beyond-RAM TPC-C run on the WAL-logged paged
# B+Tree for each engine (array is the default and stays on the golden
# path), the paged-index crash schedules, and the index
# write-amplification bench chapter (BENCH_index.json: per-engine index
# vs heap device writes under buffer pressure).
index:
	mkdir -p _obs
	for e in $(ENGINES); do \
	  echo "== $$e/paged =="; \
	  dune exec bin/sias_cli.exe -- run -e $$e --index paged -w 4 -d 10 \
	    --scale-div 300 --buffer 256 --check-si || exit 1; \
	done
	dune exec bin/sias_cli.exe -- chaos --index paged --engines sias,sias-v \
	  --modes sync --budget 40 --oos false
	dune exec bench/main.exe -- index --bench-out _obs/BENCH_index.json
	@echo "index OK: _obs/BENCH_index.json"

clean:
	dune clean
	rm -rf _obs
