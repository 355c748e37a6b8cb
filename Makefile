# Convenience entry points; dune is the real build system.

.PHONY: all build test bench bench-hotpath bench-net bench-durability bench-obs bench-sync bench-cluster ab check loc clean

all: build

build:
	dune build

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Hot-path microbenchmarks (SHA-256 and CRC-32 kernels, chunker scan,
# node cache, CSV table import/export against the two-pass reference,
# varint decoding's allocation, update and three-way merge of a
# 1M-record map); writes BENCH_hotpath.json.
bench-hotpath:
	dune exec bench/main.exe -- hotpath

# Network benchmarks, all spoken through the Mux client.  net-c10k:
# idle+active connection sweep of the event-loop engine vs the
# thread-per-connection engine (idle connections are bare sockets) plus
# pipelined depth 1/8/32 on one connection; writes BENCH_net.json.
# net-scaling: reader sweep 1->8 over the striped read/write locking and
# 32-op BATCH frames vs single round trips; writes
# BENCH_net_scaling.json.  (The older mixed-workload soak
# is `-- net`, writing BENCH_net_mixed.json.)
bench-net:
	dune exec bench/main.exe -- net-c10k
	dune exec bench/main.exe -- net-scaling

# Durability benchmark: sustained fully-durable puts through the pack
# log's group commit vs one-fsync-per-chunk in the directory backend,
# recovery time with/without a checkpoint, and a crash-matrix smoke;
# writes BENCH_durability.json and fails if the speedup drops below 5x.
bench-durability:
	dune exec bench/main.exe -- durability

# Delta-sync benchmark: Merkle-DAG push/pull of ~1M records over
# loopback, then a 1%-edit update — measures bytes on the wire for the
# delta vs the full transfer; writes BENCH_sync.json and fails if the
# delta ships more than 10% of the full-transfer bytes.
bench-sync:
	dune exec bench/main.exe -- sync

# Cluster benchmark: 3 live forkbase nodes over TCP at W=2 — read
# availability and failover latency under a node kill, read-repair
# convergence after an empty restart, and the rebalance delta vs the
# ideal hash-ring delta on membership growth; writes BENCH_cluster.json
# and fails if availability drops below 99% or rebalance moves anything
# beyond the ring delta.
bench-cluster:
	dune exec bench/main.exe -- cluster

# Observability benchmark: instrumentation overhead (warmed, best-of-3),
# operation latency distributions, wire tracing cost enabled vs FB_OBS=0;
# writes BENCH_obs.json.  (`-- obs-quick` is the smoke variant below: it
# shrinks the sweeps and does not overwrite the artifact.)
bench-obs:
	dune exec bench/main.exe -- obs

# Paired A/B of the `forkbase serve` benchmark (fbperf): BASE, extracted
# from its committed files into a scratch directory, against a copy of the
# working tree beside it (both built from an empty _build), over the listed
# seeds and workloads (20-second runs, as
# BENCHMARK.json sets them), alternating which side runs first per seed.
# Prints each metric's medians, quartiles and wins per workload; fails if
# a run fails or space_amp, wire_kib_per_op or the failed-operation count
# differ within a pair.  `make ab BASE=HEAD~1 SEEDS=1,2,3 WORKLOADS=sync`.
# TRACE=1 runs traced pairs instead: it fails if a count that fixes the work
# (sync.*, chunk.new_puts_per_op, chunk.flushes_per_op,
# chunk.log_bytes_per_user_byte, server.frames_per_op) differs within a
# pair, and prints the counts a change may move (postree.*, chunk.gets/puts,
# hash.bytes).
BASE ?= HEAD
SEEDS ?= 1,2,3,4,5
WORKLOADS ?= sync,dataset
TRACE ?= 0
ab:
	python3 tools/ab.py --base $(BASE) --seeds $(SEEDS) --workloads $(WORKLOADS) \
	  $(if $(filter 1,$(TRACE)),--trace)

# The pre-commit gate: full build, full test suite, the Fig. 2 POS-Tree
# bench (fails if `validate` refuses a tree it just built), the observability
# smoke (instrumentation overhead + histogram/exposition/tracing smoke,
# artifact untouched), a ~1-second hot-path sanity run (SHA-256 and
# CRC-32 kernel equivalence + cache on/off smoke + a generated CSV table
# that must export byte for byte and re-import to the same table + a
# varint decode that must allocate nothing + a 100k-record merge that must
# give build's root + a log read beside a busy OCaml thread that must cost
# no more than 20x one alone), a
# ~1-second network smoke (2
# concurrent clients over loopback, asserts zero dropped/corrupt frames
# and a clean shutdown), a ~1-second concurrency smoke (reader scaling,
# BATCH), an event-loop smoke (event vs
# threaded connection sweep, SUBSCRIBE push, pipelined depths — fails if
# the event engine drops a connection), a sub-second durability smoke
# (group commit vs per-chunk fsync, recovery replay, truncation-point
# crash matrix), a ~1-second delta-sync smoke (full push/pull then a
# 1%-edit delta over loopback, verifying the frontier cut), a ~1-second
# cluster smoke (3 live nodes at W=2: node kill, failover reads, read
# repair, rebalance-equals-ring-delta), and one `forkbase top` render
# against a throwaway in-process node (exercises the METRICS-JSON wire
# path end to end).
check:
	dune build
	dune runtest
	dune exec bench/main.exe -- fig2
	dune exec bench/main.exe -- obs-quick
	dune exec bench/main.exe -- hotpath-quick
	dune exec bench/main.exe -- net-quick
	dune exec bench/main.exe -- net-scaling-quick
	dune exec bench/main.exe -- net-c10k-quick
	dune exec bench/main.exe -- durability-quick
	dune exec bench/main.exe -- sync-quick
	dune exec bench/main.exe -- cluster-quick
	dune exec bin/forkbase_cli.exe -- top --demo --once --interval 0.5

# Lines of OCaml (*.ml + *.mli, counted with wc -l) per source
# directory, and lib + bin + bench + test together: the measure of net
# source size that ROADMAP.md tracks.  Then each lib/* sub-library, for
# per-layer size gates.
loc:
	@t=0; for d in lib bin bench test fbperf; do \
	  n=$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l); \
	  printf '%-22s %6d\n' $$d $$n; \
	  [ $$d = fbperf ] || t=$$((t + n)); \
	done; printf '%-22s %6d\n' 'lib+bin+bench+test' $$t; \
	for d in lib/*/; do \
	  n=$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l); \
	  printf '  %-20s %6d\n' $${d%/} $$n; \
	done

clean:
	dune clean
