PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-bench bench bench-smoke bench-check trace-smoke \
        profile-smoke faults-smoke ctcheck-smoke serve-smoke \
        shard-smoke keys-smoke obs-serve-smoke perfbench-smoke docs \
        docs-check tables

# CI's tier-1 step; --durations names the slowest tests in every log.
test:
	$(PYTHON) -m pytest -x -q --durations=15

test-bench:
	$(PYTHON) -m pytest -q --run-bench tests/test_analysis_bench.py

bench:
	$(PYTHON) -m repro bench

# ISS rows on the reduced set; enforces the ISS floors (median of five
# alternating rounds) and appends nothing.
bench-smoke:
	$(PYTHON) -m repro bench --smoke

# Fresh smoke runs of both families vs the last committed BENCH_iss.json
# and BENCH_serve.json records; exits non-zero on a >30% (ISS) / >50%
# (serve) throughput regression or any floor of the floor table that
# does not hold (writes nothing).
bench-check:
	$(PYTHON) -m repro bench --check

# Superblock dispatcher gate: the directed three-way parity suite
# (reference interpreter vs the basic-block rung vs superblocks — bit-
# and cycle-exact on every kernel),
# the SREG dead-flag property tests and the forced mid-superblock
# fallback cases, plus the three-way differential fuzz harness.  For
# local use: CI's tier-1 step already runs both files in full.
trace-smoke:
	$(PYTHON) -m pytest -q tests/test_avr_trace.py
	$(PYTHON) -m pytest -q tests/test_avr_fuzz.py -k trace

# Fast profiling sanity pass: ISS group/hotspot/routine attribution plus
# the traced Python mirror op, on small inputs.
profile-smoke:
	$(PYTHON) -m repro profile --smoke
	$(PYTHON) -m repro profile ladder --smoke --format chrome --out /dev/null
	$(PYTHON) -m repro profile scalarmult --smoke --format jsonl > /dev/null

# Fault-campaign gate (DESIGN.md §7): each --check runs its campaign
# twice and fails unless the JSONL is byte-identical, the hardened build
# reports 0 silent corruptions and the baseline reports > 0.  The ladder
# leg is the acceptance campaign: 200 seeded faults on the CA-mode
# assembly ladder under the ISS.
faults-smoke:
	$(PYTHON) -m repro faults ladder --mode ca --n 200 --seed 7 --check
	$(PYTHON) -m repro faults ecdh --smoke --check
	$(PYTHON) -m repro faults ecdsa --smoke --check

# Constant-time gate (DESIGN.md §9): every leg runs the taint checker
# over all three timing modes, twice on the default dispatcher (JSONL
# must be byte-identical) and once on the reference interpreter (every
# report field but the engine label must agree).  The field
# multiplication, the masked-swap ladder and DAAA exponentiation must
# come back clean; the NAF foil must stay flagged — if it ever reports
# clean, the checker has lost its teeth.
ctcheck-smoke:
	$(PYTHON) -m repro ctcheck mul --check --expect clean
	$(PYTHON) -m repro ctcheck ladder --check --expect clean
	$(PYTHON) -m repro ctcheck daaa --check --expect clean
	$(PYTHON) -m repro ctcheck naf --check --expect flagged

# Regenerate the docs/ API reference from docstrings; docs-check is the
# CI form (fails on stale pages or broken relative links, writes nothing).
docs:
	$(PYTHON) -m repro docs

docs-check:
	$(PYTHON) -m repro docs --check

# Serving gate (DESIGN.md §8): a 200-request deterministic loadgen mix
# against a 1-process (in-process) server and a fresh 2-process cluster
# — zero errors and a byte-stable JSONL summary under the fixed seed
# (each --check runs the stream twice and compares bytes) — then the
# serving benchmark, which enforces the serve rows of the floor table
# (repro.analysis.bench.FLOORS; each floor the median of five
# alternating rounds) and appends nothing.
serve-smoke:
	$(PYTHON) -m repro loadgen --workers 1 --n 200 --seed 7 --check \
	    --out /dev/null
	$(PYTHON) -m repro loadgen --workers 2 --n 200 --seed 7 --check \
	    --out /dev/null
	$(PYTHON) -m repro bench --serve --smoke

# Scale-out gate (DESIGN.md §8 "Scale-out"): the deterministic --check
# stream against a fresh cluster of 2 serving processes (port-per-
# process ingress, deterministic round-robin over 8 connections, comb
# tables inherited from the supervisor) — zero errors and
# byte-identical summaries across two runs, whatever the topology.
shard-smoke:
	$(PYTHON) -m repro loadgen --workers 2 --connections 8 \
	    --n 200 --seed 7 --check --out /dev/null

# Named-key gate (DESIGN.md §8 "Named keys", docs/tenancy.md): the
# deterministic --check stream with secret-bearing ops rewritten onto
# server-resident keys over two tenants, against a fresh cluster of 2
# serving processes (key setup lands through process 0, resolution
# rides the shared journal everywhere) — then the targeted acceptance
# tests: the create/rotate/use round-trip with generation pinning, the
# cluster scenario (cross-process visibility, per-tenant counters in
# cluster stats, no secret on the wire, keys surviving a forced
# respawn) and two writers racing on one journal.
keys-smoke:
	$(PYTHON) -m repro loadgen --workers 2 --tenants 2 \
	    --n 100 --seed 7 --check --out /dev/null
	$(PYTHON) -m pytest -q tests/test_serve_keys.py \
	    -k "cluster or generation_pinning or quota_shed or JournalWriters"

# Observability gate for the serving stack (DESIGN.md §4/§8): a traced
# loadgen run must join every reply's trace id into a client -> server
# -> kernel span tree, pass the Chrome-trace schema check, dump a
# slowlog, and the Prometheus stats endpoint must answer through the
# wire with the serve counter families present.
obs-serve-smoke:
	$(PYTHON) -m repro loadgen --workers 1 --n 50 --seed 7 --trace \
	    --slowlog /tmp/repro_slowlog.json --scrape --out /dev/null \
	    | grep -q "serve_requests_total"
	$(PYTHON) -c "import json; from repro.obs.export import \
	    validate_chrome; \
	    validate_chrome(json.load(open('/tmp/repro_slowlog.json'))); \
	    print('slowlog chrome trace valid')"

# Benchmark-harness gate: the perfbench suite, the one test suite that
# reads field counters (copy(), delta(), words.mul) the way the
# external benchmark does.
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/tests

tables:
	$(PYTHON) -m repro all
