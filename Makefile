# Development entry points. `make check` is what CI runs.

GO ?= go

.PHONY: check fmt vet build test tsanvet bench-module smoke mutation-smoke record-dir-smoke debug-smoke crash-smoke load-smoke experiments-smoke fuzz-smoke bench

check: fmt vet build test tsanvet bench-module

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tsanvet enforces the instrumentation discipline (see README
# "Instrumentation discipline"): nonzero exit on any finding. It runs over
# ./... and therefore covers internal/explore, internal/obs and
# internal/conc along with everything else — including the interprocedural
# lockorder pass.
tsanvet:
	$(GO) run ./cmd/tsanvet ./...

# bench-module vets and tests the benchmark, which is its own Go module
# (_tsanbench/go.mod), so ./... above skips it. It calls this module's
# exported names, so a change to one of them must keep it building.
bench-module:
	cd _tsanbench && $(GO) vet ./... && $(GO) test ./...

# smoke runs the racehunt exploration pipeline end to end: a small trial
# budget over ms-queue with 4 workers must find a failure, minimize it,
# and leave behind a demo that demoinspect validates.
smoke:
	$(GO) run ./cmd/racehunt -program ms-queue -strategies rnd -trials 16 \
		-workers 4 -seed 7 -corpus /tmp/racehunt-corpus.json -o /tmp/racehunt-race.demo
	$(GO) run ./cmd/demoinspect /tmp/racehunt-race.demo

# mutation-smoke runs the schedule-fuzzing loop end to end: a rotation-only
# hunt over the needle program records its shallow race into a seed corpus
# (unminimized, so the recording keeps the SIGNAL stream the mutation
# operators need); a second hunt pre-seeded with that corpus must then reach
# the deep race through a mutated demo — at least one failure carries a
# lineage (ancestor signature + operator chain) into the corpus, and every
# minimized demo must strict-replay back to a failure (-verify).
mutation-smoke:
	$(GO) run ./cmd/racehunt -program needle -strategies rnd -trials 120 \
		-workers 4 -seed 4 -minimize=false \
		-corpus /tmp/needle-seed-corpus.json | tee /tmp/mutation-smoke-seed.log
	grep -q 'needle.trip' /tmp/mutation-smoke-seed.log
	$(GO) run ./cmd/racehunt -program needle -strategies rnd -trials 200 \
		-workers 4 -seed 5 -mutate -seed-corpus /tmp/needle-seed-corpus.json \
		-verify -corpus /tmp/needle-mutation-corpus.json | tee /tmp/mutation-smoke.log
	grep -q 'lineage: ' /tmp/mutation-smoke.log
	grep -q 'needle.deep' /tmp/needle-mutation-corpus.json
	grep -q '"ancestor":' /tmp/needle-mutation-corpus.json
	grep -q 'verify: races=' /tmp/mutation-smoke.log
	! grep -q 'verify FAILED' /tmp/mutation-smoke.log

# record-dir-smoke streams a mutation hunt's fresh trials into a record
# directory. Only failing trials keep their files, so the directory must be
# non-empty yet hold fewer files than trials; every kept file must pass
# demoinspect, and every streamed-recording path racehunt prints must exist.
record-dir-smoke:
	rm -rf /tmp/record-dir-smoke
	$(GO) build -o /tmp/racehunt ./cmd/racehunt
	$(GO) build -o /tmp/demoinspect ./cmd/demoinspect
	/tmp/racehunt -program needle -strategies rnd -trials 200 -workers 2 \
		-seed 5 -mutate -record-dir /tmp/record-dir-smoke > /tmp/record-dir-smoke.log
	cat /tmp/record-dir-smoke.log
	n=$$(ls /tmp/record-dir-smoke | wc -l); echo "$$n of 200 trials kept a recording"; \
		test $$n -gt 0 && test $$n -lt 200
	for f in /tmp/record-dir-smoke/*; do \
		/tmp/demoinspect $$f | grep -q 'validation:  ok' || { echo "invalid recording: $$f"; exit 1; }; \
	done
	grep -q 'streamed recording: ' /tmp/record-dir-smoke.log
	grep 'streamed recording: ' /tmp/record-dir-smoke.log | awk '{print $$3}' | \
		while read -r p; do test -f "$$p" || { echo "reported recording missing: $$p"; exit 1; }; done

# debug-smoke drives a scripted tsandebug session over the checked-in
# minimized ms-queue demo: run-to-tick, reverse-continue to the raced
# variable's last write, a trace window and a restart-from-checkpoint
# verification. The transcript lands in /tmp for CI to archive; the
# scripted session exits nonzero if any command fails.
debug-smoke:
	$(GO) run ./cmd/tsandebug -program ms-queue \
		-demo cmd/tsandebug/testdata/msqueue.demo \
		-script cmd/tsandebug/testdata/smoke.script \
		| tee /tmp/tsandebug-transcript.txt

# crash-smoke proves the durability story end to end: stream a recording
# of a run far too long to finish, SIGKILL the recorder mid-flight,
# recover the torn file (both as a replayable v1 demo via demoinspect and
# directly), and replay the recovered prefix — it must come back
# synchronised and marked truncated.
crash-smoke:
	$(GO) build -o /tmp/crashrecord ./cmd/crashrecord
	rm -f /tmp/crash-smoke.demo2
	/tmp/crashrecord -program ms-queue -record /tmp/crash-smoke.demo2 \
		-reps 100000000 -flush 5ms & pid=$$!; sleep 2; kill -9 $$pid
	$(GO) run ./cmd/demoinspect -recover -o /tmp/crash-smoke-recovered.demo \
		/tmp/crash-smoke.demo2 | tee /tmp/crash-smoke-inspect.log
	grep -q 'truncated:   yes' /tmp/crash-smoke-inspect.log
	/tmp/crashrecord -program ms-queue -replay /tmp/crash-smoke.demo2 \
		-reps 100000000 | tee /tmp/crash-smoke.log
	grep -q 'replay synchronised' /tmp/crash-smoke.log
	grep -q 'truncated=true' /tmp/crash-smoke.log

# load-smoke proves the scaling pipeline end to end: the epoll-based
# netload server under 1000 virtual connections arriving open-loop over
# ~5 virtual minutes (compressed to wall-clock seconds by virtual time),
# streaming the demo to disk, then a strict offline replay that must come
# back bit-synchronised with no live load generator.
load-smoke:
	$(GO) build -o /tmp/netload ./cmd/netload
	rm -f /tmp/load-smoke.demo2
	/tmp/netload -conns 1000 -gap-ms 300 -mode queue+rec \
		-record /tmp/load-smoke.demo2 | tee /tmp/load-smoke.log
	grep -q 'completed=1000 errors=0' /tmp/load-smoke.log
	/tmp/netload -replay /tmp/load-smoke.demo2 | tee /tmp/load-smoke-replay.log
	grep -q 'desync=false' /tmp/load-smoke-replay.log

# experiments-smoke runs every cmd/experiments registry entry at one run per
# cell into a throwaway artifact, so a failed run or a broken entry fails CI.
# The tables print only once every entry has succeeded, so the grep for the
# last entry's block fails when cmd/experiments did (tee hides its exit code).
experiments-smoke:
	$(GO) run ./cmd/experiments -runs 1 -o /tmp/experiments-smoke.json | tee /tmp/experiments-smoke.md
	grep -q '<!-- experiments:bug -->' /tmp/experiments-smoke.md

# fuzz-smoke fuzzes every decoder beyond its seed corpus for 30s each: the
# v1/v2 demo decoder (FuzzDecode), the torn-file recovery path
# (FuzzRecoverStream), and the RLE streams both containers are built from
# (FuzzDecodeUint64s, FuzzDecodeBytes). A crash fails the target and leaves
# the input under the package's testdata/fuzz; check it in as a seed once
# fixed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/demo
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverStream$$' -fuzztime 30s ./internal/demo
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeUint64s$$' -fuzztime 30s ./internal/rle
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBytes$$' -fuzztime 30s ./internal/rle

bench:
	$(GO) test -bench=. -benchmem
