# Developer entry points. Everything here is plain go tool invocations —
# the module has zero dependencies, so every target works fully offline.

GO ?= go

.PHONY: build test race lint lint-json lint-allows vet bench-go fuzz scenario-hashes corpus-golden service-e2e loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# taoptvet is the in-repo go/analysis-style suite enforcing the
# determinism and layering contracts (DESIGN.md §10). It is built from
# internal/lint with no dependency outside the standard library, so there
# is no tool version to pin: the go.mod toolchain pins the build.
lint:
	$(GO) run ./cmd/taoptvet ./...

# lint-json emits the findings as a machine-readable array — what the CI
# step uploads as an artifact when the lint gate fails.
lint-json:
	$(GO) run ./cmd/taoptvet -json ./...

# lint-allows audits every //lint:allow suppression with its mandatory
# justification; TestRepoIsLintClean pins the count.
lint-allows:
	$(GO) run ./cmd/taoptvet -allows ./...

vet:
	$(GO) vet ./...

# bench-go runs every go-test benchmark once — the CI smoke that keeps
# benchmark code compiling and executing.
bench-go:
	$(GO) test -bench . -benchtime=1x -run '^$$' ./...

# fuzz gives each go-native fuzz target a short coverage-guided run on
# top of its checked-in seed corpus.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzFindSpace -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSpaceTracker -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzScenarioDecode -fuzztime 10s
	$(GO) test ./internal/export -run '^$$' -fuzz FuzzTraceBinCodec -fuzztime 10s
	$(GO) test ./internal/export -run '^$$' -fuzz FuzzExportRead -fuzztime 10s
	$(GO) test ./internal/bus/wire -run '^$$' -fuzz FuzzWireLog -fuzztime 10s
	$(GO) test ./internal/service -run '^$$' -fuzz FuzzServiceSubmit -fuzztime 10s

# corpus-golden regenerates the corpus-analytics golden (the rendered
# tracetool-corpus output over the pinned 24-run seed grid); run it after a
# deliberate change to the binary codec or the corpus renderer.
corpus-golden:
	$(GO) test ./internal/corpus -run TestCorpusGolden -update

# service-e2e boots taoptd on a temp data dir and proves the cache contract
# over real HTTP: served export == the JSON view of an offline taopt record
# byte-for-byte, a renamed resubmit is a cache hit, and the hit survives a
# service restart.
service-e2e:
	./scripts/service-e2e.sh

# scenario-hashes regenerates the canonical-hash manifest the CI
# scenario-stability step diffs against; run it after deliberately editing
# a document under testdata/scenarios/.
scenario-hashes:
	for f in testdata/scenarios/*.json; do $(GO) run ./cmd/appgen -hash "$$f"; done > testdata/scenarios/HASHES

# loc prints the non-test and test Go line counts ROADMAP tracks (the
# frozen perfbench module and testdata fixtures are excluded from both).
loc:
	@printf 'non-test Go lines: '; find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path '*/testdata/*' | xargs cat | wc -l
	@printf 'test Go lines:     '; find . -name '*_test.go' -not -path './perfbench/*' -not -path '*/testdata/*' | xargs cat | wc -l

check: build vet lint test
