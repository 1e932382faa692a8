#!/bin/sh
# api_check.sh enforces the one query surface (run via `make api-check`).
#
# Eleven checks:
#   1. Every exported Engine / ShardedEngine method on the query surface —
#      names starting with Similar, Query, Linear, or Search — takes a
#      context.Context as its first parameter. No exceptions: the
#      pre-context per-family wrappers are gone, searches go through Query.
#   2. Exported HTTP search handler constructors accept the core.Searcher
#      interface, never *core.Engine — handlers must serve single-engine and
#      sharded deployments alike.
#   3. Every JSON field on the /v2 wire structs is snake_case.
#   4. cmd/s2 mounts exactly one search route, /v2/search.
#   5. Every package under internal/ except the test-only internal/israce and
#      internal/leakcheck is something a command builds on: a package only
#      examples or tests reach lives beside them, not in internal/.
#   6. One request, one record, one ID: an obs.WideEvent literal is built
#      only in core's request envelope (internal/core/request.go) and
#      admission's shed path (internal/admit/middleware.go), the
#      "http_request" trace root is started in exactly one place
#      (obs.StartHTTPRequest) — so no layer grows a mirror of the request
#      lifecycle again — and no non-test Go declares a request_id JSON field
#      or names an X-Request-Id header: the trace ID is the request's only
#      identifier.
#   7. No Config field without a setter: every core.Config field is set by
#      non-test code under cmd/ or bench/ — in a one-line core.Config{...}
#      literal or by a `.Field =` assignment — or is on the rule's allowlist
#      with its reason. A knob only tests turn is a dimension every test
#      matrix has to cover for nothing.
#   8. No declaration without a caller: every top-level func, type, var and
#      const under internal/, exported or not, and every exported method
#      there is referenced by non-test Go in cmd/, examples/, bench/ or
#      another internal/ file (not from its own body), or is on the rule's
#      allowlist with its reason. The checker is the root package's
#      TestNoDeclarationWithoutACaller (exports_test.go; go/parser and
#      go/ast only), which also runs under `go test ./...`.
#   9. One resolver: core.Envelope turns a request's ID or curve into the
#      query once, for the single and the sharded engine alike. Non-test
#      internal/shard names no core.Kind identifier (no per-kind planning
#      in the scatter), and core.Request has no Prepared or QueryBursts
#      field (no side door for a layer's own resolution).
#  10. One served index: similarity search is fig. 11 over the arena
#      (knn.Scan), and the paper's VP-tree is instrumentation. Non-test
#      internal/core and internal/shard call neither vptree.Build nor any
#      Search* or Insert* method of vptree.Tree, and non-test core, shard
#      and cmd/ do not call Engine.Tree — except the one core file that
#      holds Engine.Tree, which builds the tree for the benchmark's ledger.
#  11. One filter-and-refine: fig. 11's candidate order, δ cut and refine
#      cutoff live in internal/knn, and every search that filters and
#      refines (the arena scan, the paper's tree, DTW) runs them there.
#      Non-test internal/dtw imports neither internal/lifecycle nor
#      internal/knn (it holds the kernels, not a search), and no non-test
#      Go outside internal/knn calls Gate.DeltaCut.
set -eu

cd "$(dirname "$0")/.."

fail=0

# --- 1. context-first query surface -------------------------------------
viol="$(grep -n -E 'func \((e \*Engine|s \*ShardedEngine)\) (Similar|Query|Linear|Search)[A-Za-z]*\(' internal/core/*.go internal/shard/*.go |
	grep -v '_test\.go:' |
	grep -v -E '\(ctx context\.Context' || true)"

if [ -n "$viol" ]; then
	echo "api-check: exported Engine/ShardedEngine query methods must take 'ctx context.Context' first:" >&2
	echo "$viol" >&2
	fail=1
fi

# --- 2. handlers accept core.Searcher, not *core.Engine ------------------
handlers="$(grep -rn -E 'func [A-Z][A-Za-z0-9]*Handler\(' --include='*.go' internal/core internal/shard | grep -v '_test\.go:' || true)"
bad="$(echo "$handlers" | grep -E '\*Engine|\*core\.Engine' || true)"
if [ -n "$bad" ]; then
	echo "api-check: exported search handlers must accept the Searcher interface, not *Engine:" >&2
	echo "$bad" >&2
	fail=1
fi

# --- 3. /v2 wire structs use snake_case JSON fields ----------------------
tags="$(grep -n -o 'json:"[^"]*"' internal/core/search_v2.go | grep -v -E 'json:"(-|[a-z0-9_]+)(,omitempty)?"' || true)"
if [ -n "$tags" ]; then
	echo "api-check: /v2 JSON fields must be snake_case (internal/core/search_v2.go):" >&2
	echo "$tags" >&2
	fail=1
fi

# --- 4. one search route --------------------------------------------------
routes="$(grep -n -o -E 'Pattern: *"[^"]*search[^"]*"' cmd/s2/*.go | grep -v '_test\.go:' || true)"
if [ "$(echo "$routes" | grep -c .)" -ne 1 ] || ! echo "$routes" | grep -q '"/v2/search"'; then
	echo "api-check: cmd/s2 must mount exactly one search route, /v2/search; found:" >&2
	echo "$routes" >&2
	fail=1
fi

# --- 5. no internal package that only examples or tests reach -------------
deps="$(go list -deps ./cmd/...)"
orphans="$(go list ./internal/... | grep -v -x -e 'repro/internal/israce' -e 'repro/internal/leakcheck' | while read -r p; do
	echo "$deps" | grep -q -x "$p" || echo "$p"
done)"
if [ -n "$orphans" ]; then
	echo "api-check: internal packages no command imports (move them beside their users):" >&2
	echo "$orphans" >&2
	fail=1
fi

# --- 6. one request, one record ------------------------------------------
# Non-test Go code only, comment lines dropped.
code_lines() {
	grep -rn --include='*.go' "$@" cmd internal examples | grep -v '_test\.go:' | grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//' || true
}
events="$(code_lines 'obs\.WideEvent{')"
if [ "$(echo "$events" | cut -d: -f1 | sort | tr '\n' ' ')" != "internal/admit/middleware.go internal/core/request.go " ]; then
	echo "api-check: obs.WideEvent literals belong to core's request envelope and admission's shed path only:" >&2
	echo "$events" >&2
	fail=1
fi
roots="$(code_lines '"http_request"')"
if [ "$(echo "$roots" | grep -c .)" -ne 1 ] || ! echo "$roots" | grep -q 'StartTraceCtx('; then
	echo "api-check: the \"http_request\" trace root must be started in exactly one place (obs.StartHTTPRequest); found:" >&2
	echo "$roots" >&2
	fail=1
fi
second_ids="$(code_lines 'json:"request_id[,"]'; code_lines -i 'X-Request-Id')"
if [ -n "$second_ids" ]; then
	echo "api-check: the trace ID is a request's only identifier; a request_id field or X-Request-Id header is back:" >&2
	echo "$second_ids" >&2
	fail=1
fi

# --- 7. no Config field without a setter ---------------------------------
# Allowlisted, with the reason (one "Field: reason" a line):
config_allow='Workers: the budget-truncation tests need the serial scan (Workers 1)'
fields="$(awk '/^type Config struct \{/ { body = 1; next } body && /^\}/ { exit }
	body && /^\t[A-Z][A-Za-z0-9]*[ \t]/ { print $1 }' internal/core/core.go)"
setters="$(grep -rh --include='*.go' --exclude='*_test.go' -E 'core\.Config\{|\.[A-Z][A-Za-z0-9]* = ' cmd bench 2>/dev/null | grep -v '^[[:space:]]*//' || true)"
unset_fields=""
for f in $fields; do
	echo "$config_allow" | grep -q "^$f:" && continue
	if ! echo "$setters" | grep -q -E "core\.Config\{[^}]*\b$f:|\.$f = "; then
		unset_fields="$unset_fields $f"
	fi
done
if [ -z "$fields" ] || [ -n "$unset_fields" ]; then
	echo "api-check: core.Config fields no command or benchmark sets (delete them, or allowlist them in rule 7 with a reason):$unset_fields" >&2
	fail=1
fi

# --- 8. no declaration without a caller ----------------------------------
if ! out="$(go test -count=1 -run '^TestNoDeclarationWithoutACaller$' . 2>&1)"; then
	echo "api-check: declarations under internal/ with no non-test caller (rule 8):" >&2
	echo "$out" >&2
	fail=1
fi

# --- 9. one resolver -------------------------------------------------------
kinds="$(grep -n 'core\.Kind' internal/shard/*.go | grep -v '_test\.go:' | grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//' || true)"
if [ -n "$kinds" ]; then
	echo "api-check: the scatter plans by kind again; resolving a request is core.Envelope's (rule 9):" >&2
	echo "$kinds" >&2
	fail=1
fi
side_doors="$(awk '/^type Request struct \{/ { body = 1; next } body && /^\}/ { body = 0 }
	body && /^\t(Prepared|QueryBursts)[ \t]/ { print FILENAME ":" FNR ":" $0 }' internal/core/*.go)"
if [ -n "$side_doors" ]; then
	echo "api-check: core.Request carries a pre-resolved query again; the Envelope resolves every request (rule 9):" >&2
	echo "$side_doors" >&2
	fail=1
fi

# --- 10. one served index -------------------------------------------------
tree_file="$(grep -l -E '^func \(e \*Engine\) Tree\(\)' internal/core/*.go || true)"
tree_methods="$(grep -h -o -E '^func \(t \*Tree\) (Search|Insert)[A-Za-z0-9]*' internal/vptree/*.go | sed 's/.*) //' | sort -u | paste -s -d '|' -)"
served="$(grep -n -E "vptree\.Build\(|\.($tree_methods)\(" internal/core/*.go internal/shard/*.go || true
	grep -rn --include='*.go' -E '\.Tree\(\)' internal/core internal/shard cmd || true)"
served="$(echo "$served" | grep -v -e '_test\.go:' -e '^$' | grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//' | grep -v "^$tree_file:" || true)"
if [ -z "$tree_file" ] || [ -z "$tree_methods" ] || [ -n "$served" ]; then
	echo "api-check: the served index is the scan; the VP-tree is built, searched or inserted into outside $tree_file (rule 10):" >&2
	echo "$served" >&2
	fail=1
fi

# --- 11. one filter-and-refine ---------------------------------------------
dtw_imports="$(go list -f '{{join .Imports "\n"}}' ./internal/dtw | grep -x -e 'repro/internal/lifecycle' -e 'repro/internal/knn' || true)"
if [ -n "$dtw_imports" ]; then
	echo "api-check: internal/dtw holds the DTW kernels; the search that composes them is knn's filter and refine (rule 11). It imports:" >&2
	echo "$dtw_imports" >&2
	fail=1
fi
delta_cuts="$(code_lines '\.DeltaCut(' | grep -v '^internal/knn/' || true)"
if [ -n "$delta_cuts" ]; then
	echo "api-check: Gate.DeltaCut is called outside internal/knn; a second filter-and-refine is back (rule 11):" >&2
	echo "$delta_cuts" >&2
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "api-check: ok"
