#!/bin/sh
# trace_smoke.sh — end-to-end check of the trace pipeline.
#
# Writes the paper's exemplar queries as a genlog binary and boots
# `cmd/s2 -load` on it — the boot every served benchmark workload takes, the
# engine reading its series from the file — then sends one /v2/search
# request carrying a W3C traceparent header, reads the kept trace back from
# /debug/traces?id=<trace_id> before shutting the server down, and asserts:
#
#   * the server adopted the caller's trace ID and echoed a traceparent
#     header, the body's trace_id is that ID, no X-Request-Id is sent, and
#     /debug/requests?id=<trace_id> resolves the request
#   * the trace contains the admission, query-family and index-phase spans
#   * it parents them correctly (http_request under the caller's span,
#     admission/family under http_request, index phase under the family
#     span)
#   * it stamps every span with a non-zero duration
#
# Requires curl and jq (both in CI's ubuntu image). Exits non-zero with a
# diagnostic on the first failed assertion.
set -eu

PORT="${TRACE_SMOKE_PORT:-17261}"
ADDR="127.0.0.1:$PORT"
DIR="$(mktemp -d)"
BIN="$DIR/s2"
CORPUS="$DIR/exemplars.bin"
TRACE_JSON="$DIR/trace.json"
LOG="$DIR/s2.log"
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
PARENT_SPAN="00f067aa0ba902b7"

fail() { echo "trace-smoke: FAIL: $*" >&2; sed 's/^/  s2: /' "$LOG" >&2 || true; exit 1; }

go build -o "$BIN" ./cmd/s2
go run ./cmd/genlog -exemplars -format binary -days 128 -out "$CORPUS" >"$LOG" 2>&1 \
    || fail "cmd/genlog could not write $CORPUS"

"$BIN" -load "$CORPUS" -debug-addr "$ADDR" -serve >"$LOG" 2>&1 &
S2_PID=$!
trap 'kill "$S2_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

# Wait for the debug server to come up.
i=0
until curl -fsS "http://$ADDR/debug/vars" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "server did not come up on $ADDR"
    kill -0 "$S2_PID" 2>/dev/null || fail "server exited early"
    sleep 0.1
done

# One traced search, propagating an upstream trace context.
HDRS="$DIR/headers.txt"
BODY="$DIR/body.json"
curl -fsS -D "$HDRS" -o "$BODY" \
    -H "traceparent: 00-$TRACE_ID-$PARENT_SPAN-01" \
    "http://$ADDR/v2/search?q=cinema&k=3&mode=similar" \
    || fail "traced /v2/search request failed"

grep -qi "^traceparent: 00-$TRACE_ID-" "$HDRS" \
    || fail "response did not echo a traceparent for trace $TRACE_ID"
[ "$(jq -r .trace_id "$BODY")" = "$TRACE_ID" ] \
    || fail "response body trace_id = $(jq -r .trace_id "$BODY"), want $TRACE_ID"
[ "$(jq '.results | length' "$BODY")" -gt 0 ] \
    || fail "search returned no results"
! grep -qi '^x-request-id:' "$HDRS" \
    || fail "response carries an X-Request-Id beside its traceparent"
curl -fsS -o /dev/null "http://$ADDR/debug/requests?id=$TRACE_ID" \
    || fail "/debug/requests?id=$TRACE_ID does not resolve the request"

# The admission middleware keeps the trace as the request ends, which can
# be just after the answer reached us: poll for it.
i=0
until curl -fsS -o "$TRACE_JSON" "http://$ADDR/debug/traces?id=$TRACE_ID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 50 ] || fail "/debug/traces?id=$TRACE_ID never resolved"
    sleep 0.1
done

kill -TERM "$S2_PID"
i=0
while kill -0 "$S2_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "server did not exit after SIGTERM"
    sleep 0.1
done

[ "$(jq -r .trace_id "$TRACE_JSON")" = "$TRACE_ID" ] \
    || fail "/debug/traces?id=$TRACE_ID returned trace $(jq -r .trace_id "$TRACE_JSON")"

span_field() { # span_field <name> <jq field> -> value
    jq -r --arg n "$1" "[.root | recurse(.children[]?)] | .[] | select(.name == \$n) | $2" "$TRACE_JSON"
}

for name in http_request admission similar_to_id index_search; do
    [ -n "$(span_field "$name" .span_id)" ] || fail "trace missing span $name"
    [ "$(span_field "$name" '.duration_ms > 0')" = "true" ] \
        || fail "span $name has zero duration ($(span_field "$name" .duration_ms) ms)"
done

ROOT_ID="$(span_field http_request .span_id)"
FAM_ID="$(span_field similar_to_id .span_id)"
[ "$(jq -r .parent_span_id "$TRACE_JSON")" = "$PARENT_SPAN" ] \
    || fail "http_request parent = $(jq -r .parent_span_id "$TRACE_JSON"), want caller span $PARENT_SPAN"
[ "$(span_field admission .parent_span_id)" = "$ROOT_ID" ] \
    || fail "admission span not parented under http_request"
[ "$(span_field similar_to_id .parent_span_id)" = "$ROOT_ID" ] \
    || fail "similar_to_id span not parented under http_request"
[ "$(span_field index_search .parent_span_id)" = "$FAM_ID" ] \
    || fail "index_search span not parented under similar_to_id"

echo "trace-smoke: ok — trace $TRACE_ID kept with correctly parented admission/query/index spans"
