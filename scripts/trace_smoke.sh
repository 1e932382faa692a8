#!/bin/sh
# trace_smoke.sh — end-to-end check of the trace pipeline.
#
# Boots cmd/s2 with a file span exporter, sends one /v2/search request
# carrying a W3C traceparent header, shuts the server down (which drains
# the export queue), and asserts the exported trace:
#
#   * adopted the caller's trace ID and echoed a traceparent header
#   * contains the admission, query-family and index-phase spans
#   * parents them correctly (admission/family under http_request,
#     index phase under the family span)
#   * stamps every span with a non-zero duration
#
# Requires curl and jq (both in CI's ubuntu image). Exits non-zero with a
# diagnostic on the first failed assertion.
set -eu

PORT="${TRACE_SMOKE_PORT:-17261}"
ADDR="127.0.0.1:$PORT"
DIR="$(mktemp -d)"
BIN="$DIR/s2"
TRACES="$DIR/traces.ndjson"
LOG="$DIR/s2.log"
TRACE_ID="4bf92f3577b34da6a3ce929d0e0e4736"
PARENT_SPAN="00f067aa0ba902b7"

fail() { echo "trace-smoke: FAIL: $*" >&2; sed 's/^/  s2: /' "$LOG" >&2 || true; exit 1; }

go build -o "$BIN" ./cmd/s2

"$BIN" -n 64 -days 128 -debug-addr "$ADDR" -trace-export "$TRACES" -serve >"$LOG" 2>&1 &
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

# Graceful shutdown drains and flushes the export queue.
kill -TERM "$S2_PID"
i=0
while kill -0 "$S2_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "server did not exit after SIGTERM"
    sleep 0.1
done

[ -s "$TRACES" ] || fail "no traces exported to $TRACES"
TRACE_JSON="$(grep "$TRACE_ID" "$TRACES" | head -n 1)"
[ -n "$TRACE_JSON" ] || fail "exported file has no trace $TRACE_ID"

span_field() { # span_field <name> <jq field> -> value
    printf '%s' "$TRACE_JSON" | jq -r --arg n "$1" ".spans[] | select(.name == \$n) | $2"
}

for name in http_request admission similar_to_id index_search; do
    [ -n "$(span_field "$name" .spanId)" ] || fail "exported trace missing span $name"
    start="$(span_field "$name" .startTimeUnixNano)"
    end="$(span_field "$name" .endTimeUnixNano)"
    [ "$end" -gt "$start" ] || fail "span $name has zero duration ($start .. $end)"
done

ROOT_ID="$(span_field http_request .spanId)"
FAM_ID="$(span_field similar_to_id .spanId)"
[ "$(span_field http_request .parentSpanId)" = "$PARENT_SPAN" ] \
    || fail "http_request parent = $(span_field http_request .parentSpanId), want caller span $PARENT_SPAN"
[ "$(span_field admission .parentSpanId)" = "$ROOT_ID" ] \
    || fail "admission span not parented under http_request"
[ "$(span_field similar_to_id .parentSpanId)" = "$ROOT_ID" ] \
    || fail "similar_to_id span not parented under http_request"
[ "$(span_field index_search .parentSpanId)" = "$FAM_ID" ] \
    || fail "index_search span not parented under similar_to_id"

echo "trace-smoke: ok — trace $TRACE_ID exported with correctly parented admission/query/index spans"
