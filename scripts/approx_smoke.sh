#!/bin/sh
# approx_smoke.sh — end-to-end check of the /v2/search quality-dial API
# against the real binary.
#
# Boots cmd/s2, then asserts over live HTTP:
#
#   * a plain /v2/search answer carries the v2 schema (schema_version 4,
#     snake_case fields, bound_gap per result) and is exact by default
#   * an ε-dialled request answers with approximate=true and a finite
#     per-result bound_gap when a shortcut fired
#   * inconsistent quality parameters come back as a structured 400
#     invalid_approx envelope, never a 500
#   * a budgeted progressive request (stream=ndjson) delivers >= 2
#     snapshot frames, strictly increasing seq, exactly one final frame,
#     and monotone non-worsening top-k across consecutive frames
#   * /v2/search is the only search route: the retired /v1/search and
#     /search answer 404
#
# Requires curl and jq (both in CI's ubuntu image). Exits non-zero with a
# diagnostic on the first failed assertion.
set -eu

PORT="${APPROX_SMOKE_PORT:-17271}"
ADDR="127.0.0.1:$PORT"
DIR="$(mktemp -d)"
BIN="$DIR/s2"
LOG="$DIR/s2.log"

fail() { echo "approx-smoke: FAIL: $*" >&2; sed 's/^/  s2: /' "$LOG" >&2 || true; exit 1; }

go build -o "$BIN" ./cmd/s2

"$BIN" -n 256 -days 256 -debug-addr "$ADDR" -serve >"$LOG" 2>&1 &
S2_PID=$!
trap 'kill "$S2_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

i=0
until curl -fsS "http://$ADDR/debug/vars" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "server did not come up on $ADDR"
    kill -0 "$S2_PID" 2>/dev/null || fail "server exited early"
    sleep 0.1
done

BODY="$DIR/body.json"

# 1. Exact-by-default v2 answer.
curl -fsS -o "$BODY" "http://$ADDR/v2/search?q=cinema&k=3" \
    || fail "plain /v2/search request failed"
[ "$(jq -r .schema_version "$BODY")" = "4" ] || fail "schema_version != 4"
[ "$(jq -r .approximate "$BODY")" = "false" ] || fail "exact query stamped approximate"
[ "$(jq '.results | length' "$BODY")" = "3" ] || fail "expected 3 results"
[ "$(jq '[.results[].bound_gap] | max' "$BODY")" = "0" ] \
    || fail "exact results carry non-zero bound_gap: $(jq -c '[.results[].bound_gap]' "$BODY")"

# 2. Quality dial engaged: wide ε so a shortcut reliably fires.
curl -fsS -o "$BODY" "http://$ADDR/v2/search?q=cinema&k=3&epsilon=0.5" \
    || fail "epsilon /v2/search request failed"
[ "$(jq -r .epsilon_used "$BODY")" = "0.5" ] || fail "epsilon_used = $(jq -r .epsilon_used "$BODY"), want 0.5"
if [ "$(jq -r .approximate "$BODY")" = "true" ]; then
    jq -e '[.results[].bound_gap] | all(. >= 0)' "$BODY" >/dev/null \
        || fail "approximate results carry negative bound_gap"
fi

# 3. Structured 400 for an inconsistent quality dial.
STATUS="$(curl -s -o "$BODY" -w '%{http_code}' "http://$ADDR/v2/search?q=cinema&epsilon=-1")"
[ "$STATUS" = "400" ] || fail "epsilon=-1 returned HTTP $STATUS, want 400"
[ "$(jq -r .error.code "$BODY")" = "invalid_approx" ] \
    || fail "error code = $(jq -r .error.code "$BODY"), want invalid_approx"

# 4. Progressive answering on a budgeted query: >= 2 frames, ordered seq,
#    one final frame, monotone non-worsening distances at every held rank.
STREAM="$DIR/stream.ndjson"
curl -fsS -o "$STREAM" "http://$ADDR/v2/search?q=cinema&k=5&max_nodes=2000&stream=ndjson" \
    || fail "progressive /v2/search request failed"
FRAMES="$(wc -l < "$STREAM")"
[ "$FRAMES" -ge 2 ] || fail "progressive stream delivered $FRAMES frames, want >= 2"
jq -s -e '[.[].seq] == [range(1; length + 1)]' "$STREAM" >/dev/null \
    || fail "snapshot seq not 1..n: $(jq -c .seq "$STREAM" | tr '\n' ' ')"
[ "$(jq -s '[.[] | select(.final)] | length' "$STREAM")" = "1" ] \
    || fail "stream must carry exactly one final frame"
jq -s -e '.[-1].final' "$STREAM" >/dev/null || fail "last frame not final"
jq -s -e '. as $f
    | all(range(1; $f | length);
        . as $i
        | $f[$i - 1].results as $p
        | $f[$i].results as $n
        | all(range(0; ([($p | length), ($n | length)] | min));
            $n[.].dist <= $p[.].dist))' "$STREAM" >/dev/null \
    || fail "progressive snapshots worsened a held rank"

# 5. One search route: the retired endpoints are gone, not aliased.
for old in /v1/search /search; do
    STATUS="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR$old?q=cinema&k=1")"
    [ "$STATUS" = "404" ] || fail "$old returned HTTP $STATUS, want 404"
done

kill -TERM "$S2_PID"
i=0
while kill -0 "$S2_PID" 2>/dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || fail "server did not exit after SIGTERM"
    sleep 0.1
done

echo "approx-smoke: ok — /v2/search exact, dialled, erroring and streaming paths verified ($FRAMES progressive frames)"
