#!/bin/sh
# Smoke-start the xgccd fleet roles (DESIGN.md §15): build the daemon,
# boot a coordinator, boot a worker against the coordinator's shared
# CAS, rewire the coordinator to dispatch onto that worker, check both
# health endpoints, and push one analyze through the coordinator —
# asserting units were actually filled remotely, in a handful of
# /v1/work posts (one per phase with misses, not one per batch of
# units). `make check` runs this so a flag, startup, or dispatch
# regression in either role fails the gate.
#
# Boot order (the two roles name each other, so ephemeral ports need
# one restart): coordinator on :0 -> worker against its CAS URL ->
# coordinator again on its now-known port with -workers set.
set -eu

tmp="$(mktemp -d)"
CO_PID=''
W_PID=''
cleanup() {
	[ -n "$W_PID" ] && kill "$W_PID" 2>/dev/null || true
	[ -n "$CO_PID" ] && kill "$CO_PID" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/xgccd" ./cmd/xgccd

wait_ready() {
	i=0
	while [ ! -f "$1" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "smoke-fleet: $2 never wrote its ready file" >&2
			exit 1
		fi
		sleep 0.1
	done
}

"$tmp/xgccd" -coordinator -addr 127.0.0.1:0 -ready-file "$tmp/co.addr" >"$tmp/co.log" 2>&1 &
CO_PID=$!
wait_ready "$tmp/co.addr" coordinator
CO_ADDR="$(cat "$tmp/co.addr")"

"$tmp/xgccd" -worker -cas "http://$CO_ADDR/v1/cas" -addr 127.0.0.1:0 -ready-file "$tmp/w.addr" >"$tmp/w.log" 2>&1 &
W_PID=$!
wait_ready "$tmp/w.addr" worker
W_ADDR="$(cat "$tmp/w.addr")"

# Restart the coordinator on its (now known) port, dispatching to the
# worker. The worker's CAS URL stays valid across the restart.
kill "$CO_PID" 2>/dev/null || true
wait "$CO_PID" 2>/dev/null || true
rm -f "$tmp/co.addr"
"$tmp/xgccd" -coordinator -addr "$CO_ADDR" -workers "http://$W_ADDR" -ready-file "$tmp/co.addr" >"$tmp/co.log" 2>&1 &
CO_PID=$!
wait_ready "$tmp/co.addr" coordinator

curl -fsS "http://$CO_ADDR/v1/healthz" >/dev/null ||
	{ echo "smoke-fleet: coordinator /v1/healthz failed" >&2; cat "$tmp/co.log" >&2; exit 1; }
curl -fsS "http://$W_ADDR/v1/healthz" | grep -q '"worker"' ||
	{ echo "smoke-fleet: worker /v1/healthz failed" >&2; cat "$tmp/w.log" >&2; exit 1; }

body='{"files": {"smoke.c": "void kfree(void *p); int f(int *p) { kfree(p); return *p; }"}}'
resp="$(curl -fsS -X POST "http://$CO_ADDR/v1/analyze" -d "$body")" ||
	{ echo "smoke-fleet: coordinator analyze failed" >&2; cat "$tmp/co.log" >&2; exit 1; }
echo "$resp" | grep -q '"reports"' ||
	{ echo "smoke-fleet: analyze response missing reports: $resp" >&2; exit 1; }
echo "$resp" | grep -q '"units_remote": 0' &&
	{ echo "smoke-fleet: no units filled remotely" >&2; cat "$tmp/w.log" >&2; exit 1; }

curl -fsS "http://$W_ADDR/v1/stats" | grep -Eq '"requests": ?[1-9],' ||
	{ echo "smoke-fleet: worker /v1/stats does not show a single-digit number of requests" >&2
	  curl -fsS "http://$W_ADDR/v1/stats" >&2; exit 1; }

echo "smoke-fleet: coordinator ($CO_ADDR) dispatched onto worker ($W_ADDR)"
