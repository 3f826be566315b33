#!/usr/bin/env sh
# check.sh — the pre-PR gate: build, vet, curtainlint, race-enabled tests.
#
# Run from anywhere inside the repo:
#
#	./scripts/check.sh
#
# Every step must pass. curtainlint findings are fixed or carry a
# justified //lint:ignore (see DESIGN.md "Static analysis & determinism
# policy"); go test -race keeps the concurrent server paths honest.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go vet ./... in perfbench (its own module; root builds never compile it)"
(cd perfbench && go vet ./...)

echo "==> curtainlint self-lint (./cmd/curtainlint)"
go run ./cmd/curtainlint ./cmd/curtainlint

echo "==> curtainlint ./... (baseline: scripts/lint-baseline.json)"
go run ./cmd/curtainlint -baseline scripts/lint-baseline.json ./...

echo "==> hot-path zero-alloc proof (testing.AllocsPerRun)"
go test -count=1 -run '^TestHotPathAllocs' ./internal/dnswire/

echo "==> serving hot-path zero-alloc proof (dispatch, servfail, batch read loop)"
go test -count=1 -run '^TestHotPathAllocs' ./internal/dnsserver/

echo "==> curtainbin codec zero-alloc proof (per-record encode/decode)"
go test -count=1 -run '^TestHotPathAllocs' ./internal/dataset/

echo "==> go test -race ./..."
go test -race ./...

echo "==> worker-count invariance (workers 1/4/8 -> identical dataset)"
go test -race -count=1 -run '^TestWorkerCountInvariance$' ./internal/trace/

echo "==> fault-campaign invariance (resolver-outage, workers 1/4/8)"
go test -race -count=1 -run '^TestWorkerCountInvarianceWithFaults$' ./internal/trace/

echo "==> fault smoke (AVAIL report under resolver-outage)"
go run ./cmd/curtain exp -id AVAIL -faults resolver-outage -days 2 -scale 0.05 >/dev/null

echo "==> kill-and-resume invariance (abort + resume -> byte-identical dataset)"
go test -race -count=1 -run '^TestKillResumeInvariance$' ./internal/trace/

echo "==> dnswire fuzz smoke (5s per target, seed corpus in testdata/fuzz)"
go test -count=1 -run '^$' -fuzz '^FuzzParseMessage$' -fuzztime=5s ./internal/dnswire/
go test -count=1 -run '^$' -fuzz '^FuzzDecodeName$' -fuzztime=5s ./internal/dnswire/

echo "==> benchmark smoke (1 iteration of BenchmarkCampaign/workers=1)"
go test -run '^$' -bench '^BenchmarkCampaign/workers=1$' -benchtime 1x .

echo "==> analyze equivalence (streaming -parallel 1/4/8 + -legacy -> byte-identical report)"
ckbin="$(mktemp)"
ckds="$(mktemp)"
cka="$(mktemp)"
ckb="$(mktemp)"
trap 'rm -f "$ckbin" "$ckds" "$cka" "$ckb"' EXIT
go build -o "$ckbin" ./cmd/curtain
"$ckbin" simulate -days 2 -scale 0.1 -seed 7 -out "$ckds" >/dev/null 2>&1
"$ckbin" analyze -in "$ckds" -parallel 1 > "$cka"
for mode in "-parallel 4" "-parallel 8" "-legacy"; do
	"$ckbin" analyze -in "$ckds" $mode > "$ckb"
	cmp "$cka" "$ckb" || { echo "check.sh: analyze $mode diverges from -parallel 1" >&2; exit 1; }
done

echo "==> codec round-trip (jsonl -> binary -> jsonl via convert, byte-identical; analyze agrees on both)"
cvbin="$(mktemp)"
cvjsonl="$(mktemp)"
trap 'rm -f "$ckbin" "$ckds" "$cka" "$ckb" "$cvbin" "$cvjsonl"' EXIT
"$ckbin" convert -in "$ckds" -out "$cvbin" 2>/dev/null
"$ckbin" convert -in "$cvbin" -out "$cvjsonl" 2>/dev/null
cmp "$ckds" "$cvjsonl" || { echo "check.sh: jsonl -> binary -> jsonl round trip diverges" >&2; exit 1; }
"$ckbin" analyze -in "$cvbin" -parallel 4 > "$ckb"
cmp "$cka" "$ckb" || { echo "check.sh: analyze over the binary codec diverges from JSONL" >&2; exit 1; }

echo "==> binary checkpoint kill-resume invariance (torn segment tail + -resume -> byte-identical)"
# A durable binary-checkpoint run, then a simulated hard kill mid-append
# (chop the segment tail mid-record) and a resume: the resumed dataset
# must equal the serial JSONL reference byte for byte.
bkdir="$(mktemp -d)"
trap 'rm -f "$ckbin" "$ckds" "$cka" "$ckb" "$cvbin" "$cvjsonl"; rm -rf "$bkdir"' EXIT
"$ckbin" simulate -days 2 -scale 0.1 -seed 7 -checkpoint-dir "$bkdir/ck" \
	-out "$ckb" >/dev/null 2>&1
cmp "$ckds" "$ckb" || { echo "check.sh: binary-checkpoint run diverges from plain run" >&2; exit 1; }
bkseg="$bkdir/ck/experiments.bin"
[ -f "$bkseg" ] || { echo "check.sh: no binary segment at $bkseg" >&2; exit 1; }
bksize="$(wc -c < "$bkseg")"
dd if=/dev/null of="$bkseg" bs=1 seek="$((bksize - 17))" 2>/dev/null # tear the tail mid-record
"$ckbin" simulate -days 2 -scale 0.1 -seed 7 -checkpoint-dir "$bkdir/ck" \
	-resume -out "$ckb" >/dev/null 2>&1
cmp "$ckds" "$ckb" || { echo "check.sh: binary kill-resume diverges from serial bytes" >&2; exit 1; }

echo "==> codec bench smoke (10^4-client single-step campaign; binary >= 5x smaller than JSONL)"
c4j="$(mktemp)"
c4b="$(mktemp)"
trap 'rm -f "$ckbin" "$ckds" "$cka" "$ckb" "$cvbin" "$cvjsonl" "$c4j" "$c4b"; rm -rf "$bkdir"' EXIT
"$ckbin" simulate -days 1 -interval-hours 24 -scale 63.3 -seed 2014 -format jsonl -out "$c4j" >/dev/null 2>&1
"$ckbin" simulate -days 1 -interval-hours 24 -scale 63.3 -seed 2014 -format binary -out "$c4b" >/dev/null 2>&1
jsz="$(wc -c < "$c4j")"
bsz="$(wc -c < "$c4b")"
echo "  10^4 clients: jsonl $jsz bytes, binary $bsz bytes ($(awk "BEGIN{printf \"%.1f\", $jsz / $bsz}")x)"
awk "BEGIN{exit !($jsz >= 5 * $bsz)}" || {
	echo "check.sh: binary dataset not >= 5x smaller than JSONL ($jsz vs $bsz bytes)" >&2; exit 1; }

echo "==> analyze benchmark smoke (1 iteration of BenchmarkAnalyze/parallel=1)"
go test -run '^$' -bench '^BenchmarkAnalyze/parallel=1$' -benchtime 1x -timeout 900s .

echo "==> loadgen smoke (adnsd answers; nonzero completed QPS, zero parse errors)"
lgsrv="$(mktemp)"
trap 'rm -f "$ckbin" "$ckds" "$cka" "$ckb" "$cvbin" "$cvjsonl" "$c4j" "$c4b" "$lgsrv"; rm -rf "$bkdir"' EXIT
go build -o "$lgsrv" ./cmd/adnsd
"$lgsrv" -listen 127.0.0.1:19533 -quiet -zone loadgen.example &
lgpid=$!
sleep 0.5
lgout="$("$ckbin" loadgen -target 127.0.0.1:19533 -qps 2000 -duration 1s -conns 2 -timeout 500ms -json)"
kill "$lgpid" 2>/dev/null || true
wait "$lgpid" 2>/dev/null || true
echo "$lgout"
case "$lgout" in
*'"received":0,'*) echo "check.sh: loadgen completed zero queries" >&2; exit 1 ;;
esac
case "$lgout" in
*'"parse_errors":0,'*) ;;
*) echo "check.sh: loadgen saw malformed responses" >&2; exit 1 ;;
esac

echo "==> chaos smoke (fwdns vs scripted upstream outage; serve-stale keeps answering)"
# Two upstreams: a flakydns that is healthy for 3s then silently drops
# everything, and a dead port nothing listens on. The forwarder is warmed
# while the flaky upstream is up (TTL 1s, so the entries are stale — not
# fresh — by the outage), then load runs again mid-outage with the same
# seed/conns/names (the deterministic mix makes the outage queries a
# prefix of the warmed ones). Serve-stale must keep the answered rate
# near 1.0, and the drain report must show the breaker opened and stale
# serves happened.
fwbin="$(mktemp)"
flbin="$(mktemp)"
fwlog="$(mktemp)"
trap 'rm -f "$ckbin" "$ckds" "$cka" "$ckb" "$cvbin" "$cvjsonl" "$c4j" "$c4b" "$lgsrv" "$fwbin" "$flbin" "$fwlog"; rm -rf "$bkdir"' EXIT
go build -o "$fwbin" ./cmd/fwdns
go build -o "$flbin" ./cmd/flakydns
"$flbin" -listen 127.0.0.1:19541 -script ok:3s,down:600s -ttl 1 -quiet 2>/dev/null &
flpid=$!
"$fwbin" -listen 127.0.0.1:19540 -upstream 127.0.0.1:19541,127.0.0.1:19542 \
	-serve-stale 1h -probe 250ms -break-after 2 -hedge adaptive -stats 0 2> "$fwlog" &
fwpid=$!
sleep 0.5
"$ckbin" loadgen -target 127.0.0.1:19540 -qps 600 -duration 1s -conns 2 -names 64 -seed 42 -timeout 500ms -json >/dev/null
sleep 2.5 # flakydns goes dark; the warm entries' 1s TTLs expire
chout="$("$ckbin" loadgen -target 127.0.0.1:19540 -qps 200 -duration 2s -conns 2 -names 64 -seed 42 -timeout 500ms -json)"
sleep 1 # let active probes finish opening the flaky upstream's breaker
kill -TERM "$fwpid" 2>/dev/null || true
wait "$fwpid" 2>/dev/null || true
kill "$flpid" 2>/dev/null || true
wait "$flpid" 2>/dev/null || true
echo "$chout"
rate="$(echo "$chout" | awk -F'"answered_rate":' '{print $2}' | cut -d, -f1 | cut -d'}' -f1)"
if [ -z "$rate" ] || ! awk "BEGIN{exit !($rate >= 0.95)}"; then
	echo "check.sh: chaos smoke answered_rate $rate < 0.95 during outage" >&2
	cat "$fwlog" >&2
	exit 1
fi
grep -E 'breaker opens: [1-9]' "$fwlog" >/dev/null || {
	echo "check.sh: chaos smoke: breaker never opened" >&2; cat "$fwlog" >&2; exit 1; }
grep -E 'final: .* [1-9][0-9]* stale serves' "$fwlog" >/dev/null || {
	echo "check.sh: chaos smoke: no stale serves during the outage" >&2; cat "$fwlog" >&2; exit 1; }

echo "==> loss-phase smoke (flakydns loss=0.5; loadgen sees roughly half answered)"
# Partial failure, not all-or-nothing: the deterministic error-diffusion
# drop loses exactly half the queries, so the answered rate must sit
# near 0.5 — well away from both the healthy 1.0 and the outage 0.0.
"$flbin" -listen 127.0.0.1:19543 -script loss=0.5:600s -quiet 2>/dev/null &
flpid2=$!
sleep 0.3
lsout="$("$ckbin" loadgen -target 127.0.0.1:19543 -qps 400 -duration 1s -conns 2 -names 32 -seed 9 -timeout 300ms -json)"
kill "$flpid2" 2>/dev/null || true
wait "$flpid2" 2>/dev/null || true
echo "$lsout"
lrate="$(echo "$lsout" | awk -F'"answered_rate":' '{print $2}' | cut -d, -f1 | cut -d'}' -f1)"
if [ -z "$lrate" ] || ! awk "BEGIN{exit !($lrate >= 0.3 && $lrate <= 0.7)}"; then
	echo "check.sh: loss smoke answered_rate $lrate outside [0.3, 0.7] under 50% loss" >&2
	exit 1
fi

echo "==> distributed campaign chaos (coordinator + 3 workers, one SIGKILLed mid-run; bytes == serial)"
# The acceptance scenario for the control plane: a coordinated campaign
# with a worker SIGKILLed after its first delivered range and a
# late-joining replacement must merge to bytes identical to the serial
# run. The campaign is sized (~1300 experiments) so the kill reliably
# lands mid-run.
dcdir="$(mktemp -d)"
dcser="$(mktemp)"
dcdist="$(mktemp)"
dclog="$(mktemp)"
dcvlog="$(mktemp)"
trap 'rm -f "$ckbin" "$ckds" "$cka" "$ckb" "$cvbin" "$cvjsonl" "$c4j" "$c4b" "$lgsrv" "$fwbin" "$flbin" "$fwlog" "$dcser" "$dcdist" "$dclog" "$dcvlog"; rm -rf "$bkdir" "$dcdir"' EXIT
"$ckbin" simulate -days 8 -scale 0.5 -seed 7 -out "$dcser" >/dev/null 2>&1
"$ckbin" coordinate -listen 127.0.0.1:19550 -checkpoint-dir "$dcdir/ck" \
	-days 8 -scale 0.5 -seed 7 -lease 16 -out "$dcdist" 2> "$dclog" &
dcpid=$!
sleep 0.3
"$ckbin" worker -addr 127.0.0.1:19550 -id victim 2> "$dcvlog" &
dcvpid=$!
"$ckbin" worker -addr 127.0.0.1:19550 -id steady-a 2>/dev/null &
dcwa=$!
"$ckbin" worker -addr 127.0.0.1:19550 -id steady-b 2>/dev/null &
dcwb=$!
i=0
while [ "$i" -lt 200 ]; do
	grep -q delivered "$dcvlog" 2>/dev/null && break
	sleep 0.05
	i=$((i + 1))
done
kill -9 "$dcvpid" 2>/dev/null || true
# The replacement claims the campaign fingerprint explicitly: the
# coordinator verifies it at handshake.
"$ckbin" worker -addr 127.0.0.1:19550 -id replacement -days 8 -scale 0.5 -seed 7 2>/dev/null &
dcwr=$!
wait "$dcpid" || { echo "check.sh: coordinator failed" >&2; cat "$dclog" >&2; exit 1; }
wait "$dcvpid" 2>/dev/null || true
wait "$dcwa" 2>/dev/null || true
wait "$dcwb" 2>/dev/null || true
wait "$dcwr" 2>/dev/null || true
cmp "$dcser" "$dcdist" || {
	echo "check.sh: distributed campaign with a killed worker diverges from serial bytes" >&2
	cat "$dclog" >&2
	exit 1
}
grep -E 'returned [0-9]+ unfinished lease|reassigning' "$dclog" >/dev/null \
	|| echo "check.sh: note: victim died between leases this run (crash recovery not exercised; bytes still verified)"
tail -1 "$dclog"

echo "check.sh: all gates passed"
