#!/bin/sh
# ci.sh — the repository's verification gate. Runs the standard Go
# checks, the project's own code-level analyzer (cmd/sdfvet), and the
# full test suite under the race detector. Any failure fails the gate.
set -eu

cd "$(dirname "$0")"

echo '== go vet ./...'
go vet ./...

echo '== go build ./...'
go build ./...

echo '== gofmt -l (everything outside testdata)'
# testdata is skipped: cmd/sdfvet/testdata holds analyzer fixtures whose
# source text is test input. Hidden directories (the benchmark's build
# cache) are skipped too.
unformatted=$(gofmt -l $(find . \( -name testdata -o -name '.?*' \) -prune -o -name '*.go' -print))
if [ -n "$unformatted" ]; then
    echo 'gofmt: these files need gofmt -w:'
    echo "$unformatted"
    exit 1
fi

echo '== sdfvet ./...'
go run ./cmd/sdfvet ./...

echo '== every internal package has an importer'
# A package under internal/ that nothing outside its own directory
# imports is dead code. Tests count as importers (internal/testutil is
# imported by tests only), and so does the servebench module.
imports=$(
    go list -f '{{.Dir}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}{{range .XTestImports}} {{.}}{{end}}' ./...
    cd servebench && go list -f '{{.Dir}}{{range .Imports}} {{.}}{{end}}{{range .TestImports}} {{.}}{{end}}' .
)
orphans=$(go list -f '{{.ImportPath}} {{.Dir}}' ./internal/... | while read -r pkg dir; do
    printf '%s\n' "$imports" | awk -v p="$pkg" -v d="$dir" '
        $1 != d { for (i = 2; i <= NF; i++) if ($i == p) found = 1 }
        END { exit !found }' || echo "$pkg"
done)
if [ -n "$orphans" ]; then
    echo 'imported by nothing outside their own directory:'
    echo "$orphans"
    exit 1
fi

echo '== servebench: vet + short tests against the tree'
# servebench/ is its own module (it imports this one through a replace
# directive), so the ./... patterns of this script never reach it: a
# break in the serve, analysis or fleet API it imports would otherwise
# show only when the benchmark runs.
(cd servebench && go vet . && go test -short .)

echo '== benchmark smoke: BenchmarkMatrixCertCheck (1 iteration)'
# One iteration of the certificate-replay benchmark, so a broken or
# failing benchmark shows in the gate rather than when someone profiles.
go test -run XXX -bench MatrixCertCheck -benchtime 1x ./internal/verify

echo '== benchmark smoke: BenchmarkSADFCertCheck (1 iteration)'
# One iteration of the schedule-anchored SADF certificate check on the
# 1,024-node sadf-cold-shaped model and the N2001 one-state model, with
# allocations reported; the benchmark fails if either check rejects.
go test -run XXX -bench SADFCertCheck -benchtime 1x ./internal/verify

echo '== benchmark smoke: BenchmarkMaxCycleRatioEdges (1 iteration)'
# One iteration of Howard's iteration on the two automata that once hit
# its round cap and on a 1,024-node sadf-cold-shaped automaton; the
# benchmark fails if any of them errors.
go test -run XXX -bench MaxCycleRatioEdges -benchtime 1x ./internal/mcm

echo '== benchmark smoke: BenchmarkReduceRing512 (1 iteration)'
# The 512-actor fusible ring must close in one chain-fusion step; the
# benchmark fails if the fixpoint ever returns to one step per link.
go test -run XXX -bench ReduceRing512 -benchtime 1x ./internal/passes

echo '== benchmark smoke: BenchmarkPrecheck (1 iteration)'
# The cheap lint passes every served graph meets, on the 128-actor
# fusible ring and the 96-actor ring with a dead tail; the benchmark
# fails on any precheck error.
go test -run XXX -bench Precheck -benchtime 1x ./internal/lint

echo '== benchmark smoke: BenchmarkSymbolicConversionScaling (1 iteration)'
# Algorithm 1 and the HSDF build on the 8-, 32- and 128-block prefetch
# graphs, with allocations reported; TestSymbolicAllocsPerIteration
# holds the allocation bound itself.
go test -run XXX -bench SymbolicConversionScaling -benchtime 1x .

echo '== go test -race ./...'
# Hard wall-clock cap on top of go test's own -timeout, so a scheduler
# hang can never wedge the gate.
timeout 300 go test -race -timeout 240s ./...

echo '== fuzz smoke: FuzzPerturb (10s)'
# Short coverage-guided run of the perturbation fuzzer: catches panics
# and hangs in the analysis engines without slowing the gate much.
timeout 120 go test -run='^$' -fuzz='^FuzzPerturb$' -fuzztime=10s .

echo '== fuzz smoke: FuzzReduce (10s)'
# Equivalence smoke of the reduction pass manager: perturbed corpus
# graphs are fixpoint-reduced and the lifted throughput must equal the
# direct engine's answer in exact rational arithmetic.
timeout 120 go test -run='^$' -fuzz='^FuzzReduce$' -fuzztime=10s .

echo '== fuzz smoke: FuzzParse (10s)'
timeout 120 go test -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s ./internal/sdfio

echo '== fuzz smoke: FuzzRequest (10s)'
# The sdfserved wire decoder guards the daemon's admission path, so it
# gets its own coverage-guided smoke run on top of its seed corpus.
timeout 120 go test -run='^$' -fuzz='^FuzzRequest$' -fuzztime=10s ./internal/serve

echo '== fuzz smoke: FuzzBatchRequest (10s)'
# The batch wire decoder feeds the same admission path up to 1024 items
# at a time; per-item decode isolation (exactly one of Req/Err set,
# never a batch-wide failure for one bad item) is the fuzzed invariant.
timeout 120 go test -run='^$' -fuzz='^FuzzBatchRequest$' -fuzztime=10s ./internal/serve

echo '== fuzz smoke: FuzzSADFParse (10s)'
# The FSM-SADF text parser feeds both sdftool and the /v1/sadf wire
# path; parse -> render -> reparse round-trip fidelity is the fuzzed
# invariant on top of panic-freedom.
timeout 120 go test -run='^$' -fuzz='^FuzzSADFParse$' -fuzztime=10s ./internal/sdfio

echo '== sdftool reduce -verify over the reduction corpus'
# Every corpus graph must reduce (or reach the trivial fixpoint), and
# the lifted certificate chain must re-check against the original.
for g in testdata/graphs/*.sdf; do
    echo "   $g"
    go run ./cmd/sdftool reduce -verify "$g" >/dev/null
done

echo '== sdftool reduce -verify over the corpus with the abstraction rule'
# The same corpus under every rule: a chain with an abstraction step
# lifts to a conservative Theorem 1 bound whose certificate must
# re-check like an exact one. At least one chain must print a bound
# (deadwood.sdf and irreducible.sdf do), so the inexact lift is tested
# end to end.
bounds=0
for g in testdata/graphs/*.sdf; do
    echo "   $g"
    out=$(go run ./cmd/sdftool reduce -verify -rules prune-redundant,rate-gcd,dead-actor,chain-fusion,abstraction "$g")
    case $out in
    *'(conservative bound)'*) bounds=$((bounds + 1)) ;;
    esac
done
if [ "$bounds" -eq 0 ]; then
    echo 'reduce: no corpus chain printed a conservative bound'
    exit 1
fi

echo '== sdftool lint end to end'
# Every corpus graph lints with exit 0. Exit 2 is sdftool's code for
# error-level diagnostics. Two parallel A->B channels, 1:1 and 2:1, must
# exit 2, and their -json must carry a consistency error with the rank
# summary and one naming the 2:1 channel; a zero-token 2-cycle must exit
# 2 with a deadlock error.
LINT_DIR=$(mktemp -d)
trap 'rm -rf "$LINT_DIR"' EXIT
go build -o "$LINT_DIR/sdftool" ./cmd/sdftool
for g in testdata/graphs/*.sdf; do
    echo "   $g"
    "$LINT_DIR/sdftool" lint "$g" >/dev/null
done
lint_json() { # lint -json of the graph file $1, which must exit 2
    code=0
    "$LINT_DIR/sdftool" lint -json "$1" 2>/dev/null || code=$?
    if [ "$code" -ne 2 ]; then
        echo "lint: $1 exited $code, want 2" >&2
        return 1
    fi
}
printf 'sdf par\nactor A 1\nactor B 1\nchan A B 1 1 0\nchan A B 2 1 0\n' >"$LINT_DIR/par.sdf"
par=$(lint_json "$LINT_DIR/par.sdf")
case $par in
*'"pass": "consistency",
      "severity": "error",
      "msg": "graph is not consistent: topology matrix has rank 2 over 2 actors in 1 component(s);'*) ;;
*) printf 'lint: no consistency rank summary:\n%s\n' "$par"; exit 1 ;;
esac
case $par in
*'"pass": "consistency",
      "severity": "error",
      "channel": "A -\u003e B (prod=2 cons=1 init=0)",'*) ;;
*) printf 'lint: no conflicting-channel witness:\n%s\n' "$par"; exit 1 ;;
esac
printf 'sdf dead\nactor A 1\nactor B 1\nchan A B 1 1 0\nchan B A 1 1 0\n' >"$LINT_DIR/dead.sdf"
dead=$(lint_json "$LINT_DIR/dead.sdf")
case $dead in
*'"pass": "deadlock",
      "severity": "error",'*) ;;
*) printf 'lint: no deadlock error:\n%s\n' "$dead"; exit 1 ;;
esac

echo '== sdftool throughput -verify: matrix and hsdf engines over the corpus'
# Both engines emit the one schedule-anchored certificate: each must
# print a verified: line, and both must prove the same period.
period() { # the period line of throughput output $1, engine name cut
    printf '%s\n' "$1" | sed -n 's/ (engine: [a-z]*)$//; /^iteration period: /p; /^throughput: unbounded/p'
}
for g in testdata/graphs/*.sdf; do
    echo "   $g"
    m=$("$LINT_DIR/sdftool" throughput -verify -method matrix "$g")
    h=$("$LINT_DIR/sdftool" throughput -verify -method hsdf "$g")
    for out in "$m" "$h"; do
        case $out in
        *'verified: '*) ;;
        *) printf 'throughput: %s printed no verified: line:\n%s\n' "$g" "$out"; exit 1 ;;
        esac
    done
    if [ -z "$(period "$m")" ] || [ "$(period "$m")" != "$(period "$h")" ]; then
        printf 'throughput: %s: matrix and hsdf engines differ:\n%s\n%s\n' "$g" "$m" "$h"
        exit 1
    fi
done
rm -rf "$LINT_DIR"
trap - EXIT

echo '== sdfbench engine timings -> BENCH_3.json'
# Per-engine throughput wall times over the seed benchmark graphs. The
# short deadline keeps the gate fast; engines that cannot finish in
# time are recorded in the JSON as deadline errors, not failures.
timeout 120 go run ./cmd/sdfbench -engines BENCH_3.json -deadline 2s

echo '== sdfbench sadf automaton-size vs wall-time -> BENCH_3.json'
# FSM-SADF analysis wall times over a ladder of synthetic scenario
# models, merged into the same report (the engine sections above are
# preserved). Every case's certificate must re-check.
timeout 120 go run ./cmd/sdfbench -sadf BENCH_3.json -deadline 10s
grep -q '"sadf_cases"' BENCH_3.json || {
    echo 'bench: BENCH_3.json lost the sadf_cases section'
    exit 1
}

echo '== sdfserved soak: mixed wire load, breaker trip/recover, graceful drain'
# End-to-end soak of the serving stack: a race-instrumented sdfserved
# daemon takes ~200 mixed requests through the real wire format —
# healthy graphs across engines, precondition failures, budget refusals
# and fault-injected statespace panics — then the statespace breaker
# must have tripped, the engine must recover after the injection stops,
# and SIGTERM must drain the daemon cleanly (exit 0). The in-process
# twin of this scenario, TestServedSoak, additionally asserts zero
# leaked goroutines under -race.
SOAK_DIR=$(mktemp -d)
SERVED_PID=
cleanup_soak() {
    [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true
    rm -rf "$SOAK_DIR"
}
trap cleanup_soak EXIT

go build -race -o "$SOAK_DIR/sdfserved" ./cmd/sdfserved
go build -o "$SOAK_DIR/sdftool" ./cmd/sdftool

cat > "$SOAK_DIR/healthy.sdf" <<'EOF'
sdf demo
actor A 2
actor B 3
chan A B 2 1 0
chan B A 1 2 4
EOF
cat > "$SOAK_DIR/deadlocked.sdf" <<'EOF'
sdf dl
actor A 1
actor B 1
chan A B 1 1 0
chan B A 1 1 0
EOF
cat > "$SOAK_DIR/inject.json" <<'EOF'
{"graph_text":"sdf demo\nactor A 2\nactor B 3\nchan A B 2 1 0\nchan B A 1 2 4\n","method":"statespace","inject":[{"engine":"statespace","mode":"panic","times":-1}]}
EOF

SOAK_ADDR="127.0.0.1:$((20000 + $$ % 20000))"
"$SOAK_DIR/sdfserved" -addr "$SOAK_ADDR" -allow-injection \
    -breaker-threshold 3 -breaker-cooldown 1s > "$SOAK_DIR/served.log" 2>&1 &
SERVED_PID=$!

ready=0
for _ in $(seq 1 100); do
    if "$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" -health >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo 'soak: sdfserved never became ready'; cat "$SOAK_DIR/served.log"; exit 1; }

expect() {
    want=$1
    shift
    rc=0
    "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "soak: '$*' exited $rc, want $want"
        cat "$SOAK_DIR/served.log"
        exit 1
    fi
}

i=0
while [ $i -lt 40 ]; do
    # Healthy hedged + single-engine traffic (repeat graphs: cache hits).
    expect 0 "$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" "$SOAK_DIR/healthy.sdf"
    expect 0 "$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" -method matrix "$SOAK_DIR/healthy.sdf"
    # Structurally broken model: precondition exit code through the wire.
    expect 2 "$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" "$SOAK_DIR/deadlocked.sdf"
    # Starved budget: budget exit code through the wire.
    expect 3 "$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" -budget 1 "$SOAK_DIR/healthy.sdf"
    # Fault-injected statespace panic (or a breaker-open refusal once
    # tripped); either way the daemon must answer, never die.
    curl -s -o /dev/null -X POST -d @"$SOAK_DIR/inject.json" "http://$SOAK_ADDR/v1/throughput"
    i=$((i + 1))
done

# The panic streak must have tripped the statespace breaker at least once.
"$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" -health > "$SOAK_DIR/health.txt"
grep -E 'statespace .*trips [1-9]' "$SOAK_DIR/health.txt" >/dev/null || {
    echo 'soak: statespace breaker never tripped'
    cat "$SOAK_DIR/health.txt"
    exit 1
}

# Injection stopped: after the cooldown the half-open probe must heal
# the engine and healthy statespace requests must flow again.
sleep 1.2
expect 0 "$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" -method statespace "$SOAK_DIR/healthy.sdf"

# The metrics surface must reflect the storm: served requests, cache
# hits and the statespace breaker trip all as non-zero counters in the
# Prometheus exposition.
curl -s "http://$SOAK_ADDR/metrics" > "$SOAK_DIR/metrics.txt"
for series in \
    'sdf_requests_total\{outcome="served"\} [1-9]' \
    'sdf_cache_events_total\{event="hit"\} [1-9]' \
    'sdf_breaker_trips_total\{engine="statespace"\} [1-9]'; do
    grep -E "$series" "$SOAK_DIR/metrics.txt" >/dev/null || {
        echo "soak: /metrics missing non-zero series $series"
        cat "$SOAK_DIR/metrics.txt"
        exit 1
    }
done
# The sdftool scrape summarises the same exposition.
"$SOAK_DIR/sdftool" query -server "http://$SOAK_ADDR" -metrics | grep -q 'latency (count, p50, p99):' || {
    echo 'soak: sdftool query -metrics produced no latency summary'
    exit 1
}
# Profiling stays off the wire unless -pprof was given.
pprof_code=$(curl -s -o /dev/null -w '%{http_code}' "http://$SOAK_ADDR/debug/pprof/")
if [ "$pprof_code" != 404 ]; then
    echo "soak: /debug/pprof/ answered $pprof_code without -pprof, want 404"
    exit 1
fi

# SIGTERM: graceful drain, clean exit.
kill -TERM "$SERVED_PID"
rc=0
wait "$SERVED_PID" || rc=$?
SERVED_PID=
if [ "$rc" -ne 0 ]; then
    echo "soak: sdfserved exited $rc after SIGTERM, want 0"
    cat "$SOAK_DIR/served.log"
    exit 1
fi
grep -q 'drained cleanly' "$SOAK_DIR/served.log" || {
    echo 'soak: no clean-drain line in the daemon log'
    cat "$SOAK_DIR/served.log"
    exit 1
}
cleanup_soak
trap - EXIT

echo '== brownout soak: overload burst, certified bounded answers, zero 5xx'
# Overload soak of the degradation ladder: a race-instrumented sdfserved
# with admission capacity 4 (-workers 1 -queue 3) takes a burst of 120
# cache-busted requests (10 waves of 12 concurrent, distinct budgets so
# every request is a distinct canonical key). The daemon must brown out,
# never break: zero 5xx responses, a nonzero stream of bounded answers
# whose conservativeness certificates re-checked against the original
# graph ("verified": true on every one), the bounded counter and the
# degradation gauge moving on /metrics, an exact-only request during the
# pressure window answering 429 + Retry-After, and a clean SIGTERM drain
# afterwards.
BROWN_DIR=$(mktemp -d)
BROWN_PID=
cleanup_brown() {
    [ -n "$BROWN_PID" ] && kill "$BROWN_PID" 2>/dev/null || true
    rm -rf "$BROWN_DIR"
}
trap cleanup_brown EXIT

go build -race -o "$BROWN_DIR/sdfserved" ./cmd/sdfserved
go build -o "$BROWN_DIR/sdftool" ./cmd/sdftool

BROWN_GRAPH='sdf brown\nactor A 2\nactor B 3\nactor C 5\nchan A B 3 2 0\nchan B C 4 3 0\nchan C A 1 2 8\n'

BROWN_ADDR="127.0.0.1:$((22000 + $$ % 20000))"
"$BROWN_DIR/sdfserved" -addr "$BROWN_ADDR" -workers 1 -queue 3 \
    > "$BROWN_DIR/served.log" 2>&1 &
BROWN_PID=$!

ready=0
for _ in $(seq 1 100); do
    if "$BROWN_DIR/sdftool" query -server "http://$BROWN_ADDR" -health >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo 'brownout: sdfserved never became ready'; cat "$BROWN_DIR/served.log"; exit 1; }

n=0
wave=0
while [ $wave -lt 10 ]; do
    CURL_PIDS=
    j=0
    while [ $j -lt 12 ]; do
        n=$((n + 1))
        curl -s -o "$BROWN_DIR/resp_$n.json" -w '%{http_code}' -X POST \
            -d '{"graph_text":"'"$BROWN_GRAPH"'","budget":'$((200000 + n))'}' \
            "http://$BROWN_ADDR/v1/throughput" > "$BROWN_DIR/code_$n" &
        CURL_PIDS="$CURL_PIDS $!"
        j=$((j + 1))
    done
    for pid in $CURL_PIDS; do
        wait "$pid" || true
    done
    wave=$((wave + 1))
done

# Still inside the hysteresis hold: an exact-only client must be turned
# away with the stable degraded kind, 429 and a drain-estimate hint —
# never handed a degraded answer it said it cannot accept.
eo_code=$(curl -s -o "$BROWN_DIR/eo.json" -D "$BROWN_DIR/eo.hdr" -w '%{http_code}' -X POST \
    -d '{"graph_text":"'"$BROWN_GRAPH"'","budget":999999,"exact_only":true}' \
    "http://$BROWN_ADDR/v1/throughput")
if [ "$eo_code" != 429 ]; then
    echo "brownout: exact-only under pressure answered $eo_code, want 429"
    cat "$BROWN_DIR/eo.json"
    exit 1
fi
grep -qi '^Retry-After:' "$BROWN_DIR/eo.hdr" || {
    echo 'brownout: exact-only 429 carried no Retry-After'
    cat "$BROWN_DIR/eo.hdr"
    exit 1
}
grep -q '"kind":"degraded"' "$BROWN_DIR/eo.json" || {
    echo 'brownout: exact-only refusal kind is not "degraded"'
    cat "$BROWN_DIR/eo.json"
    exit 1
}

# Zero 5xx: overload may refuse (4xx) but must never break.
for f in "$BROWN_DIR"/code_*; do
    code=$(cat "$f")
    case "$code" in
    5*)
        echo "brownout: burst produced a $code ($f)"
        cat "${f%code_*}resp_${f##*code_}.json" 2>/dev/null || true
        cat "$BROWN_DIR/served.log"
        exit 1
        ;;
    esac
done

# A nonzero stream of bounded answers, every one of them re-verified:
# the reduction certificate was re-checked against the original graph in
# exact arithmetic before the response claimed "verified".
bounded=0
for f in "$BROWN_DIR"/resp_*.json; do
    grep -q '"degradation":"bounded"' "$f" || continue
    bounded=$((bounded + 1))
    grep -q '"verified":true' "$f" || {
        echo "brownout: bounded answer without a re-checked certificate ($f)"
        cat "$f"
        exit 1
    }
done
if [ "$bounded" -eq 0 ]; then
    echo 'brownout: burst produced no bounded answers'
    cat "$BROWN_DIR/served.log"
    exit 1
fi
echo "   $bounded certified bounded answers under overload"

# The ladder is visible on the metrics surface.
curl -s "http://$BROWN_ADDR/metrics" > "$BROWN_DIR/metrics.txt"
for series in \
    'sdf_serve_degraded_total\{level="bounded"\} [1-9]' \
    'sdf_degradation_level [0-9]'; do
    grep -E "$series" "$BROWN_DIR/metrics.txt" >/dev/null || {
        echo "brownout: /metrics missing series $series"
        cat "$BROWN_DIR/metrics.txt"
        exit 1
    }
done

# SIGTERM: the browned-out daemon still drains cleanly.
kill -TERM "$BROWN_PID"
rc=0
wait "$BROWN_PID" || rc=$?
BROWN_PID=
if [ "$rc" -ne 0 ]; then
    echo "brownout: sdfserved exited $rc after SIGTERM, want 0"
    cat "$BROWN_DIR/served.log"
    exit 1
fi
grep -q 'drained cleanly' "$BROWN_DIR/served.log" || {
    echo 'brownout: no clean-drain line in the daemon log'
    cat "$BROWN_DIR/served.log"
    exit 1
}
cleanup_brown
trap - EXIT

echo '== fleet soak: kill-a-replica storm through sdfrouter'
# Chaos soak of the fleet layer: three sdfserved replicas behind a
# race-instrumented sdfrouter take a 200-request storm; one replica is
# SIGKILLed mid-storm and restarted before the storm ends. The router
# must hide the kill completely (zero client-visible failures), eject
# the dead replica, win hedges, and re-admit the restarted replica. The
# in-process twin, TestChaosKillReplicaMidStorm, asserts the same under
# -race with a goroutine-leak check.
FLEET_DIR=$(mktemp -d)
FLEET_PIDS=
cleanup_fleet() {
    for pid in $FLEET_PIDS; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$FLEET_DIR"
}
trap cleanup_fleet EXIT

go build -o "$FLEET_DIR/sdfserved" ./cmd/sdfserved
go build -race -o "$FLEET_DIR/sdfrouter" ./cmd/sdfrouter
go build -o "$FLEET_DIR/sdftool" ./cmd/sdftool

cat > "$FLEET_DIR/healthy.sdf" <<'EOF'
sdf demo
actor A 2
actor B 3
chan A B 2 1 0
chan B A 1 2 4
EOF

R1="127.0.0.1:$((21000 + $$ % 10000))"
R2="127.0.0.1:$((31100 + $$ % 10000))"
R3="127.0.0.1:$((41200 + $$ % 10000))"
RADDR="127.0.0.1:$((51300 + $$ % 10000))"

"$FLEET_DIR/sdfserved" -addr "$R1" > "$FLEET_DIR/r1.log" 2>&1 &
R1_PID=$!
"$FLEET_DIR/sdfserved" -addr "$R2" > "$FLEET_DIR/r2.log" 2>&1 &
R2_PID=$!
"$FLEET_DIR/sdfserved" -addr "$R3" > "$FLEET_DIR/r3.log" 2>&1 &
R3_PID=$!
FLEET_PIDS="$R1_PID $R2_PID $R3_PID"

for addr in "$R1" "$R2" "$R3"; do
    ready=0
    for _ in $(seq 1 100); do
        if "$FLEET_DIR/sdftool" query -server "http://$addr" -health >/dev/null 2>&1; then
            ready=1
            break
        fi
        sleep 0.1
    done
    [ "$ready" = 1 ] || { echo "fleet: replica $addr never became ready"; exit 1; }
done

# Immediate hedging (-hedge-delay 0) makes hedge traffic deterministic:
# every request races two replicas, so requests whose primary is the
# SIGKILLed replica are guaranteed hedge wins.
"$FLEET_DIR/sdfrouter" -addr "$RADDR" \
    -replicas "http://$R1,http://$R2,http://$R3" \
    -probe-interval 100ms -probe-fail 2 -probe-readmit 2 \
    -hedge-delay 0 > "$FLEET_DIR/router.log" 2>&1 &
ROUTER_PID=$!
FLEET_PIDS="$FLEET_PIDS $ROUTER_PID"

ready=0
for _ in $(seq 1 100); do
    if curl -sf "http://$RADDR/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo 'fleet: sdfrouter never became ready'; cat "$FLEET_DIR/router.log"; exit 1; }

# The 200-request storm. Distinct -budget values give distinct canonical
# keys, spreading primaries across the whole ring (the values are far
# above any real work cost — they only vary the key). The one replica is
# SIGKILLed at the halfway mark and restarted 40 requests later; every
# single request must still exit 0.
i=0
while [ $i -lt 200 ]; do
    if [ $i -eq 100 ]; then
        kill -9 "$R2_PID" 2>/dev/null || true
    fi
    if [ $i -eq 140 ]; then
        "$FLEET_DIR/sdfserved" -addr "$R2" > "$FLEET_DIR/r2b.log" 2>&1 &
        R2_PID=$!
        FLEET_PIDS="$FLEET_PIDS $R2_PID"
    fi
    rc=0
    "$FLEET_DIR/sdftool" query -server "http://$RADDR" \
        -budget $((100000 + i % 16)) "$FLEET_DIR/healthy.sdf" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "fleet: storm request $i exited $rc, want 0 (kill must be invisible)"
        cat "$FLEET_DIR/router.log"
        exit 1
    fi
    i=$((i + 1))
done

# The storm (plus the probes) must have ejected the killed replica and
# hedging must have won at least once.
curl -s "http://$RADDR/metrics" > "$FLEET_DIR/fleet-metrics.txt"
for series in \
    'sdf_fleet_ejections_total\{replica="http://'"$R2"'"\} [1-9]' \
    'sdf_fleet_hedge_wins_total\{[^}]*\} [1-9]'; do
    grep -E "$series" "$FLEET_DIR/fleet-metrics.txt" >/dev/null || {
        echo "fleet: /metrics missing non-zero series $series"
        cat "$FLEET_DIR/fleet-metrics.txt"
        exit 1
    }
done

# The restarted replica must be re-admitted by the probation probes.
readmitted=0
for _ in $(seq 1 100); do
    curl -s "http://$RADDR/metrics" > "$FLEET_DIR/fleet-metrics.txt"
    if grep -E 'sdf_fleet_readmissions_total\{replica="http://'"$R2"'"\} [1-9]' \
        "$FLEET_DIR/fleet-metrics.txt" >/dev/null; then
        readmitted=1
        break
    fi
    sleep 0.1
done
[ "$readmitted" = 1 ] || {
    echo 'fleet: restarted replica never re-admitted'
    cat "$FLEET_DIR/fleet-metrics.txt"
    exit 1
}

# Client-side fallthrough: a dead replica first in the -addr list is
# skipped (exit 0); a list with no live replica at all exits 6.
rc=0
"$FLEET_DIR/sdftool" query -addr "http://127.0.0.1:1,http://$R1" \
    "$FLEET_DIR/healthy.sdf" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 0 ] || { echo "fleet: -addr fallthrough exited $rc, want 0"; exit 1; }
rc=0
"$FLEET_DIR/sdftool" query -addr "http://127.0.0.1:1,http://127.0.0.1:2" \
    "$FLEET_DIR/healthy.sdf" >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 6 ] || { echo "fleet: exhausted -addr list exited $rc, want 6"; exit 1; }

# SIGTERM: the router drains cleanly.
kill -TERM "$ROUTER_PID"
rc=0
wait "$ROUTER_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "fleet: sdfrouter exited $rc after SIGTERM, want 0"
    cat "$FLEET_DIR/router.log"
    exit 1
fi
grep -q 'drained cleanly' "$FLEET_DIR/router.log" || {
    echo 'fleet: no clean-drain line in the router log'
    cat "$FLEET_DIR/router.log"
    exit 1
}
cleanup_fleet
trap - EXIT

echo '== batch soak: 100-item batch with per-item fault isolation through the fleet'
# End-to-end contract of POST /v1/batch: three -allow-injection replicas
# behind a race-instrumented sdfrouter take a 100-item batch carrying 97
# healthy graphs, two fault-injected statespace panics and one
# budget-explosive rate-doubling chain. The batch must come back HTTP
# 200 with exactly 97 answers and 3 item-error entries — never a
# batch-wide 5xx — and `sdftool batch` must render the table and exit
# with the worst item's code. A second, all-healthy batch then survives
# a mid-batch kill -9 of a replica: one entry per item, zero errors,
# zero lost answers. Both the router and a replica drain cleanly on
# SIGTERM afterwards. The in-process twins (TestBatchPartialFailure-
# Isolation, TestChaosKillReplicaMidBatch) assert the same under -race
# with goroutine-leak checks.
BATCH_DIR=$(mktemp -d)
BATCH_PIDS=
cleanup_batch() {
    for pid in $BATCH_PIDS; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$BATCH_DIR"
}
trap cleanup_batch EXIT

go build -o "$BATCH_DIR/sdfserved" ./cmd/sdfserved
go build -race -o "$BATCH_DIR/sdfrouter" ./cmd/sdfrouter
go build -o "$BATCH_DIR/sdftool" ./cmd/sdftool

HEALTHY_GRAPH='sdf demo\nactor A 2\nactor B 3\nchan A B 2 1 0\nchan B A 1 2 4\n'
# The paper's exponential witness: a 30-stage rate-doubling chain whose
# iteration length is 2^30-ish. With a work budget of 1000 every engine
# must refuse it with a structured budget error — the batch's one
# deterministic "explosive" item.
CHAIN_GRAPH='sdf expchain\nactor S0 1\nchan S0 S0 1 1 1\n'
i=1
while [ $i -lt 30 ]; do
    CHAIN_GRAPH="${CHAIN_GRAPH}actor S$i 1\nchan S$i S$i 1 1 1\nchan S$((i-1)) S$i 2 1 0\n"
    i=$((i + 1))
done

{
    printf '{"items":['
    i=0
    while [ $i -lt 97 ]; do
        [ $i -gt 0 ] && printf ','
        printf '{"graph_text":"%s","method":"matrix","budget":%d}' "$HEALTHY_GRAPH" $((300000 + i))
        i=$((i + 1))
    done
    printf ',{"graph_text":"%s","method":"statespace","budget":400001,"inject":[{"engine":"statespace","mode":"panic","times":-1}]}' "$HEALTHY_GRAPH"
    printf ',{"graph_text":"%s","method":"statespace","budget":400002,"inject":[{"engine":"statespace","mode":"panic","times":-1}]}' "$HEALTHY_GRAPH"
    printf ',{"graph_text":"%s","budget":1000}' "$CHAIN_GRAPH"
    printf '],"deadline_ms":60000}'
} > "$BATCH_DIR/batch.json"

B1="127.0.0.1:$((23000 + $$ % 10000))"
B2="127.0.0.1:$((33100 + $$ % 10000))"
B3="127.0.0.1:$((43200 + $$ % 10000))"
BRADDR="127.0.0.1:$((53300 + $$ % 10000))"

# -workers 2 keeps each replica's batch lane narrow, stretching the
# sub-batch wall time so the mid-batch kill below lands in flight.
"$BATCH_DIR/sdfserved" -addr "$B1" -allow-injection -workers 2 > "$BATCH_DIR/b1.log" 2>&1 &
B1_PID=$!
"$BATCH_DIR/sdfserved" -addr "$B2" -allow-injection -workers 2 > "$BATCH_DIR/b2.log" 2>&1 &
B2_PID=$!
"$BATCH_DIR/sdfserved" -addr "$B3" -allow-injection -workers 2 > "$BATCH_DIR/b3.log" 2>&1 &
B3_PID=$!
BATCH_PIDS="$B1_PID $B2_PID $B3_PID"

for addr in "$B1" "$B2" "$B3"; do
    ready=0
    for _ in $(seq 1 100); do
        if "$BATCH_DIR/sdftool" query -server "http://$addr" -health >/dev/null 2>&1; then
            ready=1
            break
        fi
        sleep 0.1
    done
    [ "$ready" = 1 ] || { echo "batch: replica $addr never became ready"; exit 1; }
done

"$BATCH_DIR/sdfrouter" -addr "$BRADDR" \
    -replicas "http://$B1,http://$B2,http://$B3" \
    -probe-interval 100ms -probe-fail 2 -probe-readmit 2 \
    -batch-straggler 250ms > "$BATCH_DIR/router.log" 2>&1 &
BROUTER_PID=$!
BATCH_PIDS="$BATCH_PIDS $BROUTER_PID"

ready=0
for _ in $(seq 1 100); do
    if curl -sf "http://$BRADDR/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo 'batch: sdfrouter never became ready'; cat "$BATCH_DIR/router.log"; exit 1; }

# The contract batch: 97 healthy + 2 panicking + 1 explosive items must
# come back as one HTTP 200 with exactly 3 item-error entries.
code=$(curl -s -o "$BATCH_DIR/res1.json" -w '%{http_code}' -X POST \
    --data-binary @"$BATCH_DIR/batch.json" "http://$BRADDR/v1/batch")
if [ "$code" != 200 ]; then
    echo "batch: contract batch answered $code, want 200 (item failures are never batch-wide)"
    cat "$BATCH_DIR/res1.json"
    cat "$BATCH_DIR/router.log"
    exit 1
fi
grep -q '"kind":"partial"' "$BATCH_DIR/res1.json" || {
    echo 'batch: contract batch kind is not "partial"'
    cat "$BATCH_DIR/res1.json"
    exit 1
}
grep -q '"ok":97[,}]' "$BATCH_DIR/res1.json" && grep -q '"errors":3[,}]' "$BATCH_DIR/res1.json" || {
    echo 'batch: contract batch did not report 97 ok / 3 errors'
    head -c 2000 "$BATCH_DIR/res1.json"
    exit 1
}
errs=$(($(grep -o '"status":"item-error"' "$BATCH_DIR/res1.json" | wc -l)))
if [ "$errs" -ne 3 ]; then
    echo "batch: $errs item-error entries, want exactly 3"
    exit 1
fi
# The failure kinds are per item and structured: two engine panics
# (isolated by the per-item guard) and one budget refusal.
panics=$(($(grep -o '"kind":"engine"' "$BATCH_DIR/res1.json" | wc -l)))
budgets=$(($(grep -o '"kind":"budget"' "$BATCH_DIR/res1.json" | wc -l)))
if [ "$panics" -ne 2 ] || [ "$budgets" -ne 1 ]; then
    echo "batch: item-error kinds engine=$panics budget=$budgets, want 2/1"
    grep -o '"kind":"[^"]*"' "$BATCH_DIR/res1.json"
    exit 1
fi
# Every healthy answer carries its own checked certificate.
verified=$(($(grep -o '"verified":true' "$BATCH_DIR/res1.json" | wc -l)))
if [ "$verified" -ne 97 ]; then
    echo "batch: $verified verified answers, want 97"
    exit 1
fi

# sdftool batch renders the same batch as a table and exits with the
# worst item's code: the panicking items map to the engine code 4.
rc=0
"$BATCH_DIR/sdftool" batch -server "http://$BRADDR" -deadline 60s \
    "$BATCH_DIR/batch.json" > "$BATCH_DIR/table.txt" 2>&1 || rc=$?
if [ "$rc" -ne 4 ]; then
    echo "batch: sdftool batch exited $rc, want 4 (worst item: engine panic)"
    cat "$BATCH_DIR/table.txt"
    exit 1
fi
rows=$(grep -cE '^  +[0-9]+  ' "$BATCH_DIR/table.txt" || true)
if [ "$rows" -ne 100 ]; then
    echo "batch: sdftool batch table has $rows rows, want 100"
    cat "$BATCH_DIR/table.txt"
    exit 1
fi

# Mid-batch kill -9: a second, all-healthy batch is in flight when one
# replica dies. Its items must be re-dispatched to the survivors — one
# entry per item, zero errors, zero lost answers.
{
    printf '{"items":['
    i=0
    while [ $i -lt 150 ]; do
        [ $i -gt 0 ] && printf ','
        printf '{"graph_text":"%s","method":"matrix","budget":%d}' "$HEALTHY_GRAPH" $((500000 + i))
        i=$((i + 1))
    done
    printf '],"deadline_ms":60000}'
} > "$BATCH_DIR/batch_kill.json"
curl -s -o "$BATCH_DIR/res2.json" -w '%{http_code}' -X POST \
    --data-binary @"$BATCH_DIR/batch_kill.json" "http://$BRADDR/v1/batch" \
    > "$BATCH_DIR/code2" &
CURL_PID=$!
sleep 0.1
kill -9 "$B2_PID" 2>/dev/null || true
wait "$CURL_PID" || true
code=$(cat "$BATCH_DIR/code2")
if [ "$code" != 200 ]; then
    echo "batch: kill batch answered $code, want 200 (a dying replica is never batch-wide)"
    cat "$BATCH_DIR/res2.json"
    cat "$BATCH_DIR/router.log"
    exit 1
fi
grep -q '"kind":"complete"' "$BATCH_DIR/res2.json" && grep -q '"ok":150[,}]' "$BATCH_DIR/res2.json" || {
    echo 'batch: kill batch lost answers; want complete with 150 ok'
    head -c 2000 "$BATCH_DIR/res2.json"
    cat "$BATCH_DIR/router.log"
    exit 1
}
entries=$(($(grep -o '"index":' "$BATCH_DIR/res2.json" | wc -l)))
if [ "$entries" -ne 150 ]; then
    echo "batch: kill batch merged $entries entries, want one per item (150)"
    exit 1
fi

# The batch surface is on the router's metrics; no answer may have been
# lost (the series only appears when the merge invariant synthesized
# entries).
curl -s "http://$BRADDR/metrics" > "$BATCH_DIR/batch-metrics.txt"
for series in \
    'sdf_batch_requests_total\{outcome="partial"\} [1-9]' \
    'sdf_batch_requests_total\{outcome="complete"\} [1-9]' \
    'sdf_batch_fanout_total\{[^}]*\} [1-9]'; do
    grep -E "$series" "$BATCH_DIR/batch-metrics.txt" >/dev/null || {
        echo "batch: /metrics missing non-zero series $series"
        cat "$BATCH_DIR/batch-metrics.txt"
        exit 1
    }
done
if grep -E 'sdf_batch_lost_items_total [1-9]' "$BATCH_DIR/batch-metrics.txt"; then
    echo 'batch: the fleet lost item answers during the kill'
    cat "$BATCH_DIR/batch-metrics.txt"
    exit 1
fi
if grep -E 'sdf_batch_redispatched_items_total\{[^}]*\} [1-9]' \
    "$BATCH_DIR/batch-metrics.txt" >/dev/null; then
    echo '   mid-batch kill re-dispatched items to survivors'
else
    echo '   (kill batch completed before the kill landed; isolation still holds)'
fi

# SIGTERM: the router and a replica drain cleanly with the batch load done.
kill -TERM "$BROUTER_PID"
rc=0
wait "$BROUTER_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "batch: sdfrouter exited $rc after SIGTERM, want 0"
    cat "$BATCH_DIR/router.log"
    exit 1
fi
grep -q 'drained cleanly' "$BATCH_DIR/router.log" || {
    echo 'batch: no clean-drain line in the router log'
    cat "$BATCH_DIR/router.log"
    exit 1
}
kill -TERM "$B1_PID"
rc=0
wait "$B1_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "batch: sdfserved exited $rc after SIGTERM, want 0"
    cat "$BATCH_DIR/b1.log"
    exit 1
fi
cleanup_batch
trap - EXIT

echo '== sadf soak: FSM-SADF round-trips with client-side certificate checks'
# End-to-end contract of the scenario-aware workload: `sdftool sadf
# -verify` analyses the two-scenario reference model locally, then
# round-trips it through a race-instrumented sdfserved daemon AND
# through an sdfrouter in front of it — in both cases the client
# rebuilds the server's certificate from the wire payload and re-checks
# it against its own parse in exact arithmetic. The sadf error taxonomy
# must hold through the wire (broken model exit 1, precondition-failing
# scenario exit 2), repeat queries must hit the result cache, and the
# sadf counters must move on /metrics. Both processes drain cleanly on
# SIGTERM.
SADF_DIR=$(mktemp -d)
SADF_PIDS=
cleanup_sadf() {
    for pid in $SADF_PIDS; do kill -9 "$pid" 2>/dev/null || true; done
    rm -rf "$SADF_DIR"
}
trap cleanup_sadf EXIT

go build -race -o "$SADF_DIR/sdfserved" ./cmd/sdfserved
go build -o "$SADF_DIR/sdfrouter" ./cmd/sdfrouter
go build -o "$SADF_DIR/sdftool" ./cmd/sdftool

# The README's two-scenario model: worst-case period 4, from alternating
# the heavy and light scenarios around the two-token ring.
cat > "$SADF_DIR/wlan.sadf" <<'EOF'
sadf wlan
scenario lo
actor A 1
actor B 2
chan A B 1 1 1
chan B A 1 1 1
scenario hi
actor A 5
actor B 3
chan A B 1 1 1
chan B A 1 1 1
state slo lo
state shi hi
trans slo shi
trans shi slo
trans slo slo
trans shi shi
initial slo
EOF
# Structural model error: a state labeling an unknown scenario.
cat > "$SADF_DIR/broken.sadf" <<'EOF'
sadf broken
scenario a
actor A 1
chan A A 1 1 1
state s nosuch
initial s
EOF
# Structurally valid, but the scenario fails the rate-consistency
# precheck.
cat > "$SADF_DIR/badscn.sadf" <<'EOF'
sadf bad
scenario a
actor A 1
actor B 1
chan A B 2 1 1
chan B A 1 1 1
state s a
trans s s
initial s
EOF

# Local analysis with the certificate re-check.
"$SADF_DIR/sdftool" sadf -verify "$SADF_DIR/wlan.sadf" > "$SADF_DIR/local.txt"
grep -q 'worst-case period: 4' "$SADF_DIR/local.txt" || {
    echo 'sadf: local analysis did not find worst-case period 4'
    cat "$SADF_DIR/local.txt"
    exit 1
}
grep -q '^verified:' "$SADF_DIR/local.txt" || {
    echo 'sadf: local -verify printed no verified line'
    cat "$SADF_DIR/local.txt"
    exit 1
}

SADF_ADDR="127.0.0.1:$((24000 + $$ % 10000))"
"$SADF_DIR/sdfserved" -addr "$SADF_ADDR" > "$SADF_DIR/served.log" 2>&1 &
SADF_SERVED_PID=$!
SADF_PIDS="$SADF_SERVED_PID"

ready=0
for _ in $(seq 1 100); do
    if "$SADF_DIR/sdftool" query -server "http://$SADF_ADDR" -health >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo 'sadf: sdfserved never became ready'; cat "$SADF_DIR/served.log"; exit 1; }

# Remote round-trip: the wire certificate must survive the client-side
# rebuild and exact re-check.
"$SADF_DIR/sdftool" sadf -server "http://$SADF_ADDR" -verify "$SADF_DIR/wlan.sadf" > "$SADF_DIR/remote.txt"
grep -q 'worst-case period: 4' "$SADF_DIR/remote.txt" || {
    echo 'sadf: remote analysis did not find worst-case period 4'
    cat "$SADF_DIR/remote.txt"
    exit 1
}
grep -q 're-checked locally' "$SADF_DIR/remote.txt" || {
    echo 'sadf: remote -verify did not re-check the wire certificate'
    cat "$SADF_DIR/remote.txt"
    exit 1
}
# A repeat of the same model must come from the result cache, and the
# cached answer's certificate must still verify.
"$SADF_DIR/sdftool" sadf -server "http://$SADF_ADDR" -verify "$SADF_DIR/wlan.sadf" > "$SADF_DIR/cached.txt"
grep -q 'served from the result cache' "$SADF_DIR/cached.txt" || {
    echo 'sadf: repeat query was not served from the cache'
    cat "$SADF_DIR/cached.txt"
    exit 1
}
grep -q 're-checked locally' "$SADF_DIR/cached.txt" || {
    echo 'sadf: cached answer failed the client-side certificate check'
    cat "$SADF_DIR/cached.txt"
    exit 1
}

# The sadf error taxonomy through the wire: structural model error exit
# 1, precondition-failing scenario exit 2 (same codes as local runs).
expect_sadf() {
    want=$1
    shift
    rc=0
    "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "sadf: '$*' exited $rc, want $want"
        cat "$SADF_DIR/served.log"
        exit 1
    fi
}
expect_sadf 1 "$SADF_DIR/sdftool" sadf -server "http://$SADF_ADDR" "$SADF_DIR/broken.sadf"
expect_sadf 2 "$SADF_DIR/sdftool" sadf -server "http://$SADF_ADDR" "$SADF_DIR/badscn.sadf"
expect_sadf 1 "$SADF_DIR/sdftool" sadf "$SADF_DIR/broken.sadf"

# The workload is on the metrics surface.
curl -s "http://$SADF_ADDR/metrics" > "$SADF_DIR/metrics.txt"
for series in \
    'sdf_sadf_requests_total\{outcome="served"\} [1-9]' \
    'sdf_sadf_automaton_nodes_total [1-9]'; do
    grep -E "$series" "$SADF_DIR/metrics.txt" >/dev/null || {
        echo "sadf: /metrics missing non-zero series $series"
        cat "$SADF_DIR/metrics.txt"
        exit 1
    }
done

# The same round-trip through the fleet router: the certificate must
# survive the extra hop verbatim.
SADF_RADDR="127.0.0.1:$((34000 + $$ % 10000))"
"$SADF_DIR/sdfrouter" -addr "$SADF_RADDR" -replicas "http://$SADF_ADDR" \
    > "$SADF_DIR/router.log" 2>&1 &
SADF_ROUTER_PID=$!
SADF_PIDS="$SADF_PIDS $SADF_ROUTER_PID"
ready=0
for _ in $(seq 1 100); do
    if curl -sf "http://$SADF_RADDR/readyz" >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo 'sadf: sdfrouter never became ready'; cat "$SADF_DIR/router.log"; exit 1; }
"$SADF_DIR/sdftool" sadf -server "http://$SADF_RADDR" -verify "$SADF_DIR/wlan.sadf" > "$SADF_DIR/fleet.txt"
grep -q 'worst-case period: 4' "$SADF_DIR/fleet.txt" && grep -q 're-checked locally' "$SADF_DIR/fleet.txt" || {
    echo 'sadf: certified answer did not survive the router hop'
    cat "$SADF_DIR/fleet.txt"
    cat "$SADF_DIR/router.log"
    exit 1
}
# A broken model bounces at the router without burning a replica hop.
expect_sadf 1 "$SADF_DIR/sdftool" sadf -server "http://$SADF_RADDR" "$SADF_DIR/broken.sadf"

# SIGTERM: router and daemon drain cleanly.
kill -TERM "$SADF_ROUTER_PID"
rc=0
wait "$SADF_ROUTER_PID" || rc=$?
[ "$rc" -eq 0 ] || { echo "sadf: sdfrouter exited $rc after SIGTERM, want 0"; cat "$SADF_DIR/router.log"; exit 1; }
kill -TERM "$SADF_SERVED_PID"
rc=0
wait "$SADF_SERVED_PID" || rc=$?
[ "$rc" -eq 0 ] || { echo "sadf: sdfserved exited $rc after SIGTERM, want 0"; cat "$SADF_DIR/served.log"; exit 1; }
grep -q 'drained cleanly' "$SADF_DIR/served.log" || {
    echo 'sadf: no clean-drain line in the daemon log'
    cat "$SADF_DIR/served.log"
    exit 1
}
SADF_PIDS=
cleanup_sadf
trap - EXIT

echo 'ci: all checks passed'
