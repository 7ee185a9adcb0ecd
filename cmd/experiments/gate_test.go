package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// checkScript reads the repository's check.sh, the only caller of
// -gate.
func checkScript(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "check.sh"))
	if err != nil {
		t.Fatalf("reading check.sh: %v", err)
	}
	return string(b)
}

// TestRunGateWritesRecordOnViolation pins the runner's tail: a gate
// that violates a bound still leaves its record, in the envelope
// check.sh's schema gate greps for, and fails naming the gate and the
// violation count.
func TestRunGateWritesRecordOnViolation(t *testing.T) {
	type payload struct {
		Speedup float64 `json:"speedup"`
	}
	g := gate{
		id:    "fake",
		bench: "fake gate (one violated bound)",
		run: func(io.Writer) (any, []string, error) {
			return payload{Speedup: 1.5}, []string{"speedup 1.5x below the 3x bound"}, nil
		},
	}
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	err := runGate(g, dir, &out, &errOut)
	if err == nil || err.Error() != "fake gate: 1 bound violation(s)" {
		t.Fatalf("runGate error = %v, want \"fake gate: 1 bound violation(s)\"", err)
	}
	if got, want := errOut.String(), "fake gate: speedup 1.5x below the 3x bound\n"; got != want {
		t.Errorf("violation report = %q, want %q", got, want)
	}

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_fake.json"))
	if err != nil {
		t.Fatalf("record not written: %v", err)
	}
	var rec benchRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("record does not decode: %v\n%s", err, data)
	}
	if rec.SchemaVersion != 1 || rec.Bench == "" || rec.Cores != runtime.GOMAXPROCS(0) {
		t.Errorf("envelope = %+v, want schema_version 1, a bench description, cores %d",
			rec, runtime.GOMAXPROCS(0))
	}
	var p payload
	if err := json.Unmarshal(data, &p); err != nil || p.Speedup != 1.5 {
		t.Errorf("payload = %+v (%v), want speedup 1.5 at the top level", p, err)
	}

	// The shell schema gate and this writer must not drift apart: every
	// pattern check.sh greps a record for must match the written bytes.
	greps := regexp.MustCompile(`grep -q '([^']*)' "\$f"`).FindAllStringSubmatch(checkScript(t), -1)
	if len(greps) != 3 {
		t.Fatalf("found %d schema greps in check.sh, want 3", len(greps))
	}
	for _, m := range greps {
		if !bytes.Contains(data, []byte(m[1])) {
			t.Errorf("record lacks check.sh schema pattern %q:\n%s", m[1], data)
		}
	}
}

// TestGateIDsKnownToCheckScript pins that every gate in the table is one
// check.sh can select and runs, so `-gate <id>` and `check.sh -only
// <id>` name the same gate.
func TestGateIDsKnownToCheckScript(t *testing.T) {
	script := checkScript(t)
	m := regexp.MustCompile(`(?m)^KNOWN_GATES="([^"]*)"`).FindStringSubmatch(script)
	if m == nil {
		t.Fatal("check.sh has no KNOWN_GATES line")
	}
	known := strings.Fields(m[1])
	for _, id := range gateIDs() {
		found := false
		for _, k := range known {
			found = found || k == id
		}
		if !found {
			t.Errorf("gate %q is not a check.sh gate id (KNOWN_GATES: %s)", id, m[1])
		}
		if !strings.Contains(script, "experiments\" -gate "+id+"\n") {
			t.Errorf("check.sh never runs experiments -gate %s", id)
		}
	}
}
