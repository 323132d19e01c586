package main

import (
	"bytes"
	"strings"
	"testing"

	"photoloop/internal/albireo"
)

// TestReproClaimsPass runs `photoloop repro -fig claims` as a real process:
// every claim holds at a small budget, so it prints no FAIL and exits 0.
func TestReproClaimsPass(t *testing.T) {
	cmd := cli(t, "repro", "-fig", "claims", "-budget", "300")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("repro -fig claims: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("PASS  Fig5 accelerator reduction")) || bytes.Contains(out, []byte("FAIL")) {
		t.Fatalf("expected an all-PASS claims check:\n%s", out)
	}
}

// TestReproClaimsFailExits scores the same run against tightened bands:
// the failing claims print FAIL and the command returns an error naming
// them, which run turns into exit status 1.
func TestReproClaimsFailExits(t *testing.T) {
	tight := albireo.Claims()
	tight.Fig2MaxAvgError = 0
	tight.Fig5ConverterReductionLo = 0.99
	var out bytes.Buffer
	err := repro([]string{"-fig", "claims", "-budget", "300"}, &out, tight)
	if err == nil {
		t.Fatalf("tightened bands passed:\n%s", out.String())
	}
	for _, claim := range []string{"Fig2 avg energy error", "Fig5 converter reduction"} {
		if !strings.Contains(err.Error(), claim) {
			t.Errorf("error %q does not name %q", err, claim)
		}
		if !strings.Contains(out.String(), "FAIL  "+claim) {
			t.Errorf("output does not mark %q as FAIL:\n%s", claim, out.String())
		}
	}
	if strings.Contains(err.Error(), "Fig4") {
		t.Errorf("error names a claim that held: %v", err)
	}
	if code := run([]string{"repro", "-fig", "nope"}); code != 1 {
		t.Errorf("unknown -fig exited %d, want 1", code)
	}
}
