package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photoloop/internal/spec"
)

// TestEvalRefusesMisspelledParameter runs `photoloop eval -arch` on the
// template with its DRAM's pj_per_bit misspelled: the build fails with
// the bad name instead of evaluating without it.
func TestEvalRefusesMisspelledParameter(t *testing.T) {
	bad := strings.Replace(spec.Template, `"pj_per_bit": 25`, `"pj_per_bt": 25`, 1)
	if bad == spec.Template {
		t.Fatal("the template's DRAM no longer sets pj_per_bit 25")
	}
	path := filepath.Join(t.TempDir(), "arch.json")
	if err := os.WriteFile(path, []byte(bad), 0o666); err != nil {
		t.Fatal(err)
	}
	cmd := cli(t, "eval", "-arch", path, "-network", "alexnet", "-layer", "conv1", "-budget", "50")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("eval of a misspelled DRAM parameter exited 0")
	}
	if !strings.Contains(stderr.String(), `unknown parameter "pj_per_bt"`) {
		t.Errorf("stderr does not name the bad parameter:\n%s", stderr.String())
	}
}
