package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// replay on bad outside input exits 1 with one "tracer: ..." line on
// stderr, not a panic and its goroutine dump.
func TestReplayReportsBadInput(t *testing.T) {
	dir := t.TempDir()
	badKind := filepath.Join(dir, "bad-kind.trace")
	// Magic, version 1, one region of kind 'x', 1 byte at address 0.
	if err := os.WriteFile(badKind, []byte("DMTR\x01\x01x\x01\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, in, want string
	}{
		{"missing file", filepath.Join(dir, "missing.trace"), "no such file"},
		{"bad region kind", badKind, "unknown kind 'x'"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"replay", "-in", c.in, "-ops", "10"}, &stdout, &stderr)
			if code != 1 {
				t.Errorf("exit status %d, want 1", code)
			}
			msg := stderr.String()
			if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "tracer: ") || !strings.Contains(msg, c.want) {
				t.Errorf("stderr = %q, want one \"tracer: ...%s...\" line", msg, c.want)
			}
			if strings.Contains(msg, "goroutine") || stdout.Len() != 0 {
				t.Errorf("stdout %q, stderr %q: want no output but the error line", stdout.String(), msg)
			}
		})
	}
}
