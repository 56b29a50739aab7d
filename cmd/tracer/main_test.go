package main

import (
	"bytes"
	"io"
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
	// The first 100 bytes of a recorded silo trace hold its header and
	// 77 accesses, fewer than the replay asks for.
	silo := filepath.Join(dir, "silo.trace")
	if code := run([]string{"record", "-workload", "silo", "-out", silo}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("record exit status %d", code)
	}
	full, err := os.ReadFile(silo)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "silo100.trace")
	if err := os.WriteFile(truncated, full[:100], 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, in, ops, want string
	}{
		{"missing file", filepath.Join(dir, "missing.trace"), "10", "no such file"},
		{"bad region kind", badKind, "10", "unknown kind 'x'"},
		{"truncated", truncated, "1000", "truncated after 77 of 1000 accesses: unexpected EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"replay", "-in", c.in, "-ops", c.ops}, &stdout, &stderr)
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
