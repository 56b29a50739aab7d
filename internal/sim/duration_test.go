package sim

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseDuration(t *testing.T) {
	good := map[string]Duration{
		"0":     0,
		"250ns": 250 * Nanosecond,
		"10us":  10 * Microsecond,
		"10µs":  10 * Microsecond,
		"1.5ms": 1500 * Microsecond,
		"2s":    2 * Second,
		" 3ms ": 3 * Millisecond,
	}
	for s, want := range good {
		got, err := ParseDuration(s)
		if err != nil {
			t.Errorf("ParseDuration(%q): %v", s, err)
		} else if got != want {
			t.Errorf("ParseDuration(%q) = %v, want %v", s, got, want)
		}
	}
	for _, s := range []string{"", "5", "-5ms", "fast", "5m", "ms", "1.2.3s"} {
		if _, err := ParseDuration(s); err == nil {
			t.Errorf("ParseDuration(%q) accepted", s)
		}
	}
}

// TestDurationUnmarshalText pins how a Duration field decodes from
// JSON: a string in ParseDuration's forms, blank or null keeping the
// field's prior value, and every other value an error naming the key.
func TestDurationUnmarshalText(t *testing.T) {
	type cfg struct {
		Period Duration `json:"period"`
	}
	good := map[string]Duration{
		`{"period": "10µs"}`: 10 * Microsecond,
		`{"period": "2ms"}`:  2 * Millisecond,
		`{"period": "0"}`:    0,
		`{"period": ""}`:     7,
		`{"period": " "}`:    7,
		`{"period": null}`:   7,
		`{}`:                 7,
	}
	for in, want := range good {
		c := cfg{Period: 7}
		if err := json.Unmarshal([]byte(in), &c); err != nil {
			t.Errorf("%s: %v", in, err)
		} else if c.Period != want {
			t.Errorf("%s: period = %d, want %d", in, c.Period, want)
		}
	}
	bad := map[string]string{
		`{"period": 5}`:       "number",
		`{"period": "-5ms"}`:  "negative duration",
		`{"period": "soon"}`:  "bad duration",
		`{"period": "5 ms"}`:  "bad duration",
		`{"period": true}`:    "bool",
		`{"period": ["1ms"]}`: "array",
	}
	for in, want := range bad {
		var c cfg
		err := json.Unmarshal([]byte(in), &c)
		if err == nil {
			t.Errorf("%s: accepted as %v", in, c.Period)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "period") {
			t.Errorf("%s: error %q does not name %q and the field", in, msg, want)
		}
	}
}
