package sim

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// ParseDuration parses a simulated duration like "250ns", "10us",
// "1.5ms" or "2s" ("0" is accepted bare). It exists because Duration is
// not time.Duration and configs and commands should read like
// memtierd's.
func ParseDuration(s string) (Duration, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, fmt.Errorf("empty duration")
	}
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  Duration
	}{
		{"ns", Nanosecond},
		{"us", Microsecond},
		{"µs", Microsecond},
		{"ms", Millisecond},
		{"s", Second},
	}
	for _, u := range units {
		if !strings.HasSuffix(s, u.suffix) {
			continue
		}
		num := strings.TrimSuffix(s, u.suffix)
		// "ms" also ends in "s"; only accept when the number parses.
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue
		}
		if v < 0 {
			return 0, fmt.Errorf("negative duration %q", s)
		}
		return Duration(v * float64(u.scale)), nil
	}
	return 0, fmt.Errorf("bad duration %q (want e.g. 500ns, 10us, 1.5ms, 2s)", s)
}

// UnmarshalText decodes a config string in ParseDuration's forms, so a
// JSON config field of type Duration reads "2ms". Blank text leaves t
// unchanged, as JSON null or an absent key does: a field left "" keeps
// its default. A bad duration is reported as a json.UnmarshalTypeError,
// the one error kind encoding/json extends with the field's path, so
// the message names the offending key.
func (t *Time) UnmarshalText(text []byte) error {
	s := string(text)
	if strings.TrimSpace(s) == "" {
		return nil
	}
	d, err := ParseDuration(s)
	if err != nil {
		return &json.UnmarshalTypeError{Value: err.Error(), Type: reflect.TypeFor[Time]()}
	}
	*t = d
	return nil
}
