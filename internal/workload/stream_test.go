package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// frozenStreams pins the SHA-256 of every fillBuilders stream: each access
// hashes as its GVA (8 bytes, little-endian) then one Write byte. A change
// to a generator's layout, RNG draw order or op shape changes its hash;
// refreeze only for a deliberate behaviour change.
var frozenStreams = map[string]string{
	"gups":      "bbe0bc393ff6416dd268b52dbeba2f4e4ea3c0f7cd863ab1d2acf2ecbac86355",
	"btree":     "7033f94b6fd35e17bd35de9f2a335646b93b8f1980c3ffe73de0b406665f0a59",
	"xsbench":   "dde7908eadaa8cf9a11a50848616874a1daf9b69b3fd1f1e5b88feae3ea0d34a",
	"liblinear": "2d0e55ae3f3a56aef8f8d13456f925b92af1366c887d48167561bf8cac5ca4a0",
	"bwaves":    "05e4a86d3ffd264d5dc20507f64de0004cbe87e16c1b1349b5ffc1c31f7e7ea4",
	"silo":      "47437f91eb127d3085227bf0b6433783f2e35f8af111b15546b6d5c7e9b90c45",
	"graph500":  "b5f51dae8104994f4e9a07c2c8f57f23d23d3bc1ba375c89249a09de6e87b333",
	"pagerank":  "406d590debf717b151fed95cbe2b87e7cf1ad829693ab207029532a858f6392d",
	"ycsb-a":    "c165c23c4dd11ae3874ef46d4151c53df932ca4507299771971aef9b78cf0154",
	"ycsb-c":    "dbd0b837b09bf42c2219914d4f823ae47873007541841d8b9be7c8a6dbbad096",
	"ycsb-e":    "a0c701e0a2b2de47556226b26160abb36cb93c8aded8e61f04ce41bfdc290122",
}

// streamHash drains w through a buffer of size accesses and hashes the
// stream.
func streamHash(t *testing.T, w Workload, size int) string {
	t.Helper()
	all, stalled := drainSized(t, w, size)
	if stalled {
		t.Fatalf("buffer %d stalled", size)
	}
	h := sha256.New()
	var rec [9]byte
	for _, a := range all {
		binary.LittleEndian.PutUint64(rec[:8], a.GVA)
		rec[8] = 0
		if a.Write {
			rec[8] = 1
		}
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrozenStreamHashes checks every generator's full stream against its
// frozen hash at buffers of 9 (the widest op, YCSB-E's 1+8), 64 and 2048
// accesses.
func TestFrozenStreamHashes(t *testing.T) {
	for _, tc := range fillBuilders() {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range []int{9, 64, 2048} {
				got := streamHash(t, mustSetup(tc.build()), size)
				if want := frozenStreams[tc.name]; got != want {
					t.Errorf("buffer %d: stream hash %s, frozen %s", size, got, want)
				}
			}
		})
	}
}

// TestFillBeforeSetupPanics checks that every generator refuses Fill
// before Setup and names itself in the panic.
func TestFillBeforeSetupPanics(t *testing.T) {
	for _, tc := range fillBuilders() {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.build()
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "Fill before Setup") || !strings.Contains(msg, w.Name()) {
					t.Errorf("panic %q does not name Fill before Setup for %s", msg, w.Name())
				}
			}()
			w.Fill(make([]Access, 16))
		})
	}
}
