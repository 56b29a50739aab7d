package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// fingerprints maps a workload, prefixed "smoke/" at smoke size, to the
// SHA-256 of its simulated outputs at the default seed. A change that
// only claims to make the simulator faster must leave every one of them
// unchanged.
type fingerprints map[string]string

func loadFingerprints(path string) (fingerprints, error) {
	fp := fingerprints{}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return fp, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &fp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return fp, nil
}

// save writes the file with sorted keys (json.Marshal sorts map keys).
func (fp fingerprints) save(path string) error {
	data, err := json.MarshalIndent(fp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fingerprintKey(name string, smoke bool) string {
	if smoke {
		return "smoke/" + name
	}
	return name
}

// checkFingerprint compares a workload's agreed fingerprint with the
// frozen one at the default seed, or records it when re-freezing. Other
// seeds have no frozen value; their reps must still agree with each
// other, which measure checks.
func checkFingerprint(o options, wr *workloadResult, frozen fingerprints) {
	if o.seed != defaultSeed || wr.Fingerprint == "" {
		return
	}
	key := fingerprintKey(wr.Name, o.smoke)
	if o.refreeze {
		if wr.Failed == 0 {
			frozen[key] = wr.Fingerprint
		}
		return
	}
	want, ok := frozen[key]
	switch {
	case !ok:
		wr.Errors = append(wr.Errors, fmt.Sprintf("no frozen fingerprint for %s in %s", key, fingerprintsPath))
	case want != wr.Fingerprint:
		wr.Errors = append(wr.Errors, fmt.Sprintf("fingerprint %s differs from the frozen %s: simulated behaviour changed", short(wr.Fingerprint), short(want)))
	default:
		return
	}
	wr.Failed++
	wr.Correct = false
}
