package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Artifact is the JSONL failure record cmd/msspfuzz writes: everything
// needed to reproduce a failing differential run. Replay needs only Seed,
// FaultIntensity and the taint mode recorded in Gen, or for a mixed soak's
// seed the Mix — the whole run is a pure function of those — but the record
// also carries the rendered failures and the generated-program shape so a
// human can triage without re-running.
type Artifact struct {
	// Seed replays the run: chaos.Run({Seed, FaultIntensity}).
	Seed uint64 `json:"seed"`
	// FaultIntensity is the faulted leg's intensity at failure time.
	FaultIntensity float64 `json:"faultIntensity"`
	// Gen is the generated program's shape summary.
	Gen GenConfig `json:"gen"`
	// Knobs is the derived machine configuration.
	Knobs Knobs `json:"knobs"`
	// Mix is a mixed soak's draw for the seed (nil outside one); replay
	// runs Mix.Options(Seed).
	Mix *Mix `json:"mix,omitempty"`
	// Failures lists every divergence the run found, rendered.
	Failures []string `json:"failures"`
}

// NewArtifact extracts the reproduction record from a failing report.
func NewArtifact(rep *Report) *Artifact {
	return &Artifact{
		Seed:           rep.Seed,
		FaultIntensity: rep.FaultIntensity,
		Gen:            rep.Gen,
		Knobs:          rep.Knobs,
		Mix:            rep.Mix,
		Failures:       rep.Failures,
	}
}

// WriteJSONL appends the artifact as one JSON line.
func (a *Artifact) WriteJSONL(w io.Writer) error {
	b, err := json.Marshal(a)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadArtifacts parses a JSONL stream of artifacts (cmd/msspfuzz -replay).
// Blank lines are skipped; a malformed line is an error naming its number.
func ReadArtifacts(r io.Reader) ([]*Artifact, error) {
	var out []*Artifact
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		a := &Artifact{}
		if err := json.Unmarshal(sc.Bytes(), a); err != nil {
			return nil, fmt.Errorf("chaos: artifact line %d: %w", line, err)
		}
		out = append(out, a)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
