package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestDrawMixCoversAxes: over a corpus of seeds the mix draws every value
// of every axis, keeps the task window within [Slaves, 4×Slaves], and
// draws the shortest window, the slave count, on a good share of seeds.
// The draw is a pure function of the seed.
func TestDrawMixCoversAxes(t *testing.T) {
	seen := map[string]bool{}
	shortest := 0
	const seeds = 2000
	for s := uint64(1); s <= seeds; s++ {
		m := DrawMix(s)
		if m != DrawMix(s) {
			t.Fatalf("seed %d: two draws differ", s)
		}
		slaves := deriveKnobs(s).Slaves
		if m.TaskBuffer < slaves || m.TaskBuffer > 4*slaves {
			t.Fatalf("seed %d: task window %d outside [%d, %d]", s, m.TaskBuffer, slaves, 4*slaves)
		}
		if m.TaskBuffer == slaves {
			shortest++
		}
		for _, v := range []string{
			"engine=" + m.Engine, "fuse=" + m.Fuse, "interp=" + m.Interp,
			"passes=" + boolName(m.DistillPasses), "taint=" + boolName(m.Taint),
			"faults=" + fmt.Sprint(m.FaultIntensity),
		} {
			seen[v] = true
		}
	}
	for _, v := range []string{
		"engine=det", "engine=parallel", "fuse=on", "fuse=off", "interp=fast", "interp=slow",
		"passes=on", "passes=off", "taint=on", "taint=off", "faults=0", "faults=0.25", "faults=0.5", "faults=1",
	} {
		if !seen[v] {
			t.Errorf("no seed drew %s", v)
		}
	}
	if shortest < seeds/5 {
		t.Errorf("%d of %d seeds drew the slave count as their task window, want at least a fifth", shortest, seeds)
	}
}

func boolName(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMixReplaysFromArtifact: the artifact of a mixed run's report records
// the draw, and the artifact's draw, read back from JSONL, reruns the seed
// to the same report. A run outside a mix reports no draw.
func TestMixReplaysFromArtifact(t *testing.T) {
	var seed uint64
	for s := uint64(1); ; s++ {
		// A deterministic-engine seed with faults and a window at the
		// slave count, so the report is byte-comparable across runs.
		if m := DrawMix(s); m.Engine == EngineDet && m.FaultIntensity > 0 && m.TaskBuffer == deriveKnobs(s).Slaves {
			seed = s
			break
		}
	}
	m := DrawMix(seed)
	rep := Run(m.Options(seed))
	rep.Mix = &m
	var buf bytes.Buffer
	if err := NewArtifact(rep).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	arts, err := ReadArtifacts(&buf)
	if err != nil || len(arts) != 1 || arts[0].Mix == nil {
		t.Fatalf("artifact round trip: %v, %d artifacts", err, len(arts))
	}
	again := Run(arts[0].Mix.Options(arts[0].Seed))
	again.Mix = arts[0].Mix
	if got, want := jsonOf(t, again), jsonOf(t, rep); got != want {
		t.Fatalf("seed %d: the replayed report differs:\n got %s\nwant %s", seed, got, want)
	}
	if plain := jsonOf(t, Run(Options{Seed: seed, FaultIntensity: 1})); strings.Contains(plain, `"mix"`) {
		t.Fatalf("a run outside a mix reports a draw: %s", plain)
	}
}
