package workloads

import (
	"fmt"
	"strings"
	"testing"

	"mssp/internal/baseline"
	"mssp/internal/distill"
	"mssp/internal/profile"
)

// TestAllWorkloadsRun exercises every registered workload at both scales:
// programs must validate, halt, produce a nonzero deterministic checksum,
// and the ref input must be meaningfully larger than train.
func TestAllWorkloadsRun(t *testing.T) {
	if len(All()) == 0 {
		t.Fatal("no workloads registered")
	}
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var steps [2]uint64
			for _, s := range []Scale{Train, Ref} {
				p := w.Build(s)
				if err := p.Validate(); err != nil {
					t.Fatalf("%s/%s: invalid program: %v", w.Name, s, err)
				}
				res, err := baseline.Run(p, baseline.DefaultConfig())
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, s, err)
				}
				out := res.Final.Mem.Read(p.MustSymbol("out"))
				if out == 0 {
					t.Errorf("%s/%s: zero checksum", w.Name, s)
				}
				// Rebuild and rerun: bit-identical result.
				res2, err := baseline.Run(w.Build(s), baseline.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if out2 := res2.Final.Mem.Read(p.MustSymbol("out")); out2 != out {
					t.Errorf("%s/%s: nondeterministic checksum %d vs %d", w.Name, s, out, out2)
				}
				steps[s] = res.Steps
				t.Logf("%s/%s: %d instructions, out=%d", w.Name, s, res.Steps, out)
			}
			if steps[Ref] < 4*steps[Train] {
				t.Errorf("%s: ref (%d) should be >= 4x train (%d)", w.Name, steps[Ref], steps[Train])
			}
			if steps[Ref] < 400_000 || steps[Ref] > 20_000_000 {
				t.Errorf("%s: ref dynamic size %d outside [400k, 20M]", w.Name, steps[Ref])
			}
		})
	}
}

// TestWorkloadsDistillable checks the distiller engages on each workload:
// training profile + default options must prune something and keep the
// distilled program strictly smaller in predicted dynamic terms.
func TestWorkloadsDistillable(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			p := w.Build(Train)
			prof, err := profile.Collect(p, profile.Options{Stride: 100})
			if err != nil {
				t.Fatal(err)
			}
			if !prof.Halted {
				t.Fatal("train run did not halt under profiler")
			}
			d, err := distill.Distill(p, prof, distill.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			st := d.Stats
			if st.PrunedToJump+st.PrunedToNop == 0 {
				t.Errorf("%s: distiller pruned nothing (stats %+v)", w.Name, st)
			}
			if len(d.Anchors) == 0 {
				t.Errorf("%s: no anchors", w.Name)
			}
			t.Logf("%s: %+v", w.Name, st)
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("compress"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Error("names not sorted")
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := newRNG(42), newRNG(42)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng nondeterministic")
		}
	}
	c := newRNG(43)
	if newRNG(42).next() == c.next() {
		t.Error("seeds do not differentiate")
	}
}

func TestFillDataPanics(t *testing.T) {
	p := build(".data\n.org 100\nx: .space 2\n.code\nhalt", nil)
	defer func() {
		if recover() == nil {
			t.Error("overflow fill should panic")
		}
	}()
	fillData(p, "x", []uint64{1, 2, 3})
}

// TestCodeIdenticalAcrossScales: distillations are produced from the train
// build and applied to the ref build, which is only sound when the code
// segment (and all symbol addresses) are scale-independent.
func TestCodeIdenticalAcrossScales(t *testing.T) {
	for _, w := range All() {
		tr, rf := w.Build(Train), w.Build(Ref)
		if tr.Entry != rf.Entry || tr.Code.Base != rf.Code.Base {
			t.Errorf("%s: entry/base differ across scales", w.Name)
			continue
		}
		if len(tr.Code.Words) != len(rf.Code.Words) {
			t.Errorf("%s: code length differs across scales", w.Name)
			continue
		}
		for i := range tr.Code.Words {
			if tr.Code.Words[i] != rf.Code.Words[i] {
				t.Errorf("%s: code word %d differs across scales", w.Name, i)
				break
			}
		}
		for sym, a := range tr.Symbols {
			if rf.Symbols[sym] != a {
				t.Errorf("%s: symbol %q moved across scales", w.Name, sym)
			}
		}
	}
}

// TestParseScale: ParseScale accepts exactly what Scale.String prints and
// rejects everything else with an error naming the value.
func TestParseScale(t *testing.T) {
	for _, s := range []Scale{Train, Ref} {
		got, err := ParseScale(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "Train", "trian", "huge"} {
		_, err := ParseScale(bad)
		if err == nil {
			t.Errorf("ParseScale(%q) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", bad)) {
			t.Errorf("ParseScale(%q) error %q does not name the value", bad, err)
		}
	}
}
