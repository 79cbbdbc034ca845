package core

import (
	"testing"

	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/state"
)

// TestNoteCodeWritesClearsCodeClean pins which committed live-outs stop
// taskCode from handing out the predecoded original program: exactly those
// that bind a word inside the code segment, its first and last words
// included, and none that bind only words around it.
func TestNoteCodeWritesClearsCodeClean(t *testing.T) {
	const base, n = 4096, 100
	prog := &isa.Program{Entry: base, Code: isa.Segment{Base: base, Words: make([]uint64, n)}}
	code := isa.Predecode(prog)
	for _, tc := range []struct {
		name  string
		addrs []uint64
		dirty bool
	}{
		{"just below the segment", []uint64{base - 1}, false},
		{"first code word", []uint64{base}, true},
		{"last code word", []uint64{base + n - 1}, true},
		{"first word past the end", []uint64{base + n}, false},
		{"both sides, none inside", []uint64{base - 1, base - 200, base + n, base + 5*n}, false},
		{"both sides and one inside", []uint64{base - 1, base + n, base + n/2}, true},
	} {
		r := Retirer{Tables: distill.Tables{Orig: code}, codeClean: true}
		d := state.NewDelta()
		for i, a := range tc.addrs {
			d.SetMem(a, uint64(i+1))
		}
		d.SetReg(3, 7)
		d.SetPC(base)
		r.noteCodeWrites(d)
		if r.codeClean == tc.dirty {
			t.Errorf("%s: codeClean = %v, want %v", tc.name, r.codeClean, !tc.dirty)
		}
		if got := r.taskCode() != nil; got == tc.dirty {
			t.Errorf("%s: taskCode handed out the table = %v, want %v", tc.name, got, !tc.dirty)
		}
	}
	// A retirer whose code is already dirty stays dirty, and a nil delta
	// changes nothing.
	r := Retirer{Tables: distill.Tables{Orig: code}}
	r.noteCodeWrites(state.NewDelta())
	r.noteCodeWrites(nil)
	if r.codeClean {
		t.Error("noteCodeWrites set codeClean")
	}
}
