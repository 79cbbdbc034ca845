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
// included, and none that bind only words around it. It also pins which
// of them codeWrite reports as changing code, with the lowest changed word
// and its value: every one binding a code word at a value other than
// architected state's, under DisableFastPath too, where the retirer has no
// table.
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
		{"both sides and two inside", []uint64{base - 1, base + n, base + n/2, base + n/3}, true},
	} {
		r := Retirer{Tables: distill.Tables{Orig: code}, Arch: state.NewFromProgram(prog, 1<<20),
			code: prog.Code, codeClean: true}
		d := state.NewDelta()
		lowest, stored := uint64(0), uint64(0)
		for i, a := range tc.addrs {
			d.SetMem(a, uint64(i+1))
			if prog.InCode(a) && (lowest == 0 || a < lowest) {
				lowest, stored = a, uint64(i+1)
			}
		}
		d.SetReg(3, 7)
		d.SetPC(base)
		a, v, changes := r.codeWrite(d, true)
		if changes != tc.dirty || changes && (a != lowest || v != stored) {
			t.Errorf("%s: codeWrite = m%d=%d,%v, want m%d=%d,%v", tc.name, a, v, changes, lowest, stored, tc.dirty)
		}
		r.noteCodeWrites(d)
		if r.codeClean == tc.dirty {
			t.Errorf("%s: codeClean = %v, want %v", tc.name, r.codeClean, !tc.dirty)
		}
		if got := r.taskCode() != nil; got == tc.dirty {
			t.Errorf("%s: taskCode handed out the table = %v, want %v", tc.name, got, !tc.dirty)
		}
	}
	// A code word stored at the value it holds changes no code, but
	// clears codeClean: storing it is writing the code segment.
	r := Retirer{Tables: distill.Tables{Orig: code}, Arch: state.NewFromProgram(prog, 1<<20),
		code: prog.Code, codeClean: true}
	d := state.NewDelta()
	d.SetMem(base+1, 0)
	if _, _, changes := r.codeWrite(d, true); changes {
		t.Error("an unchanged code word counts as a change")
	}
	r.noteCodeWrites(d)
	if r.codeClean {
		t.Error("an unchanged code word left codeClean set")
	}
	// Without the table, a change is still seen.
	r = Retirer{Arch: state.NewFromProgram(prog, 1<<20), code: prog.Code}
	d.SetMem(base+2, 9)
	if a, v, changes := r.codeWrite(d, true); !changes || a != base+2 || v != 9 {
		t.Errorf("under DisableFastPath codeWrite = m%d=%d,%v, want m%d=9,true", a, v, changes, base+2)
	}
}
