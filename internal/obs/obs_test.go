package obs

import (
	"bytes"
	"strings"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/profile"
)

// src is a hostile loop whose rare path forces both commits and squashes,
// so one run exercises most of the lifecycle taxonomy.
const src = `
	.entry main
	main:   ldi  r1, 2048
	        ldi  r4, 1
	loop:   andi r2, r1, 511
	        bnez r2, common
	rare:   muli r4, r4, 17      ; hostile: forces squashes
	common: addi r4, r4, 1
	        andi r4, r4, 0xffff
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
`

// runWith prepares src and runs it with sink attached, returning the result.
func runWith(t *testing.T, sink Sink) *core.Result {
	t.Helper()
	p := asm.MustAssemble(src)
	prof, err := profile.Collect(p, profile.Options{Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	d, err := distill.Distill(p, prof, distill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	Attach(&cfg, sink)
	m, err := core.New(p, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// collect runs src and returns the raw event stream.
func collect(t *testing.T) ([]Event, *core.Result) {
	t.Helper()
	var events []Event
	res := runWith(t, SinkFunc(func(ev Event) { events = append(events, ev) }))
	if len(events) == 0 {
		t.Fatal("no lifecycle events emitted")
	}
	return events, res
}

// TestStreamMatchesMetrics: the event stream and the machine's counters
// agree on forks, commits and squashes.
func TestStreamMatchesMetrics(t *testing.T) {
	events, res := collect(t)
	var forks, commits, squashes uint64
	for _, ev := range events {
		switch ev.Kind {
		case KindFork:
			forks++
		case KindCommit:
			commits++
		case KindSquash:
			squashes++
		}
	}
	m := res.Metrics
	if forks != m.Forks {
		t.Errorf("stream saw %d forks, machine counted %d", forks, m.Forks)
	}
	if commits != m.TasksCommitted {
		t.Errorf("stream saw %d commits, machine counted %d", commits, m.TasksCommitted)
	}
	if squashes != m.Squashes {
		t.Errorf("stream saw %d squashes, machine counted %d", squashes, m.Squashes)
	}
	if squashes == 0 {
		t.Error("hostile program squashed nothing; test no longer exercises the taxonomy")
	}
}

// TestStreamInvariants: Seq is dense from 0; per-task cycles are monotone
// across fork → dispatch → verify → commit|squash; fallback events carry
// NoTask; squashes carry a known reason.
func TestStreamInvariants(t *testing.T) {
	events, _ := collect(t)
	reasons := map[string]bool{
		"livein": true, "overflow": true, "fault": true,
		"nonspec": true, "start-mismatch": true,
	}
	lastCycle := map[int64]float64{}
	lastKind := map[int64]Kind{}
	order := map[Kind]int{KindFork: 0, KindDispatch: 1, KindVerify: 2, KindCommit: 3, KindSquash: 3}
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has Seq %d; stream numbering not dense", i, ev.Seq)
		}
		switch ev.Kind {
		case KindFallbackEnter, KindFallbackExit:
			if ev.Task != NoTask {
				t.Errorf("fallback event carries task %d, want NoTask", ev.Task)
			}
			continue
		case KindSquash:
			if !reasons[ev.Reason] {
				t.Errorf("squash reason %q outside the taxonomy", ev.Reason)
			}
		}
		if ev.Task < 0 {
			t.Fatalf("%s event with negative task %d", ev.Kind, ev.Task)
		}
		if prev, ok := lastCycle[ev.Task]; ok {
			if ev.Cycle < prev {
				t.Errorf("task %d: %s at cycle %g precedes %s at %g",
					ev.Task, ev.Kind, ev.Cycle, lastKind[ev.Task], prev)
			}
			if order[ev.Kind] <= order[lastKind[ev.Task]] {
				t.Errorf("task %d: %s after %s violates the state machine",
					ev.Task, ev.Kind, lastKind[ev.Task])
			}
		} else if ev.Kind != KindFork {
			t.Errorf("task %d: first event is %s, want fork", ev.Task, ev.Kind)
		}
		lastCycle[ev.Task] = ev.Cycle
		lastKind[ev.Task] = ev.Kind
	}
}

// TestJSONLRoundTrip: emitting through a JSONL sink and parsing the file
// back reproduces the identical event sequence.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	events, _ := collect(t)
	for _, ev := range events {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	parsed, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("round-trip lost events: wrote %d, read %d", len(events), len(parsed))
	}
	for i := range events {
		if parsed[i] != events[i] {
			t.Fatalf("event %d changed in round-trip:\n wrote %+v\n  read %+v", i, events[i], parsed[i])
		}
	}
}

func TestParseJSONLErrors(t *testing.T) {
	if _, err := ParseJSONL(strings.NewReader("{\"seq\":0}\n\nnot json\n")); err == nil {
		t.Error("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name the offending line", err)
	}
	evs, err := ParseJSONL(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Errorf("blank-only input: %v, %d events", err, len(evs))
	}
}

// TestWithJob: the wrapper stamps Job and forwards the rest unchanged.
func TestWithJob(t *testing.T) {
	var got []Event
	sink := SinkFunc(func(ev Event) { got = append(got, ev) })
	WithJob(sink, "mtf").Emit(Event{Seq: 4, Kind: KindCommit, Task: 2})
	want := Event{Seq: 4, Kind: KindCommit, Task: 2, Job: "mtf"}
	if len(got) != 1 || got[0] != want {
		t.Errorf("forwarded %+v, want [%+v]", got, want)
	}
}

// TestAttachChains: Attach preserves an existing subscriber and numbers
// each attached stream independently from 0.
func TestAttachChains(t *testing.T) {
	cfg := core.DefaultConfig()
	var first, second []Event
	Attach(&cfg, SinkFunc(func(ev Event) { first = append(first, ev) }))
	Attach(&cfg, SinkFunc(func(ev Event) { second = append(second, ev) }))
	cfg.OnLifecycle(core.LifecycleEvent{Kind: core.LifecycleFork, TaskID: 3})
	cfg.OnLifecycle(core.LifecycleEvent{Kind: core.LifecycleCommit, TaskID: 3})
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("chained sinks saw %d/%d events, want 2/2", len(first), len(second))
	}
	for i := range first {
		if first[i].Seq != uint64(i) || second[i].Seq != uint64(i) {
			t.Errorf("event %d: seqs %d/%d, want independent dense numbering",
				i, first[i].Seq, second[i].Seq)
		}
	}
	if first[0].Kind != KindFork || first[1].Kind != KindCommit {
		t.Errorf("first subscriber saw %v", first)
	}
}
