package trace

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestBatchViewsMatchSerial fans one trace out to three views stepped at
// deliberately skewed paces and requires each view's stream, final memory
// image, and terminal observations to be byte-identical to a serial
// replay — a one-view batch, so a 1-view batch is compared with an N-view
// one. TestReplayMatchesMachine pins the serial replay to the emulator.
func TestBatchViewsMatchSerial(t *testing.T) {
	prog, img := buildSliced(200, 11)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}

	serialMem := append([]byte(nil), img...)
	serial, err := NewReplay(tr, prog, serialMem)
	if err != nil {
		t.Fatal(err)
	}
	var want []struct {
		d   [3]uint64 // seq, pc, nextpc — cheap spot fields
		all interface{}
	}
	for !serial.Halted() {
		d, err := serial.Step()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, struct {
			d   [3]uint64
			all interface{}
		}{[3]uint64{d.Seq, uint64(d.PC), uint64(d.NextPC)}, d})
	}

	b, err := NewBatch(tr, prog)
	if err != nil {
		t.Fatal(err)
	}
	mems := make([][]byte, 3)
	views := make([]*Replay, 3)
	for i := range views {
		mems[i] = append([]byte(nil), img...)
		views[i] = b.NewView(mems[i])
	}
	// Skewed lockstep: view 0 advances 3 records per round, view 1 two,
	// view 2 one — so the ring serves a window, not a single cursor.
	pos := make([]int, 3)
	for pos[0] < len(want) || pos[1] < len(want) || pos[2] < len(want) {
		for i, stride := range []int{3, 2, 1} {
			for s := 0; s < stride && pos[i] < len(want); s++ {
				d, err := views[i].Step()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(interface{}(d), want[pos[i]].all) {
					t.Fatalf("view %d record %d diverges from serial:\n  batch  %+v\n  serial %+v",
						i, pos[i], d, want[pos[i]].all)
				}
				pos[i]++
			}
		}
	}
	for i, v := range views {
		if !v.Halted() || !v.Done() {
			t.Fatalf("view %d not finished (halted=%v done=%v)", i, v.Halted(), v.Done())
		}
		if _, err := v.Step(); err == nil {
			t.Fatalf("view %d: Step after halt should error", i)
		}
		if !bytes.Equal(mems[i], serialMem) {
			t.Fatalf("view %d final memory diverges from serial replay", i)
		}
	}
}

// TestBatchWindowConcurrentViews pins the windowed-barrier case: over a
// trace longer than batchWindow, a full-speed view must block until a
// laggard (stepped one record at a time from another goroutine) drags the
// window's tail forward, and both must still replay byte-identically to a
// serial replay. Completion of the fast goroutine is itself the liveness
// assertion — with a trace this long it cannot finish without waiting on
// the laggard's published cursor.
func TestBatchWindowConcurrentViews(t *testing.T) {
	prog, img := buildSliced(3000, 13)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() <= batchWindow {
		t.Fatalf("trace too short (%d records) to exercise the ring window", tr.Len())
	}

	b, err := NewBatch(tr, prog)
	if err != nil {
		t.Fatal(err)
	}
	memA := append([]byte(nil), img...)
	memB := append([]byte(nil), img...)
	va := b.NewView(memA)
	vb := b.NewView(memB)

	fastErr := make(chan error, 1)
	go func() {
		for !va.Halted() {
			if _, err := va.Step(); err != nil {
				fastErr <- err
				return
			}
		}
		fastErr <- nil
	}()

	serialMem := append([]byte(nil), img...)
	serial, err := NewReplay(tr, prog, serialMem)
	if err != nil {
		t.Fatal(err)
	}
	for !vb.Halted() {
		got, err := vb.Step()
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := serial.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantD) {
			t.Fatalf("laggard record %d diverges from serial", wantD.Seq)
		}
	}
	if err := <-fastErr; err != nil {
		t.Fatal(err)
	}
	if len(b.ring) != batchRingSize {
		t.Fatalf("ring resized to %d records; it is a fixed window", len(b.ring))
	}
	if !bytes.Equal(memA, memB) || !bytes.Equal(memA, serialMem) {
		t.Fatal("final memory images diverge")
	}
}

// TestBatchDropUnblocksWindow: dropping a stalled view removes it from
// the window bound, so the survivor can consume a longer-than-window
// stream alone — without the drop this loop would block forever waiting
// for the stalled view's cursor.
func TestBatchDropUnblocksWindow(t *testing.T) {
	prog, img := buildSliced(3000, 17)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() <= batchWindow {
		t.Fatalf("trace too short (%d records) to exercise the ring window", tr.Len())
	}
	b, err := NewBatch(tr, prog)
	if err != nil {
		t.Fatal(err)
	}
	va := b.NewView(append([]byte(nil), img...))
	vb := b.NewView(append([]byte(nil), img...))
	b.Drop(vb)
	for !va.Halted() {
		if _, err := va.Step(); err != nil {
			t.Fatal(err)
		}
	}
	_ = vb
}
