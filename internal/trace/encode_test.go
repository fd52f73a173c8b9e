package trace

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// A marshal/decode round trip reproduces the trace exactly — streams,
// identity, and content digest — and the decoded trace replays.
func TestEncodeRoundTrip(t *testing.T) {
	prog, img := buildSliced(200, 11)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("decoded trace differs from the original")
	}
	if got.ID() != tr.ID() || got.Len() != tr.Len() || got.ProgName() != tr.ProgName() {
		t.Fatalf("identity mismatch: %q/%d vs %q/%d", got.ID(), got.Len(), tr.ID(), tr.Len())
	}
	// The decoded trace drives a replay to the same final memory.
	repMem := append([]byte(nil), img...)
	r, err := NewReplay(got, prog, repMem)
	if err != nil {
		t.Fatal(err)
	}
	for !r.Halted() {
		if _, err := step(r); err != nil {
			t.Fatal(err)
		}
	}
	capMem := append([]byte(nil), img...)
	if _, err := Capture(context.Background(), prog, capMem); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repMem, capMem) {
		t.Fatal("replay of a decoded trace diverged in final memory")
	}
}

// Any corruption of the encoding — header, streams, or digest — is
// rejected; Decode never returns a trace it cannot verify.
func TestDecodeRejectsCorruption(t *testing.T) {
	prog, img := buildSliced(64, 3)
	tr, err := Capture(context.Background(), prog, append([]byte(nil), img...))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"empty":       func(b []byte) []byte { return nil },
		"bad magic":   func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version": func(b []byte) []byte { b[len(encMagic)] ^= 0xff; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)/2] },
		"stream-byte": func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"digest-byte": func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
	}
	for name, corrupt := range cases {
		if _, err := Decode(corrupt(append([]byte(nil), data...))); err == nil {
			t.Errorf("%s: corrupted encoding decoded without error", name)
		}
	}
}
