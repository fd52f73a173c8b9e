// Package trace implements the capture-once/replay-many decoupling of the
// functional frontend from the timing model — the split the paper's
// Pin + Sniper setup exploits (§5.1): for a fixed workload (kernel, input,
// seed), the committed instruction stream is a property of the program
// alone, identical across every hardware configuration, so it can be
// captured once and replayed under any number of timing configs.
//
// A Trace is a compact, content-addressed record of one single-threaded
// program's complete architectural execution. Per dynamic instruction it
// stores the code index, a flag byte, and — only where needed — the
// effective address (memory ops) and the value written to the destination
// register. Everything else the timing model consumes (the static
// instruction, branch outcomes, next-PC, slice context, sequence numbers)
// is either recorded in the flags or reconstructed deterministically
// during replay.
//
// The destination-value stream is what makes replay a full frontend
// rather than a passive tape: Replay maintains the architectural register
// file and memory image by applying the recorded values and stores in
// program order, so it can fork wrong-path engines (emu.Shadow.Refork) from
// the exact state a live machine would have at any mispredicted branch.
// This matters because the set of mispredicted branches is
// timing-dependent — predictor choice, FRQ occupancy, and resolution
// order all shift speculative history — so wrong paths cannot be
// precomputed at capture; they are regenerated on demand from
// reconstructed state, exactly as the live emulator does.
//
// Traces are invalidated by Version, a simulator-behavior stamp embedded
// in every trace cache key: bump it whenever emulator or capture
// semantics change so stale traces can never feed a newer timing model.
package trace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Version stamps the capture/replay behavior. It participates in every
// trace cache key (see blp.Options.TraceKey), so bumping it after an
// emulator or trace-format change invalidates all previously captured
// traces at once.
const Version = 1

// Per-record flag bits.
const (
	flagTaken = 1 << iota // branch outcome (conditional branches only)
	flagVal               // record writes a destination register; vals holds the value
	flagAddr              // record is a memory op; addrs holds the effective address
)

// captureCtxCheck is how many captured instructions elapse between
// context-cancellation polls.
const captureCtxCheck = 1 << 16

// Trace is one captured execution. Immutable after Capture; safe to share
// across any number of concurrent replays.
type Trace struct {
	progName string
	progLen  int // len(prog.Code) at capture, a cheap identity check

	pcs   []int32  // code index per record
	flags []uint8  // flag bits per record
	vals  []uint64 // destination values, dense over records with flagVal
	addrs []uint64 // effective addresses, dense over records with flagAddr

	id string // hex sha256 content digest
}

// Len returns the number of recorded dynamic instructions.
func (t *Trace) Len() int { return len(t.pcs) }

// ID returns the content digest of the trace (hex sha256 over the record
// streams and the format version) — the trace's content address.
func (t *Trace) ID() string { return t.id }

// ProgName returns the name of the captured program.
func (t *Trace) ProgName() string { return t.progName }

// Capture executes prog to completion on mem with a fresh functional
// emulator and records its full architectural instruction stream. The
// memory image is executed in place (pass a dedicated copy: after Capture
// it holds the program's final memory, which callers can validate against
// the workload's host reference). ctx is polled every captureCtxCheck
// instructions; a canceled capture returns ctx.Err().
func Capture(ctx context.Context, prog *isa.Program, mem []byte) (*Trace, error) {
	t := &Trace{progName: prog.Name, progLen: len(prog.Code)}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	m := emu.New(prog, mem)
	var d emu.DynInst
	for !m.Halted {
		if done != nil && len(t.pcs)%captureCtxCheck == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("trace: capture of %s canceled at instruction %d: %w",
					prog.Name, len(t.pcs), ctx.Err())
			default:
			}
		}
		if err := m.Step(&d); err != nil {
			return nil, fmt.Errorf("trace: capturing %s: %w", prog.Name, err)
		}
		var fl uint8
		if d.Taken {
			fl |= flagTaken
		}
		op := d.Inst.Op
		if op.HasDst() && d.Inst.Dst != isa.R0 {
			fl |= flagVal
			t.vals = append(t.vals, m.Regs[d.Inst.Dst])
		}
		if op.IsMem() {
			fl |= flagAddr
			t.addrs = append(t.addrs, d.Addr)
		}
		t.pcs = append(t.pcs, int32(d.PC))
		t.flags = append(t.flags, fl)
	}
	t.id = t.digest()
	return t, nil
}

// digest hashes the record streams plus the format version into the
// trace's content address.
func (t *Trace) digest() string {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.pcs)))
	h.Write(hdr[:])
	h.Write([]byte(t.progName))
	buf := make([]byte, 8)
	for _, pc := range t.pcs {
		binary.LittleEndian.PutUint32(buf, uint32(pc))
		h.Write(buf[:4])
	}
	h.Write(t.flags)
	for _, v := range t.vals {
		binary.LittleEndian.PutUint64(buf, v)
		h.Write(buf)
	}
	for _, a := range t.addrs {
		binary.LittleEndian.PutUint64(buf, a)
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}
