// Package pim implements the paper's primary contribution: PIM-enabled
// instructions (PEIs) and the hardware that executes them — PEI
// Computation Units (PCUs) on the host side and in each vault, and the
// PEI Management Unit (PMU) with its PIM directory, locality monitor, and
// balanced dispatch logic.
package pim

import (
	"encoding/binary"
	"fmt"
	"math"

	"pimsim/internal/addr"
	"pimsim/internal/memlayout"
)

// OpKind identifies one of the seven PIM operations of Table 1.
type OpKind uint8

const (
	// OpInc64 is the 8-byte atomic integer increment (ATF).
	OpInc64 OpKind = iota
	// OpMin64 is the 8-byte atomic integer min (BFS, SP, WCC).
	OpMin64
	// OpFloatAdd is the double-precision atomic add (PR).
	OpFloatAdd
	// OpHashProbe checks the keys in one hash bucket for a match and
	// returns the match result and the next-bucket address (HJ).
	OpHashProbe
	// OpHistBin shifts each of the 16 4-byte words in the target block by
	// the given amount and returns the 16 one-byte bin indexes (HG, RP).
	OpHistBin
	// OpEuclideanDist computes the squared Euclidean distance between the
	// 16-dimensional single-precision vector in the target block and the
	// input vector (SC).
	OpEuclideanDist
	// OpDotProduct computes the dot product of the 4-dimensional
	// double-precision vector at the target and the input vector (SVM).
	OpDotProduct

	numOps
)

// OpInfo describes one PEI kind: Table 1's reader/writer flags and
// operand sizes, plus the PCU compute occupancy.
type OpInfo struct {
	Name string
	// Reader/Writer: whether the operation reads/modifies its target
	// cache block.
	Reader, Writer bool
	// InputBytes/OutputBytes are the operand payload sizes.
	InputBytes, OutputBytes int
	// ComputeCycles is the PCU computation-logic occupancy in PCU clock
	// cycles (single-issue logic; the operand buffer overlaps the memory
	// accesses of multiple PEIs, §4.2).
	ComputeCycles int64
}

// Ops is Table 1. Indexed by OpKind.
var Ops = [numOps]OpInfo{
	OpInc64:         {Name: "inc64", Reader: true, Writer: true, InputBytes: 0, OutputBytes: 0, ComputeCycles: 1},
	OpMin64:         {Name: "min64", Reader: true, Writer: true, InputBytes: 8, OutputBytes: 0, ComputeCycles: 1},
	OpFloatAdd:      {Name: "fadd", Reader: true, Writer: true, InputBytes: 8, OutputBytes: 0, ComputeCycles: 4},
	OpHashProbe:     {Name: "hashprobe", Reader: true, Writer: false, InputBytes: 8, OutputBytes: 9, ComputeCycles: 4},
	OpHistBin:       {Name: "histbin", Reader: true, Writer: false, InputBytes: 1, OutputBytes: 16, ComputeCycles: 8},
	OpEuclideanDist: {Name: "euclid", Reader: true, Writer: false, InputBytes: 64, OutputBytes: 4, ComputeCycles: 16},
	OpDotProduct:    {Name: "dot", Reader: true, Writer: false, InputBytes: 32, OutputBytes: 8, ComputeCycles: 8},
}

func (k OpKind) Info() OpInfo { return Ops[k] }

func (k OpKind) String() string { return Ops[k].Name }

// Hash-bucket layout for OpHashProbe. A bucket fills one cache block:
// an 8-byte next-bucket address (0 = end of chain) followed by
// HashBucketKeys (key, payload) pairs of 8 bytes each.
const (
	HashBucketNextOff = 0
	HashBucketKeys    = 3
	HashBucketKeyOff  = 8
	HashBucketStride  = 16
)

// Operand bounds of Table 1: the Euclidean-distance input and the
// histogram-bin output are the largest operands any PEI carries.
const (
	MaxInputBytes  = 64
	MaxOutputBytes = 16
)

// PEI is one in-flight PIM-enabled instruction. Target is the physical
// address of the accessed word/vector; the single-cache-block restriction
// requires Target's operand to lie within one 64-byte block, which
// Validate enforces.
//
// A PEI carries inline storage for its operands (Table 1 bounds them),
// so filling the input (SetU64, SetF64, InputBuf) and producing the
// output (Execute) allocate nothing. PEIs taken from a PEIPool return to
// it when they retire: nothing may touch such a PEI after its Done
// callback has run.
type PEI struct {
	Op     OpKind
	free   bool // completed and not yet handed out again
	Target uint64
	// Input holds the input operand (len must match Ops[Op].InputBytes).
	// The setters point it at the inline storage; PEIs that are not
	// pooled may instead carry a slice of their own.
	Input []byte
	// Output receives the output operand before Done runs. It aliases
	// the PEI's inline storage (nil for ops without an output).
	Output []byte
	// Core is the issuing host processor.
	Core int
	// Tag is issuer-owned: a completion callback shared by many PEIs
	// uses it to find where the output goes.
	Tag int
	// Done runs when the PEI retires (output operand readable).
	Done func(p *PEI)
	// Issuer, when non-nil, is notified at retire INSTEAD of Done being
	// called by the PMU; the issuer then owns calling Complete. The CPU
	// core model sets itself here so per-PEI retirement needs no
	// closures.
	Issuer Retiree

	slab *peiSlab // owning pool slab, nil for PEIs built directly
	in   [MaxInputBytes]byte
	out  [MaxOutputBytes]byte
}

// Retiree receives PEI retirement notifications (see PEI.Issuer).
type Retiree interface {
	PEIRetired(p *PEI)
}

// InputBuf points Input at the first n bytes of the inline storage and
// returns them for the caller to fill.
func (p *PEI) InputBuf(n int) []byte {
	p.Input = p.in[:n]
	return p.Input
}

// SetU64 sets an 8-byte little-endian input operand.
func (p *PEI) SetU64(v uint64) { binary.LittleEndian.PutUint64(p.InputBuf(8), v) }

// SetF64 sets a double input operand.
func (p *PEI) SetF64(v float64) { p.SetU64(math.Float64bits(v)) }

// Complete runs Done and returns a pooled PEI to its pool. It is the
// last use of the PEI: after it returns, the struct may already be
// carrying a different instruction.
func (p *PEI) Complete() {
	if p.Done != nil {
		p.Done(p)
	}
	if p.slab != nil {
		p.slab.put(p)
	}
}

// PEIPool recycles PEIs. Each op stream owns one, so a workload's
// steady state reuses the PEIs its retired instructions gave back
// instead of allocating one per instruction. The zero value is ready
// to use.
//
// The pool hands PEIs out in address order from slabs, and reuses a
// slab once every PEI in it has completed. A stream issues its PEIs in
// the order it generated them, so issue then walks memory
// sequentially; handing back single PEIs in completion order would
// scatter those first touches across the pool.
type PEIPool struct {
	cur   *peiSlab   // slab being handed out
	next  int        // next unused PEI in cur
	spare []*peiSlab // slabs whose PEIs have all completed
}

// peiSlabLen PEIs plus the slab header fill one 8 KiB allocation.
const peiSlabLen = 42

type peiSlab struct {
	peis [peiSlabLen]PEI
	live int // PEIs handed out and not yet completed
	pool *PEIPool
}

// Get returns a clean PEI for op at target, owned by the pool until it
// completes.
func (pl *PEIPool) Get(op OpKind, target uint64) *PEI {
	if pl.cur == nil || pl.next == peiSlabLen {
		pl.nextSlab()
	}
	s := pl.cur
	p := &s.peis[pl.next]
	pl.next++
	s.live++
	// Reset every field but the inline operand storage: Input and
	// Output start out nil, so stale operand bytes are never visible,
	// and a PEI with small operands leaves the storage's last cache
	// line untouched.
	p.Op, p.free, p.Target = op, false, target
	p.Input, p.Output = nil, nil
	p.Core, p.Tag = 0, 0
	p.Done, p.Issuer = nil, nil
	p.slab = s
	return p
}

// nextSlab makes cur a slab with every PEI free: the exhausted cur
// itself if all of its PEIs have completed, else a spare or a new one.
func (pl *PEIPool) nextSlab() {
	if pl.cur != nil && pl.cur.live == 0 {
		pl.next = 0
		return
	}
	if n := len(pl.spare); n > 0 {
		pl.cur = pl.spare[n-1]
		pl.spare = pl.spare[:n-1]
	} else {
		pl.cur = &peiSlab{pool: pl}
	}
	pl.next = 0
}

// put takes back a completed PEI; a second release panics instead of
// handing one struct to two instructions. A slab other than the one
// being handed out becomes spare when its last PEI completes.
func (s *peiSlab) put(p *PEI) {
	if p.free {
		panic("pim: PEI double-released")
	}
	p.free = true
	s.live--
	if s.live == 0 && s != s.pool.cur {
		s.pool.spare = append(s.pool.spare, s)
	}
}

// targetBytes returns how many bytes at Target the operation touches.
func (k OpKind) targetBytes() int {
	switch k {
	case OpHashProbe, OpHistBin, OpEuclideanDist:
		return addr.BlockBytes
	case OpDotProduct:
		return 32
	default:
		return 8
	}
}

// Validate checks operand sizes and the single-cache-block restriction.
func (p *PEI) Validate() error {
	info := p.Op.Info()
	if len(p.Input) != info.InputBytes {
		//peilint:allow hotalloc invalid-PEI error path; Issue panics on it, ending the run
		return fmt.Errorf("pim: %s input operand %d bytes, want %d", info.Name, len(p.Input), info.InputBytes)
	}
	n := uint64(p.Op.targetBytes())
	if addr.BlockOf(p.Target) != addr.BlockOf(p.Target+n-1) {
		//peilint:allow hotalloc invalid-PEI error path; Issue panics on it, ending the run
		return fmt.Errorf("pim: %s target %#x..+%d crosses a cache-block boundary", info.Name, p.Target, n)
	}
	return nil
}

// Execute performs the operation functionally against the store,
// writing the output operand into p.Output (nil for zero-output ops).
// It is invoked by whichever PCU the PEI was steered to, at the
// simulated time the computation completes; the PIM directory
// guarantees no other PEI is mid-flight on the same block at that
// moment.
func (p *PEI) Execute(s *memlayout.Store) {
	target, input := p.Target, p.Input
	p.Output = nil
	switch p.Op {
	case OpInc64:
		s.WriteU64(target, s.ReadU64(target)+1)
	case OpMin64:
		v := binary.LittleEndian.Uint64(input)
		if int64(v) < int64(s.ReadU64(target)) {
			s.WriteU64(target, v)
		}
	case OpFloatAdd:
		d := math.Float64frombits(binary.LittleEndian.Uint64(input))
		s.WriteF64(target, s.ReadF64(target)+d)
	case OpHashProbe:
		key := binary.LittleEndian.Uint64(input)
		out := p.out[:9]
		out[0] = 0
		for i := 0; i < HashBucketKeys; i++ {
			off := target + HashBucketKeyOff + uint64(i*HashBucketStride)
			if s.ReadU64(off) == key {
				out[0] = 1
				break
			}
		}
		binary.LittleEndian.PutUint64(out[1:], s.ReadU64(target+HashBucketNextOff))
		p.Output = out
	case OpHistBin:
		shift := uint(input[0])
		out := p.out[:16]
		for i := range out {
			out[i] = byte(s.ReadU32(target+uint64(i*4)) >> shift)
		}
		p.Output = out
	case OpEuclideanDist:
		var sum float32
		for i := 0; i < 16; i++ {
			a := s.ReadF32(target + uint64(i*4))
			b := math.Float32frombits(binary.LittleEndian.Uint32(input[i*4:]))
			d := a - b
			sum += d * d
		}
		p.Output = p.out[:4]
		binary.LittleEndian.PutUint32(p.Output, math.Float32bits(sum))
	case OpDotProduct:
		var sum float64
		for i := 0; i < 4; i++ {
			a := s.ReadF64(target + uint64(i*8))
			b := math.Float64frombits(binary.LittleEndian.Uint64(input[i*8:]))
			sum += a * b
		}
		p.Output = p.out[:8]
		binary.LittleEndian.PutUint64(p.Output, math.Float64bits(sum))
	default:
		panic(fmt.Sprintf("pim: unknown op %d", p.Op))
	}
}
