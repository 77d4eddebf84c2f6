package dropbox

import (
	"encoding/binary"
	"testing"

	"insidedropbox/internal/capability"
)

// planInput encodes chunk wire sizes as the fuzz target reads them: a
// shift byte, then three little-endian bytes per chunk holding size-1.
func planInput(shift byte, sizes ...int) []byte {
	b := []byte{shift}
	for _, s := range sizes {
		b = append(b, byte(s-1), byte((s-1)>>8), byte((s-1)>>16))
	}
	return b
}

func repeatSize(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

// FuzzPlanTransfer checks the transfer plan over random chunk-size vectors
// for every preset: the operations cover every chunk once and in order
// with their summed wire bytes, no batch holds more than
// MaxChunksPerBatch chunks, no operation passes the bundle target unless
// it carries one chunk, a chunk of a quarter of the target or more ends
// its operation, and bundling never raises the operation count.
func FuzzPlanTransfer(f *testing.F) {
	f.Add(planInput(0, 100, 200, 300))
	f.Add(planInput(0, repeatSize(40, 50_000)...))
	f.Add(planInput(0, 4<<20, 4<<20))
	f.Add(planInput(0, repeatSize(5, 3<<20)...))
	f.Add(planInput(0, 1_000, 3_000_000))
	f.Add(planInput(4, repeatSize(250, 2_000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// The shift skews sizes small so bundles form, not only 16 MB
		// chunks that each end their own.
		shift := data[0] % 24
		var wires []int
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			v := int(binary.LittleEndian.Uint32(append(b[:3:3], 0)))
			wires = append(wires, 1+v>>shift)
		}
		for _, prof := range capability.Presets() {
			ops := PlanTransfer(nil, prof, wires)
			next, inBatch := 0, 0
			for i, op := range ops {
				if op.First != next || op.Chunks < 1 {
					t.Fatalf("%s: op %d = %+v, want chunks from %d", prof.Name, i, op, next)
				}
				sum := 0
				for j, w := range wires[op.First : op.First+op.Chunks] {
					sum += w
					if j < op.Chunks-1 && w >= prof.BundleTarget()/4 {
						t.Fatalf("%s: op %d bundles on past a %d-byte chunk", prof.Name, i, w)
					}
				}
				if op.Wire != sum {
					t.Fatalf("%s: op %d carries %d wire bytes, its chunks sum to %d", prof.Name, i, op.Wire, sum)
				}
				if op.Chunks > 1 && op.Wire > prof.BundleTarget() {
					t.Fatalf("%s: op %d bundles %d chunks into %d bytes, past the %d target",
						prof.Name, i, op.Chunks, op.Wire, prof.BundleTarget())
				}
				next += op.Chunks
				if inBatch += op.Chunks; inBatch > MaxChunksPerBatch {
					t.Fatalf("%s: batch ending at op %d holds %d chunks", prof.Name, i, inBatch)
				}
				if op.EndsBatch {
					inBatch = 0
				}
			}
			if next != len(wires) || inBatch != 0 {
				t.Fatalf("%s: ops cover %d of %d chunks, %d past the last batch end", prof.Name, next, len(wires), inBatch)
			}
			unbundled := prof
			unbundled.Bundling = false
			if per := len(PlanTransfer(nil, unbundled, wires)); len(ops) > per {
				t.Fatalf("%s: bundling raised the op count from %d to %d", prof.Name, per, len(ops))
			}
		}
	})
}

// TestPlanTransferAllocatesNothing pins the per-flow cost the generator
// and the flow model rely on: planning into a reused slice allocates
// nothing.
func TestPlanTransferAllocatesNothing(t *testing.T) {
	wires := repeatSize(250, 30_000)
	prof := capability.DropboxV140()
	dst := PlanTransfer(nil, prof, wires)
	if allocs := testing.AllocsPerRun(100, func() { dst = PlanTransfer(dst[:0], prof, wires) }); allocs != 0 {
		t.Fatalf("PlanTransfer into a reused slice: %v allocations per call", allocs)
	}
}
