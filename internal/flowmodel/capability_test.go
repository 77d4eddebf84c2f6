package flowmodel

import (
	"testing"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/simrand"
)

// TestPipelinedProfileRemovesAckFloor pins the pipelined timing model: the
// same multi-operation flow completes much faster without per-operation
// acknowledgment waits, while its byte accounting stays identical.
func TestPipelinedProfileRemovesAckFloor(t *testing.T) {
	small := make([]int, 50)
	for i := range small {
		small[i] = 20_000
	}
	spec := StorageFlowSpec{Dir: classify.DirStore, ChunkWires: small}

	seqRng := simrand.New(7, "pipe")
	pSeq := DefaultParams(90 * time.Millisecond)
	seq := Synthesize(seqRng, pSeq, spec)

	pipeRng := simrand.New(7, "pipe")
	pPipe := DefaultParams(90 * time.Millisecond)
	pPipe.Caps.CommitPipelining = true // on DefaultParams' per-chunk 1.2.52 ops
	pipe := Synthesize(pipeRng, pPipe, spec)

	if pipe.BytesUp != seq.BytesUp || pipe.BytesDown != seq.BytesDown ||
		pipe.PSHUp != seq.PSHUp || pipe.PSHDown != seq.PSHDown {
		t.Fatalf("pipelining changed byte accounting: %+v vs %+v", pipe, seq)
	}
	seqDur := classify.TransferDuration(seq, classify.DirStore)
	pipeDur := classify.TransferDuration(pipe, classify.DirStore)
	// Pipelining removes per-op acknowledgment round trips and server
	// reactions but keeps the client's own issue spacing (the packet-level
	// pipelined client still separates issues by a reaction time), so the
	// win is large but bounded — at least 2x here, not free.
	if pipeDur*2 > seqDur {
		t.Fatalf("pipelining should collapse the ack floor: sequential %v vs pipelined %v",
			seqDur, pipeDur)
	}
}

// TestCustomBundleTargetGroupsOps exercises a non-default bundle target:
// chunks below the large-chunk threshold (target/4) pack until the target,
// so a 16 MB target bundles five 3 MB chunks into one operation where the
// default 4 MB target makes each its own (3 MB exceeds 4 MB/4).
func TestCustomBundleTargetGroupsOps(t *testing.T) {
	chunks := []int{3 << 20, 3 << 20, 3 << 20, 3 << 20, 3 << 20}
	if ops := dropbox.PlanTransfer(nil, capability.BigChunks16MB(), chunks); len(ops) != 1 {
		t.Fatalf("16MB target should bundle five 3MB chunks into 1 op, got %d", len(ops))
	}
	if ops := dropbox.PlanTransfer(nil, capability.DropboxV140(), chunks); len(ops) != 5 {
		t.Fatalf("4MB target should cut each 3MB chunk into its own op, got %d", len(ops))
	}
}
