// Package dropbox implements the 2012 Dropbox client/server protocol as
// dissected by the paper (Sec. 2): the meta-data control protocol
// (register_host, list, commit_batch, need_blocks, close_changeset), the
// per-chunk storage protocol with sequential acknowledgments, the v1.4.0
// batched variants (store_batch/retrieve_batch), and the cleartext
// notification long-polling protocol.
//
// The package contains both sides: the service (control, notification and
// Amazon-style storage servers) and the client sync engine, all running over
// tcpsim/tlssim so that every protocol byte appears on the simulated wire
// with the sizes the paper measured (Appendix A).
//
// The client data plane is parameterized by the capability.Profile every
// ClientConfig carries (bundling and its batch target, deduplication,
// commit pipelining): the two clients the paper observed are the
// capability.DropboxV1252 and DropboxV140 presets, and what-if experiments
// pass any other profile without touching the protocol code.
package dropbox

import (
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/simrand"
)

// Protocol size constants measured by the authors (Appendix A.2/A.3).
const (
	// StoreClientOverhead is the minimum request framing a client spends
	// per store operation.
	StoreClientOverhead = 634
	// RetrieveClientOverheadMin/Max bound the per-retrieve request size;
	// typical requests fall in 362..426 bytes.
	RetrieveClientOverheadMin = 362
	RetrieveClientOverheadMax = 426
	// ServerOpOverhead is the server-side response framing per operation
	// (the HTTP OK of Fig. 19).
	ServerOpOverhead = 309
	// MaxChunksPerBatch caps chunks per transaction; larger synchronizations
	// split into several batches (Sec. 2.3.2).
	MaxChunksPerBatch = 100
	// StorageIdleTimeout closes an idle storage connection (Fig. 19).
	StorageIdleTimeout = 60 * time.Second
	// ControlIdleTimeout closes idle meta-data connections; the paper
	// observed "aggressive TCP connection timeout handling" producing many
	// short TLS connections.
	ControlIdleTimeout = 15 * time.Second
	// ServerReactionMedian is the median server processing time per
	// storage operation ("server reaction time", Sec. 4.4.2).
	ServerReactionMedian = 45 * time.Millisecond
	// ClientReactionMedian is the median client processing time between
	// storage operations (hashing, compression, disk).
	ClientReactionMedian = 70 * time.Millisecond
	// StorageNamesPerClient is how many dl-clientX aliases the control
	// plane hands to each client in list responses.
	StorageNamesPerClient = 40
	// NotifyPollPeriod is the long-poll response delay with no changes.
	NotifyPollPeriod = 60 * time.Second
)

// Reaction draws one client or server reaction time around its median
// (ClientReactionMedian, ServerReactionMedian): log-normal with σ 0.5.
func Reaction(rng *simrand.Source, median time.Duration) time.Duration {
	return time.Duration(rng.LogNormalMedian(float64(median), 0.5))
}

// ReactionLog is Reaction(rng, median) given math.Log(float64(median)), for
// callers that draw many reactions around one median.
func ReactionLog(rng *simrand.Source, logMedian float64) time.Duration {
	return time.Duration(rng.LogNormal(logMedian, 0.5))
}

// RetrieveRequestSize draws the size of one retrieve request, uniform in
// [RetrieveClientOverheadMin, RetrieveClientOverheadMax).
func RetrieveRequestSize(rng *simrand.Source) int {
	return RetrieveClientOverheadMin + rng.Intn(RetrieveClientOverheadMax-RetrieveClientOverheadMin)
}

// PlanOp is one storage operation of a transfer plan: Chunks consecutive
// chunks of the transfer starting at index First, moving Wire payload
// bytes. EndsBatch marks the last operation of a transaction.
type PlanOp struct {
	First, Chunks, Wire int
	EndsBatch           bool
}

// PlanTransfer appends to dst the storage operations that move chunks of
// the given wire (compressed) sizes under prof, and returns it. The chunks
// split into transactions of at most MaxChunksPerBatch (Sec. 2.3.2). Inside
// one, each chunk is its own operation unless the profile bundles: then
// chunks pack into one store_batch/retrieve_batch until the next would
// pass the bundle target, and a chunk of at least a quarter of the target
// ends its bundle (Sec. 6). The generator, the flow model and the
// packet-level client all plan through this function; with a reused dst it
// allocates nothing.
func PlanTransfer(dst []PlanOp, prof capability.Profile, wires []int) []PlanOp {
	target := prof.BundleTarget()
	cur := PlanOp{}
	for i, w := range wires {
		if cur.Chunks > 0 && cur.Wire+w > target {
			dst = append(dst, cur)
			cur = PlanOp{First: i}
		}
		cur.Chunks++
		cur.Wire += w
		end := i + 1
		cur.EndsBatch = end%MaxChunksPerBatch == 0 || end == len(wires)
		if cur.EndsBatch || !prof.Bundling || w >= target/4 {
			dst = append(dst, cur)
			cur = PlanOp{First: end}
		}
	}
	return dst
}

// HostID is the device identifier (host_int) carried in notification
// requests.
type HostID uint64

// NamespaceID identifies a synchronized folder; every account has a root
// namespace and one extra namespace per shared folder (Sec. 2.3.1).
type NamespaceID uint32

// ---- control-plane messages (ride the TLS side channel; wire sizes are
// what the probe observes) ----

// MsgRegisterHost announces a device to the control plane.
type MsgRegisterHost struct {
	Host       HostID
	Namespaces []NamespaceID
}

// MsgRegisterOK acknowledges registration.
type MsgRegisterOK struct{}

// MsgList asks for journal updates past the client's cursor.
type MsgList struct {
	Host    HostID
	Cursors map[NamespaceID]uint64
}

// MsgListResp returns per-namespace journal deltas plus the rotating list
// of storage server names handed to clients (Sec. 2.4). Wires gives the
// wire size of every listed chunk, which the client's retrieve plan
// groups on.
type MsgListResp struct {
	Updates      map[NamespaceID][]JournalEntry
	StorageNames []string
	Wires        map[chunker.Hash]int
}

// MsgCommitBatch submits meta-data for a batch of chunks about to be stored.
type MsgCommitBatch struct {
	Host      HostID
	Namespace NamespaceID
	Refs      []chunker.Ref
}

// MsgNeedBlocks lists the chunks the server does not already have
// (deduplication, Sec. 2.1); only these must be uploaded.
type MsgNeedBlocks struct {
	Missing []chunker.Hash
}

// MsgCloseChangeset commits a transaction after its chunks are stored.
type MsgCloseChangeset struct {
	Host      HostID
	Namespace NamespaceID
	Refs      []chunker.Ref
}

// MsgOK is the generic acknowledgment.
type MsgOK struct{}

// ---- storage messages ----

// MsgStore uploads one chunk (v1.2.52: one per operation).
type MsgStore struct {
	Ref      chunker.Ref
	WireSize int // compressed bytes actually sent
}

// MsgStoreOK acknowledges one store operation.
type MsgStoreOK struct{}

// MsgStoreBatch uploads several chunks in one operation (v1.4.0); Wires
// holds each chunk's compressed size.
type MsgStoreBatch struct {
	Refs  []chunker.Ref
	Wires []int
}

// MsgRetrieve requests one chunk.
type MsgRetrieve struct {
	Hash chunker.Hash
}

// MsgRetrieveBatch requests several chunks in one operation (v1.4.0).
type MsgRetrieveBatch struct {
	Hashes []chunker.Hash
}

// MsgRetrieveData carries chunk content back.
type MsgRetrieveData struct {
	Refs     []chunker.Ref
	WireSize int
}

// ---- notification messages (cleartext HTTP long-poll) ----

// NotifyResponse ends a long poll; Changed lists namespaces with news.
type NotifyResponse struct {
	Changed []NamespaceID
}

// JournalEntry is one committed meta-data mutation in a namespace journal.
type JournalEntry struct {
	Seq  uint64
	Path string
	Refs []chunker.Ref
}

// ControlMsgSize returns the on-the-wire plaintext size of a control
// message, approximating the JSON-ish encodings of the real protocol. The
// constants keep control flows small (Fig. 4: control volume is negligible)
// while scaling with content (hash lists).
func ControlMsgSize(m any) int {
	const hashLen = 32
	switch t := m.(type) {
	case MsgRegisterHost:
		return 180 + 8*len(t.Namespaces)
	case MsgRegisterOK:
		return 120
	case MsgList:
		return 160 + 16*len(t.Cursors)
	case MsgListResp:
		n := 200 + 24*len(t.StorageNames)
		for _, entries := range t.Updates {
			for _, e := range entries {
				n += 90 + len(e.Path) + hashLen*len(e.Refs)
			}
		}
		return n
	case MsgCommitBatch:
		return 220 + (hashLen+12)*len(t.Refs)
	case MsgNeedBlocks:
		return 140 + hashLen*len(t.Missing)
	case MsgCloseChangeset:
		return 200 + (hashLen+12)*len(t.Refs)
	case MsgOK:
		return 110
	default:
		return 150
	}
}
