package traces

// The ordered slot ring, the one executor of both directions. Blocks are
// independent by construction, so each frame is finished (encode,
// compress) or decoded (inflate, decodeBody) in a slot of its own: the
// caller claims slots in stream order, starts each one's work inline or
// on a goroutine that ends with the frame, and takes them back oldest
// first. Only the caller touches the stream, so the bytes and records are
// the inline path's for every ring size, and a writer after its Flush or
// a reader dropped at any point owns no goroutine once its in-flight
// frames finish. One slot works every frame inline: the GOMAXPROCS=1 path.

import (
	"bytes"
	"compress/flate"
	"io"
)

// encScratch is a writer slot's finisher state: the flate compressor,
// created by the framings that compress.
type encScratch struct{ fw *flate.Writer }

// frameSlot is one frame on its way through a ring. The writer fills cols
// with a block and finishes frame from it; the reader slices the frame's
// bytes into payload and decodes cols from them.
type frameSlot struct {
	cols  blockAccum
	enc   encScratch // writer: the compressor of framings that compress
	frame []byte     // writer: the finished frame, owned by cols

	payload  []byte        // reader: the frame's bytes after its length prefixes
	raw      []byte        // reader: the inflated body (flate)
	src      bytes.Reader  // reader: payload as the decompressor's source
	fr       io.ReadCloser // reader: flate decompressor, reused via flate.Resetter
	rawLen   int           // reader: the declared body size
	frameLen int           // reader: the frame's wire size, prefixes included
	err      error         // reader: the frame's error; io.EOF ends the stream
	warm     bool          // reader: a frame has been worked in this slot

	busy bool          // started on a goroutine and not yet waited for
	done chan struct{} // one send per frame its goroutine finished
	run  func()        // the ring's work on this slot, then that send
}

// ring holds up to size frames in stream order; slots are created on
// first use and reused from then on.
type ring struct {
	size    int
	work    func(*frameSlot)
	slots   []*frameSlot
	head, n int // the oldest claimed slot, and how many are claimed
}

// ringSize gives workers one slot each plus the caller's; one worker or
// fewer is a single slot worked inline.
func ringSize(workers int) int {
	if workers <= 1 {
		return 1
	}
	return workers + 1
}

// at returns the i-th claimed slot, the oldest being 0.
func (q *ring) at(i int) *frameSlot { return q.slots[(q.head+i)%q.size] }

// claim appends the next slot in stream order; the caller checks n < size.
func (q *ring) claim() *frameSlot {
	if i := (q.head + q.n) % q.size; i == len(q.slots) {
		s := &frameSlot{done: make(chan struct{}, 1)}
		s.run = func() { q.work(s); s.done <- struct{}{} }
		q.slots = append(q.slots, s)
	}
	q.n++
	return q.at(q.n - 1)
}

// start works s inline, or on a goroutine that ends with the frame.
func (q *ring) start(s *frameSlot, inline bool) {
	if inline {
		q.work(s)
		return
	}
	s.busy = true
	go s.run()
}

// pop waits for the oldest slot's work and releases the slot, which stays
// the caller's until the next claim reaches it; stalled reports a wait.
func (q *ring) pop() (s *frameSlot, stalled bool) {
	s = q.at(0)
	if s.busy {
		select {
		case <-s.done:
		default:
			<-s.done
			stalled = true
		}
		s.busy = false
	}
	q.head, q.n = (q.head+1)%q.size, q.n-1
	return s, stalled
}
