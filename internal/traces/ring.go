package traces

// The ordered slot ring, the one executor of every codec. Blocks are
// independent by construction, and so are the row-aligned chunks of a CSV
// stream, so each one is finished (encode, compress) or decoded (inflate,
// decodeBody, parse) in a slot of its own: the caller claims slots in
// stream order, starts each one's work inline or on a goroutine that ends
// with it, and takes them back oldest first. Only the caller touches the
// stream, so the bytes and records are the inline path's for every ring
// size, and a writer after its Flush or a reader dropped at any point owns
// no goroutine once its in-flight slots finish. One slot works every
// payload inline: the GOMAXPROCS=1 path.

import (
	"bytes"
	"compress/flate"
	"io"
)

// encScratch is a writer slot's finisher state: the flate compressor,
// created by the framings that compress.
type encScratch struct{ fw *flate.Writer }

// frameSlot is one frame on its way through a block codec's ring. The
// writer fills cols with a block and finishes frame from it; the reader
// slices the frame's bytes into payload and decodes cols from them.
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
}

// ring holds up to size payloads of type T in stream order; slots are
// created on first use and reused from then on.
type ring[T any] struct {
	size    int
	work    func(*T)
	slots   []*ringSlot[T]
	head, n int // the oldest claimed slot, and how many are claimed
}

// ringSlot is one payload and the bookkeeping of its work.
type ringSlot[T any] struct {
	v    T
	busy bool          // started on a goroutine and not yet waited for
	done chan struct{} // one send per payload its goroutine finished
	run  func()        // the ring's work on v, then that send
}

// ringSize gives workers one slot each plus the caller's; one worker or
// fewer is a single slot worked inline.
func ringSize(workers int) int {
	if workers <= 1 {
		return 1
	}
	return workers + 1
}

func (q *ring[T]) slot(i int) *ringSlot[T] { return q.slots[(q.head+i)%q.size] }

// at returns the i-th claimed payload, the oldest being 0.
func (q *ring[T]) at(i int) *T { return &q.slot(i).v }

// claim appends the next slot in stream order; the caller checks n < size.
func (q *ring[T]) claim() *T {
	if i := (q.head + q.n) % q.size; i == len(q.slots) {
		s := &ringSlot[T]{done: make(chan struct{}, 1)}
		s.run = func() { q.work(&s.v); s.done <- struct{}{} }
		q.slots = append(q.slots, s)
	}
	q.n++
	return q.at(q.n - 1)
}

// start works the i-th claimed payload inline, or on a goroutine that
// ends with it.
func (q *ring[T]) start(i int, inline bool) {
	s := q.slot(i)
	if inline {
		q.work(&s.v)
		return
	}
	s.busy = true
	go s.run()
}

// pop waits for the oldest slot's work and releases the slot, whose
// payload stays the caller's until the next claim reaches it; stalled
// reports a wait.
func (q *ring[T]) pop() (v *T, stalled bool) {
	s := q.slot(0)
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
	return &s.v, stalled
}
