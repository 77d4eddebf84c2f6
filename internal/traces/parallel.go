package traces

// The ordered block pool: the writer core's workers > 1 path.
//
// A block codec spends almost all of its CPU in the frame finisher —
// varint packing and dictionary lookups over a block of records, plus
// DEFLATE for the archival framing — and blocks are independent of each
// other by construction. blockPool exploits that: filled block
// accumulators are handed to a bounded worker pool for finishing while a
// single merger goroutine writes the frames back in strict submission
// order. It is the fleet engine's ordered-streaming pattern
// (internal/fleet/stream.go) applied to serialization: workers race, the
// output stream does not, so the bytes equal the inline path's for every
// worker count.
//
// Lifecycle: the writer core (codec.go) starts the pool's goroutines
// lazily, when it opens the first block, and drains them on every Flush —
// a flushed writer owns no goroutines, so RecordWriter consumers that
// only ever call Write/.../Flush never leak. The next block simply
// restarts the pool.

import (
	"compress/flate"
	"io"
	"sync"
)

// encJob carries one filled block accumulator through the worker pool.
type encJob struct {
	acc   *blockAccum
	frame []byte        // encoded frame; set by the worker before done closes
	done  chan struct{} // closed by the worker when frame is ready
}

// encScratch is per-worker encode state. The flate compressor is created
// lazily, only by framings that compress.
type encScratch struct {
	fw *flate.Writer
}

// blockPool encodes blocks on a bounded worker pool and writes the
// resulting frames to w in strict submission order. finish runs on a
// worker goroutine and must return frame bytes owned by the job's accum
// (valid until the accum is recycled); onFrame runs on the merger
// goroutine after each successful frame write, before the accum is
// reset — the same pair the writer core calls inline.
type blockPool struct {
	w       io.Writer
	workers int
	finish  func(st *encScratch, acc *blockAccum) []byte
	onFrame func(acc *blockAccum, frame []byte)

	// Accumulator free list: its capacity bounds the blocks in flight
	// (encoding, queued, or being filled), which bounds memory and
	// provides backpressure when encoding falls behind accumulation.
	free      chan *blockAccum
	allocated int

	running bool
	jobs    chan *encJob
	order   chan *encJob
	wg      sync.WaitGroup // workers
	mwg     sync.WaitGroup // merger

	mu  sync.Mutex
	err error // first write error, latched forever
}

func newBlockPool(w io.Writer, workers int,
	finish func(*encScratch, *blockAccum) []byte,
	onFrame func(*blockAccum, []byte)) *blockPool {

	return &blockPool{
		w: w, workers: workers, finish: finish, onFrame: onFrame,
		free: make(chan *blockAccum, workers+2),
	}
}

func (p *blockPool) loadErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *blockPool) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// start spins up the workers and the merger. Idempotent while running.
func (p *blockPool) start() {
	if p.running {
		return
	}
	// Channel capacity matches the accum pool, so submit never blocks:
	// backpressure happens in getAccum, where it is counted.
	p.jobs = make(chan *encJob, cap(p.free))
	p.order = make(chan *encJob, cap(p.free))
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	p.mwg.Add(1)
	go p.merge()
	p.running = true
}

func (p *blockPool) worker() {
	defer p.wg.Done()
	st := &encScratch{}
	for j := range p.jobs {
		j.frame = p.finish(st, j.acc)
		close(j.done)
	}
}

// merge writes frames in submission order; on a write error all later
// frames are skipped (the error is latched) but their accums are still
// recycled so producers never deadlock.
func (p *blockPool) merge() {
	defer p.mwg.Done()
	for j := range p.order {
		<-j.done
		if p.loadErr() == nil {
			if _, err := p.w.Write(j.frame); err != nil {
				p.setErr(err)
			} else {
				p.onFrame(j.acc, j.frame)
			}
		}
		j.acc.reset()
		p.free <- j.acc
	}
}

// getAccum returns a reset accumulator, blocking (and counting the stall)
// when every accumulator is in flight.
func (p *blockPool) getAccum() *blockAccum {
	select {
	case acc := <-p.free:
		return acc
	default:
	}
	if p.allocated < cap(p.free) {
		p.allocated++
		return &blockAccum{}
	}
	mParStalls.Inc()
	return <-p.free
}

// submit hands a filled accumulator to the pool. The caller must have
// called start and must not touch acc afterwards.
func (p *blockPool) submit(acc *blockAccum) {
	j := &encJob{acc: acc, done: make(chan struct{})}
	p.order <- j
	p.jobs <- j
}

// drain waits for every submitted block to be encoded and written, stops
// all pool goroutines, and returns the first write error. The pool can
// be started again afterwards.
func (p *blockPool) drain() error {
	if !p.running {
		return p.loadErr()
	}
	close(p.jobs)
	close(p.order)
	p.wg.Wait()
	p.mwg.Wait()
	p.running = false
	return p.loadErr()
}
