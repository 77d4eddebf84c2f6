package dropbox

import (
	"errors"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/tlssim"
)

// ClientConfig wires a Device into the simulation.
type ClientConfig struct {
	Sched    *simtime.Scheduler
	Rng      *simrand.Source
	Service  *Service
	Resolver *dnssim.Resolver
	Stack    *tcpsim.Stack // shared by all devices behind one IP (NAT)

	// Caps is the client's capability profile: a preset such as
	// capability.DropboxV1252 or any variation of one. Required; NewDevice
	// refuses a profile without a Name.
	Caps      capability.Profile
	Handshake tlssim.HandshakeConfig

	// ReactionMedian is the median client processing time between storage
	// operations (hashing, compression, disk). Zero uses 70 ms.
	ReactionMedian time.Duration
}

// TransferKind labels a completed synchronization direction.
type TransferKind int

// Transfer kinds.
const (
	TransferStore TransferKind = iota
	TransferRetrieve
)

func (k TransferKind) String() string {
	if k == TransferStore {
		return "store"
	}
	return "retrieve"
}

// TransferStats is ground truth reported after a sync transaction; the
// experiments compare the probe's inferences against it.
type TransferStats struct {
	Kind      TransferKind
	Chunks    int // chunks actually transferred (after dedup/LAN sync)
	Skipped   int // chunks avoided by dedup or LAN sync
	WireBytes int // compressed payload bytes moved
	Ops       int // storage operations issued
	Start     simtime.Time
	End       simtime.Time
}

// Device is one Dropbox client instance (a host_int).
type Device struct {
	Cfg     ClientConfig
	Host    HostID
	Account AccountID

	namespaces []NamespaceID
	cursors    map[NamespaceID]uint64
	have       map[chunker.Hash]struct{}

	// LANPeers are devices on the same LAN: chunks present on a peer are
	// fetched via the LAN Sync Protocol and never cross the probe
	// (Sec. 5.2). Nil disables LAN sync.
	LANPeers []*Device

	// OnTransferDone observes completed transactions.
	OnTransferDone func(TransferStats)

	online       bool
	rng          *simrand.Source
	storageNames []string
	nameIdx      int

	control  *rpcConn
	store    *rpcConn
	retrieve *rpcConn

	notifyConn *tcpsim.Conn
	notifyBuf  []byte

	// syncing serializes transactions per device.
	busy  bool
	queue []func()
}

// NewDevice provisions a device for an existing account and registers it in
// the metastore.
func NewDevice(cfg ClientConfig, account AccountID) (*Device, error) {
	if cfg.Caps.Name == "" {
		return nil, errors.New("dropbox: client capability profile has no name (start from a capability preset)")
	}
	if cfg.ReactionMedian == 0 {
		cfg.ReactionMedian = 70 * time.Millisecond
	}
	host, err := cfg.Service.Meta.LinkDevice(account)
	if err != nil {
		return nil, err
	}
	d := &Device{
		Cfg:        cfg,
		Host:       host,
		Account:    account,
		namespaces: cfg.Service.Meta.NamespacesOf(account),
		cursors:    make(map[NamespaceID]uint64),
		have:       make(map[chunker.Hash]struct{}),
		rng:        cfg.Rng.Fork("dev"),
	}
	return d, nil
}

// Caps returns the device's capability profile.
func (d *Device) Caps() capability.Profile { return d.Cfg.Caps }

// Namespaces returns the namespaces this device synchronizes.
func (d *Device) Namespaces() []NamespaceID { return d.namespaces }

// Online reports whether a session is active.
func (d *Device) Online() bool { return d.online }

// Has reports whether the device holds a chunk locally.
func (d *Device) Has(h chunker.Hash) bool {
	_, ok := d.have[h]
	return ok
}

// reaction samples the client-side inter-operation processing delay.
func (d *Device) reaction() time.Duration {
	return time.Duration(d.rng.LogNormalMedian(float64(d.Cfg.ReactionMedian), 0.5))
}

// Start opens a session: register with the control plane, start the
// notification long-poll, and run the first synchronization (the paper
// observes start-up retrieves dominating, Sec. 5.4).
func (d *Device) Start() {
	if d.online {
		return
	}
	d.online = true
	d.controlCall(MsgRegisterHost{Host: d.Host, Namespaces: d.namespaces}, 1, func(any) {
		if !d.online {
			return
		}
		d.startNotify()
		d.syncNow()
	})
}

// Stop ends the session, closing every connection.
func (d *Device) Stop() {
	if !d.online {
		return
	}
	d.online = false
	if d.notifyConn != nil {
		d.notifyConn.Abort()
		d.notifyConn = nil
	}
	for _, rc := range []*rpcConn{d.control, d.store, d.retrieve} {
		if rc != nil {
			rc.shutdown()
		}
	}
	d.control, d.store, d.retrieve = nil, nil, nil
	d.busy = false
	d.queue = nil
}

// ---------- notification long-poll ----------

func (d *Device) startNotify() {
	names := d.Cfg.Service.cfg.Dir.NotifyNames
	if len(names) == 0 {
		return
	}
	name := names[d.rng.Intn(len(names))]
	ip, ok := d.Cfg.Resolver.Resolve(d.Cfg.Sched.Now(), d.Cfg.Stack.Host.IP, name)
	if !ok {
		return
	}
	conn := d.Cfg.Stack.Dial(ip, 80)
	d.notifyConn = conn
	conn.OnEstablished = func() { d.sendNotifyRequest() }
	conn.OnRecv = func(data []byte, size int, push bool) {
		d.notifyBuf = append(d.notifyBuf, data...)
		resp, ok := ParseNotifyResponse(d.notifyBuf)
		if !ok {
			return
		}
		d.notifyBuf = nil
		if len(resp.Changed) > 0 {
			d.syncNow()
		}
		// Immediately re-poll ("after receiving it, the client immediately
		// sends a new request").
		if d.online && d.notifyConn == conn {
			d.sendNotifyRequest()
		}
	}
	reopen := func() {
		if d.online && d.notifyConn == conn {
			d.notifyConn = nil
			d.notifyBuf = nil
			// Notification connections are re-established immediately
			// after abrupt termination (Sec. 5.5).
			d.Cfg.Sched.After(100*time.Millisecond, func() {
				if d.online && d.notifyConn == nil {
					d.startNotify()
				}
			})
		}
	}
	conn.OnReset = reopen
	conn.OnPeerClose = func() {
		conn.Close()
		reopen()
	}
}

func (d *Device) sendNotifyRequest() {
	if d.notifyConn == nil {
		return
	}
	req := EncodeNotifyRequest(NotifyRequest{Host: d.Host, Namespaces: d.namespaces})
	d.notifyConn.Write(req, len(req), true)
}

// ---------- transaction serialization ----------

// enqueueTask runs fn when the device is idle, serializing transactions.
func (d *Device) enqueueTask(fn func()) {
	if d.busy {
		d.queue = append(d.queue, fn)
		return
	}
	d.busy = true
	fn()
}

func (d *Device) taskDone() {
	if len(d.queue) > 0 {
		next := d.queue[0]
		d.queue = d.queue[1:]
		next()
		return
	}
	d.busy = false
}

// ---------- upload path ----------

// Upload synchronizes new local content: refs are the file's chunks, wire
// maps a chunk size to its compressed transfer size. Batches of at most 100
// chunks run sequentially (Sec. 2.3.2).
func (d *Device) Upload(ns NamespaceID, refs []chunker.Ref, wireOf func(chunker.Ref) int, onDone func()) {
	if !d.online || len(refs) == 0 {
		if onDone != nil {
			onDone()
		}
		return
	}
	d.enqueueTask(func() {
		d.uploadBatches(ns, refs, wireOf, onDone)
	})
}

func (d *Device) uploadBatches(ns NamespaceID, refs []chunker.Ref, wireOf func(chunker.Ref) int, onDone func()) {
	if len(refs) == 0 || !d.online {
		d.taskDone()
		if onDone != nil {
			onDone()
		}
		return
	}
	n := len(refs)
	if n > MaxChunksPerBatch {
		n = MaxChunksPerBatch
	}
	batch := refs[:n]
	rest := refs[n:]
	d.uploadOneBatch(ns, batch, wireOf, func() {
		d.uploadBatches(ns, rest, wireOf, onDone)
	})
}

func (d *Device) uploadOneBatch(ns NamespaceID, batch []chunker.Ref, wireOf func(chunker.Ref) int, next func()) {
	start := d.Cfg.Sched.Now()
	d.controlCall(MsgCommitBatch{Host: d.Host, Namespace: ns, Refs: batch}, 1, func(resp any) {
		nb, _ := resp.(MsgNeedBlocks)
		missing := make(map[chunker.Hash]bool, len(nb.Missing))
		for _, h := range nb.Missing {
			missing[h] = true
		}
		var toSend []chunker.Ref
		skipped := 0
		for _, r := range batch {
			// Without dedup the need_blocks answer is ignored: every chunk
			// crosses the wire even when the server already has it.
			if !d.Cfg.Caps.Dedup || missing[r.Hash] {
				toSend = append(toSend, r)
			} else {
				skipped++
			}
		}
		stats := TransferStats{Kind: TransferStore, Skipped: skipped, Start: start}
		d.storeChunks(toSend, wireOf, &stats, func() {
			d.controlCall(MsgCloseChangeset{Host: d.Host, Namespace: ns, Refs: batch}, 1, func(resp any) {
				if done, ok := resp.(MsgCommitDone); ok {
					if done.Seq > d.cursors[ns] {
						d.cursors[ns] = done.Seq
					}
				}
				for _, r := range batch {
					d.have[r.Hash] = struct{}{}
				}
				stats.End = d.Cfg.Sched.Now()
				if d.OnTransferDone != nil {
					d.OnTransferDone(stats)
				}
				next()
			})
		})
	})
}

// nextStoreOp groups the head of refs into the next store operation per
// the capability profile: one chunk per operation without bundling; with
// bundling, small chunks pack up to the bundle target and a large chunk
// ends its bundle.
func (d *Device) nextStoreOp(refs []chunker.Ref, wireOf func(chunker.Ref) int) (op any, opWire, consumed int) {
	if d.Cfg.Caps.Bundling {
		target := d.Cfg.Caps.BundleTarget()
		var bundle []chunker.Ref
		total := 0
		for _, r := range refs {
			w := wireOf(r)
			if len(bundle) > 0 && (total+w > target) {
				break
			}
			bundle = append(bundle, r)
			total += w
			consumed++
			if w >= target/4 {
				break // big chunks end a bundle
			}
		}
		if len(bundle) == 1 {
			op = MsgStore{Ref: bundle[0], WireSize: total}
		} else {
			op = MsgStoreBatch{Refs: append([]chunker.Ref(nil), bundle...), WireSize: total}
		}
		return op, StoreClientOverhead + total, consumed
	}
	r := refs[0]
	w := wireOf(r)
	return MsgStore{Ref: r, WireSize: w}, StoreClientOverhead + w, 1
}

// storeChunks issues store operations sequentially: one per chunk for
// 1.2.52-style profiles, bundled when the profile enables it. Each
// operation waits for the previous OK — the per-chunk acknowledgment
// bottleneck of Sec. 4.4.2 — unless the profile pipelines commits.
func (d *Device) storeChunks(refs []chunker.Ref, wireOf func(chunker.Ref) int, stats *TransferStats, next func()) {
	if len(refs) == 0 {
		next()
		return
	}
	if d.Cfg.Caps.CommitPipelining {
		d.storeChunksPipelined(refs, wireOf, stats, next)
		return
	}
	op, opWire, consumed := d.nextStoreOp(refs, wireOf)
	stats.Ops++
	stats.Chunks += consumed
	for _, r := range refs[:consumed] {
		stats.WireBytes += wireOf(r)
	}
	d.storageCall(true, op, opWire, 1, func(any) {
		rest := refs[consumed:]
		if len(rest) == 0 {
			next()
			return
		}
		// Client reaction time between chunks.
		d.Cfg.Sched.After(d.reaction(), func() {
			d.storeChunks(rest, wireOf, stats, next)
		})
	})
}

// storeChunksPipelined issues every store operation without waiting for
// acknowledgments: operations go out back to back (client reaction time
// between issues, modelling hashing/compression), responses drain
// asynchronously, and the transaction completes when the last OK arrives.
func (d *Device) storeChunksPipelined(refs []chunker.Ref, wireOf func(chunker.Ref) int, stats *TransferStats, next func()) {
	type pendOp struct {
		op   any
		wire int
	}
	var ops []pendOp
	for len(refs) > 0 {
		op, opWire, consumed := d.nextStoreOp(refs, wireOf)
		stats.Ops++
		stats.Chunks += consumed
		for _, r := range refs[:consumed] {
			stats.WireBytes += wireOf(r)
		}
		ops = append(ops, pendOp{op, opWire})
		refs = refs[consumed:]
	}
	outstanding := len(ops)
	onAck := func(any) {
		outstanding--
		if outstanding == 0 {
			next()
		}
	}
	var issue func(i int)
	issue = func(i int) {
		d.storageCall(true, ops[i].op, ops[i].wire, 1, onAck)
		if i+1 < len(ops) {
			d.Cfg.Sched.After(d.reaction(), func() { issue(i + 1) })
		}
	}
	issue(0)
}

// ---------- download path ----------

// syncNow lists all namespaces and retrieves missing chunks.
func (d *Device) syncNow() {
	if !d.online {
		return
	}
	d.enqueueTask(func() {
		cursors := make(map[NamespaceID]uint64, len(d.namespaces))
		for _, ns := range d.namespaces {
			cursors[ns] = d.cursors[ns]
		}
		d.controlCall(MsgList{Host: d.Host, Cursors: cursors}, 1, func(resp any) {
			lr, _ := resp.(MsgListResp)
			if len(lr.StorageNames) > 0 {
				d.storageNames = lr.StorageNames
			}
			var want []chunker.Ref
			wireHints := make(map[chunker.Hash]int)
			for ns, entries := range lr.Updates {
				for _, e := range entries {
					if e.Seq > d.cursors[ns] {
						d.cursors[ns] = e.Seq
					}
					totalSize := 0
					for _, r := range e.Refs {
						totalSize += r.Size
					}
					for _, r := range e.Refs {
						if _, ok := d.have[r.Hash]; ok {
							continue
						}
						if d.lanFetch(r.Hash) {
							continue
						}
						want = append(want, r)
						if totalSize > 0 && e.WireHint > 0 {
							wireHints[r.Hash] = int(e.WireHint * float64(r.Size) / float64(totalSize))
						}
					}
				}
			}
			if len(want) == 0 {
				d.taskDone()
				return
			}
			stats := TransferStats{Kind: TransferRetrieve, Start: d.Cfg.Sched.Now()}
			d.retrieveChunks(want, &stats, func() {
				stats.End = d.Cfg.Sched.Now()
				if d.OnTransferDone != nil {
					d.OnTransferDone(stats)
				}
				d.taskDone()
			})
		})
	})
}

// lanFetch pulls a chunk from a same-LAN peer if one has it; that traffic
// never crosses the probe.
func (d *Device) lanFetch(h chunker.Hash) bool {
	for _, p := range d.LANPeers {
		if p != d && p.Has(h) {
			d.have[h] = struct{}{}
			return true
		}
	}
	return false
}

// nextRetrieveOp groups the head of refs into the next retrieve operation
// per the capability profile; reqExtra is the request-size growth of a
// multi-hash batch request.
func (d *Device) nextRetrieveOp(refs []chunker.Ref) (op any, reqExtra, consumed int) {
	if d.Cfg.Caps.Bundling {
		target := d.Cfg.Caps.BundleTarget()
		n := 0
		total := 0
		for _, r := range refs {
			if n > 0 && total+r.Size > target {
				break
			}
			n++
			total += r.Size
			if r.Size >= target/4 {
				break
			}
		}
		if n == 1 {
			return MsgRetrieve{Hash: refs[0].Hash}, 0, 1
		}
		hashes := make([]chunker.Hash, n)
		for i := 0; i < n; i++ {
			hashes[i] = refs[i].Hash
		}
		return MsgRetrieveBatch{Hashes: hashes}, 32 * (n - 1), n
	}
	return MsgRetrieve{Hash: refs[0].Hash}, 0, 1
}

// retrieveChunks fetches chunks sequentially; 1.2.52-style profiles send
// one retrieve per chunk as two PSH-marked writes (Fig. 19b), bundling
// profiles batch, and pipelining profiles issue every request up front.
func (d *Device) retrieveChunks(refs []chunker.Ref, stats *TransferStats, next func()) {
	if len(refs) == 0 {
		next()
		return
	}
	if d.Cfg.Caps.CommitPipelining {
		d.retrieveChunksPipelined(refs, stats, next)
		return
	}
	reqSize := RetrieveClientOverheadMin + d.rng.Intn(RetrieveClientOverheadMax-RetrieveClientOverheadMin)
	op, reqExtra, consumed := d.nextRetrieveOp(refs)
	reqSize += reqExtra
	stats.Ops++
	d.storageCall(false, op, reqSize, 2, func(resp any) {
		data, _ := resp.(MsgRetrieveData)
		for _, r := range data.Refs {
			d.have[r.Hash] = struct{}{}
		}
		stats.Chunks += len(data.Refs)
		stats.WireBytes += data.WireSize
		rest := refs[consumed:]
		if len(rest) == 0 {
			next()
			return
		}
		d.Cfg.Sched.After(d.reaction(), func() {
			d.retrieveChunks(rest, stats, next)
		})
	})
}

// retrieveChunksPipelined issues every retrieve request without waiting
// for responses; chunk data is credited as each response arrives (response
// payloads identify their chunks, so ordering does not matter).
func (d *Device) retrieveChunksPipelined(refs []chunker.Ref, stats *TransferStats, next func()) {
	type pendOp struct {
		op  any
		req int
	}
	var ops []pendOp
	for len(refs) > 0 {
		reqSize := RetrieveClientOverheadMin + d.rng.Intn(RetrieveClientOverheadMax-RetrieveClientOverheadMin)
		op, reqExtra, consumed := d.nextRetrieveOp(refs)
		stats.Ops++
		ops = append(ops, pendOp{op, reqSize + reqExtra})
		refs = refs[consumed:]
	}
	outstanding := len(ops)
	onData := func(resp any) {
		data, _ := resp.(MsgRetrieveData)
		for _, r := range data.Refs {
			d.have[r.Hash] = struct{}{}
		}
		stats.Chunks += len(data.Refs)
		stats.WireBytes += data.WireSize
		outstanding--
		if outstanding == 0 {
			next()
		}
	}
	var issue func(i int)
	issue = func(i int) {
		d.storageCall(false, ops[i].op, ops[i].req, 2, onData)
		if i+1 < len(ops) {
			d.Cfg.Sched.After(d.reaction(), func() { issue(i + 1) })
		}
	}
	issue(0)
}

// ---------- RPC connections ----------

// rpcCall is one serialized request awaiting its response.
type rpcCall struct {
	meta    any
	size    int
	parts   int
	done    func(resp any)
	retries int
}

// pipelineDepth bounds in-flight operations on a pipelined storage
// connection — deep enough that the window never stalls a transaction.
const pipelineDepth = 64

// rpcConn is a TLS connection carrying request/response exchanges. With
// maxInflight <= 1 (the historical clients) requests serialize: each waits
// for the previous response. Pipelining profiles raise maxInflight so
// several requests ride the connection at once; responses pop the pending
// queue FIFO.
type rpcConn struct {
	dev         *Device
	sess        *tlssim.Session
	established bool
	closed      bool
	pending     []*rpcCall
	sendQueue   []*rpcCall
	maxInflight int
	kind        string
}

// controlCall issues a meta-data request, transparently (re)opening the
// control connection.
func (d *Device) controlCall(meta any, parts int, done func(any)) {
	if d.control == nil || d.control.closed {
		d.control = d.dialRPC("control")
	}
	if d.control == nil {
		if done != nil {
			done(MsgOK{})
		}
		return
	}
	d.control.issue(&rpcCall{meta: meta, size: ControlMsgSize(meta), parts: parts, done: done})
}

// storageCall issues a storage operation on the store or retrieve
// connection (kept separate so parallel directions use parallel flows).
func (d *Device) storageCall(isStore bool, meta any, size, parts int, done func(any)) {
	slot := &d.retrieve
	kind := "retrieve"
	if isStore {
		slot = &d.store
		kind = "store"
	}
	if *slot == nil || (*slot).closed {
		*slot = d.dialRPC(kind)
	}
	if *slot == nil {
		if done != nil {
			done(MsgOK{})
		}
		return
	}
	(*slot).issue(&rpcCall{meta: meta, size: size, parts: parts, done: done})
}

// dialRPC opens a TLS connection to the right server for the kind.
func (d *Device) dialRPC(kind string) *rpcConn {
	var name string
	switch kind {
	case "control":
		// client-lb load balancer name (Sec. 2.3.2).
		name = "client-lb.dropbox.com"
	default:
		name = d.nextStorageName()
	}
	ip, ok := d.Cfg.Resolver.Resolve(d.Cfg.Sched.Now(), d.Cfg.Stack.Host.IP, name)
	if !ok {
		return nil
	}
	conn := d.Cfg.Stack.Dial(ip, 443)
	sess := tlssim.NewClient(conn, name, d.Cfg.Handshake)
	d.Cfg.Service.RegisterPending(conn.LocalEndpoint(), sess)
	rc := &rpcConn{dev: d, sess: sess, kind: kind}
	if kind != "control" && d.Cfg.Caps.CommitPipelining {
		rc.maxInflight = pipelineDepth
	}
	sess.OnEstablished = func() {
		rc.established = true
		rc.pump()
	}
	sess.OnMessage = func(meta any, size int) {
		if len(rc.pending) == 0 {
			return
		}
		call := rc.pending[0]
		rc.pending = rc.pending[1:]
		if call.done != nil {
			call.done(meta)
		}
		rc.pump()
	}
	fail := func() {
		rc.closed = true
		rc.retryPending()
	}
	sess.OnReset = fail
	sess.OnPeerAlert = func() {} // server idle close incoming
	sess.OnPeerClose = func() {
		// Fig. 19: client answers the server's alert+FIN with a RST.
		rc.closed = true
		sess.Abort()
		rc.retryPending()
	}
	return rc
}

// nextStorageName rotates through the alias list received from the control
// plane (Sec. 2.4).
func (d *Device) nextStorageName() string {
	if len(d.storageNames) == 0 {
		// Before the first list response, fall back to a random alias.
		names := d.Cfg.Service.cfg.Dir.StorageNames
		return names[d.rng.Intn(len(names))]
	}
	name := d.storageNames[d.nameIdx%len(d.storageNames)]
	d.nameIdx++
	return name
}

func (rc *rpcConn) issue(call *rpcCall) {
	rc.sendQueue = append(rc.sendQueue, call)
	rc.pump()
}

func (rc *rpcConn) pump() {
	limit := rc.maxInflight
	if limit < 1 {
		limit = 1
	}
	for rc.established && !rc.closed && len(rc.pending) < limit && len(rc.sendQueue) > 0 {
		call := rc.sendQueue[0]
		rc.sendQueue = rc.sendQueue[1:]
		rc.pending = append(rc.pending, call)
		rc.sess.SendParts(call.meta, call.size, call.parts)
	}
}

// retryPending re-dials and reissues interrupted calls (bounded retries).
func (rc *rpcConn) retryPending() {
	d := rc.dev
	calls := rc.sendQueue
	rc.sendQueue = nil
	if len(rc.pending) > 0 {
		calls = append(append([]*rpcCall(nil), rc.pending...), calls...)
		rc.pending = nil
	}
	if !d.online || len(calls) == 0 {
		for _, c := range calls {
			if c.done != nil {
				c.done(MsgOK{})
			}
		}
		return
	}
	var live []*rpcCall
	for _, c := range calls {
		c.retries++
		if c.retries <= 3 {
			live = append(live, c)
		} else if c.done != nil {
			c.done(MsgOK{})
		}
	}
	if len(live) == 0 {
		return
	}
	next := d.dialRPC(rc.kind)
	if next == nil {
		for _, c := range live {
			if c.done != nil {
				c.done(MsgOK{})
			}
		}
		return
	}
	switch rc.kind {
	case "control":
		d.control = next
	case "store":
		d.store = next
	case "retrieve":
		d.retrieve = next
	}
	for _, c := range live {
		next.issue(c)
	}
}

func (rc *rpcConn) shutdown() {
	if rc.closed {
		return
	}
	rc.closed = true
	rc.sess.Abort()
}
