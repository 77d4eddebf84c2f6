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
	"insidedropbox/internal/wire"
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
	Caps capability.Profile
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

// Has reports whether the device holds a chunk locally.
func (d *Device) Has(h chunker.Hash) bool {
	_, ok := d.have[h]
	return ok
}

// Start opens a session: register with the control plane, start the
// notification long-poll, and run the first synchronization (the paper
// observes start-up retrieves dominating, Sec. 5.4).
func (d *Device) Start() {
	if d.online {
		return
	}
	d.online = true
	d.controlCall(MsgRegisterHost{Host: d.Host, Namespaces: d.namespaces}, func(any) {
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
	ns := make([]uint32, len(d.namespaces))
	for i, id := range d.namespaces {
		ns[i] = uint32(id)
	}
	req := wire.EncodeNotifyRequest(wire.NotifyRequest{Host: uint64(d.Host), Namespaces: ns})
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

// Upload synchronizes new local content: refs are the file's chunks, wireOf
// maps a chunk to its compressed transfer size. The transfer plan's
// batches (PlanTransfer) run sequentially, each its own transaction.
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
	n := 0
	for _, op := range PlanTransfer(nil, d.Cfg.Caps, wiresOf(refs, wireOf)) {
		if op.EndsBatch {
			n = op.First + op.Chunks
			break
		}
	}
	batch := refs[:n]
	rest := refs[n:]
	d.uploadOneBatch(ns, batch, wireOf, func() {
		d.uploadBatches(ns, rest, wireOf, onDone)
	})
}

func (d *Device) uploadOneBatch(ns NamespaceID, batch []chunker.Ref, wireOf func(chunker.Ref) int, next func()) {
	start := d.Cfg.Sched.Now()
	d.controlCall(MsgCommitBatch{Host: d.Host, Namespace: ns, Refs: batch}, func(resp any) {
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
			d.controlCall(MsgCloseChangeset{Host: d.Host, Namespace: ns, Refs: batch}, func(resp any) {
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

// wiresOf lists the compressed transfer size of each ref.
func wiresOf(refs []chunker.Ref, wireOf func(chunker.Ref) int) []int {
	wires := make([]int, len(refs))
	for i, r := range refs {
		wires[i] = wireOf(r)
	}
	return wires
}

// storeChunks sends refs as the store operations of their plan: one chunk
// per store for 1.2.52-style profiles, a store_batch for each bundle of
// several chunks when the profile bundles.
func (d *Device) storeChunks(refs []chunker.Ref, wireOf func(chunker.Ref) int, stats *TransferStats, done func()) {
	if len(refs) == 0 {
		done()
		return
	}
	wires := wiresOf(refs, wireOf)
	ops := PlanTransfer(nil, d.Cfg.Caps, wires)
	d.transfer(true, func() (any, int, bool) {
		op := ops[0]
		ops = ops[1:]
		end := op.First + op.Chunks
		var msg any = MsgStore{Ref: refs[op.First], WireSize: op.Wire}
		if op.Chunks > 1 {
			msg = MsgStoreBatch{Refs: refs[op.First:end], Wires: wires[op.First:end]}
		}
		stats.Ops++
		stats.Chunks += op.Chunks
		stats.WireBytes += op.Wire
		return msg, StoreClientOverhead + op.Wire, len(ops) > 0
	}, nil, done)
}

// transfer runs the storage operations of one transaction. next builds
// the next operation (its message and request size) and reports whether
// more follow, before the operation is sent: a call that cannot reach its
// server is answered at once. onResp, when set, credits each response.
//
// Under a sequential profile each operation waits for the previous
// response plus a client reaction time: the per-chunk acknowledgment
// bottleneck of Sec. 4.4.2. Under CommitPipelining operations go out one
// reaction time apart (hashing, compression) and responses drain
// asynchronously. done runs once every operation has its response, in
// whatever order they arrive.
func (d *Device) transfer(isStore bool, next func() (op any, size int, more bool), onResp func(any), done func()) {
	pipelined := d.Cfg.Caps.CommitPipelining
	outstanding, issuedAll := 0, false
	var issue func()
	issue = func() {
		op, size, more := next()
		outstanding++
		issuedAll = !more
		d.storageCall(isStore, op, size, func(resp any) {
			if onResp != nil {
				onResp(resp)
			}
			outstanding--
			if issuedAll && outstanding == 0 {
				done()
			} else if more && !pipelined {
				d.Cfg.Sched.After(Reaction(d.rng, ClientReactionMedian), issue)
			}
		})
		if more && pipelined {
			d.Cfg.Sched.After(Reaction(d.rng, ClientReactionMedian), issue)
		}
	}
	issue()
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
		d.controlCall(MsgList{Host: d.Host, Cursors: cursors}, func(resp any) {
			lr, _ := resp.(MsgListResp)
			if len(lr.StorageNames) > 0 {
				d.storageNames = lr.StorageNames
			}
			var want []chunker.Ref
			for ns, entries := range lr.Updates {
				for _, e := range entries {
					if e.Seq > d.cursors[ns] {
						d.cursors[ns] = e.Seq
					}
					for _, r := range e.Refs {
						if _, ok := d.have[r.Hash]; ok {
							continue
						}
						if d.lanFetch(r.Hash) {
							continue
						}
						want = append(want, r)
					}
				}
			}
			d.download(want, func(r chunker.Ref) int { return lr.Wires[r.Hash] }, nil)
		})
	})
}

// Download retrieves refs from storage as one transaction, queued behind
// any transaction in progress, and runs onDone when it ends. wireOf maps a
// chunk to its compressed transfer size, which the retrieve plan groups
// on. Unlike a sync it fetches every ref it is given: labs use it to
// measure retrieve flows of chunks staged with Service.SeedChunk.
func (d *Device) Download(refs []chunker.Ref, wireOf func(chunker.Ref) int, onDone func()) {
	if !d.online {
		if onDone != nil {
			onDone()
		}
		return
	}
	d.enqueueTask(func() { d.download(refs, wireOf, onDone) })
}

// download runs one retrieve transaction inside the device's task slot:
// it fetches refs, reports the transfer, frees the slot and runs onDone.
func (d *Device) download(refs []chunker.Ref, wireOf func(chunker.Ref) int, onDone func()) {
	finish := func() {
		d.taskDone()
		if onDone != nil {
			onDone()
		}
	}
	if len(refs) == 0 {
		finish()
		return
	}
	stats := TransferStats{Kind: TransferRetrieve, Start: d.Cfg.Sched.Now()}
	d.retrieveChunks(refs, wireOf, &stats, func() {
		stats.End = d.Cfg.Sched.Now()
		if d.OnTransferDone != nil {
			d.OnTransferDone(stats)
		}
		finish()
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

// retrieveChunks fetches refs as the retrieve operations of their plan:
// one chunk per retrieve for 1.2.52-style profiles, a retrieve_batch for
// each bundle of several chunks when the profile bundles. Every request
// goes out as two PSH-marked writes (Fig. 19b).
func (d *Device) retrieveChunks(refs []chunker.Ref, wireOf func(chunker.Ref) int, stats *TransferStats, done func()) {
	ops := PlanTransfer(nil, d.Cfg.Caps, wiresOf(refs, wireOf))
	d.transfer(false, func() (any, int, bool) {
		size := RetrieveRequestSize(d.rng)
		op := ops[0]
		ops = ops[1:]
		var msg any = MsgRetrieve{Hash: refs[op.First].Hash}
		if op.Chunks > 1 {
			hashes := make([]chunker.Hash, op.Chunks)
			for i := range hashes {
				hashes[i] = refs[op.First+i].Hash
			}
			msg = MsgRetrieveBatch{Hashes: hashes}
		}
		stats.Ops++
		return msg, size, len(ops) > 0
	}, func(resp any) {
		data, _ := resp.(MsgRetrieveData)
		for _, r := range data.Refs {
			d.have[r.Hash] = struct{}{}
		}
		stats.Chunks += len(data.Refs)
		stats.WireBytes += data.WireSize
	}, done)
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
func (d *Device) controlCall(meta any, done func(any)) {
	if d.control == nil || d.control.closed {
		d.control = d.dialRPC("control")
	}
	if d.control == nil {
		if done != nil {
			done(MsgOK{})
		}
		return
	}
	d.control.issue(&rpcCall{meta: meta, size: ControlMsgSize(meta), parts: 1, done: done})
}

// storageCall issues a storage operation on the store or retrieve
// connection (kept separate so parallel directions use parallel flows). A
// store goes out as one write, a retrieve request as two (Fig. 19b).
func (d *Device) storageCall(isStore bool, meta any, size int, done func(any)) {
	slot, kind, parts := &d.retrieve, "retrieve", 2
	if isStore {
		slot, kind, parts = &d.store, "store", 1
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
	sess := tlssim.NewClient(conn, name)
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
