package dropbox

import (
	"time"

	"insidedropbox/internal/chunker"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/wire"
)

// ServiceConfig wires a Service into a simulation.
type ServiceConfig struct {
	Sched *simtime.Scheduler
	Net   *netem.Network
	Rng   *simrand.Source
	Dir   *dnssim.Directory

	// ServerIW is the server stacks' initial window in segments: the knob
	// the paper saw tuned with the 1.4.0 deployment (Appendix A.4).
	ServerIW int
}

// Service is the whole Dropbox-plus-Amazon backend: every server host from
// the DNS directory, listening and serving.
type Service struct {
	cfg  ServiceConfig
	Meta *Metastore
	rng  *simrand.Source

	// pairing connects the two tlssim endpoints of an in-flight dial.
	pairing map[wire.Endpoint]*tlssim.Session

	// wireSize remembers the compressed transfer size of stored chunks so
	// retrieves send the same byte counts.
	wireSize map[chunker.Hash]int

	notify *notifyState

	// nameCursor rotates which slice of storage names each list response
	// advertises.
	nameCursor int

	// Trace, when set, receives every protocol message the servers
	// receive — the equivalent of the paper's decrypting-proxy testbed
	// (Sec. 2.2); server names the subsystem ("control" or "storage").
	Trace func(server string, meta any)
}

// NewService builds all server hosts and listeners.
func NewService(cfg ServiceConfig) *Service {
	s := &Service{
		cfg:      cfg,
		Meta:     NewMetastore(),
		rng:      cfg.Rng.Fork("service"),
		pairing:  make(map[wire.Endpoint]*tlssim.Session),
		wireSize: make(map[chunker.Hash]int),
	}
	s.notify = newNotifyState(s)
	s.Meta.OnJournalAdvance = s.notify.journalAdvanced

	for _, name := range cfg.Dir.MetaNames {
		for _, ip := range cfg.Dir.Pool(name) {
			s.ensureHost(ip, dnssim.DropboxDC, s.acceptControl)
		}
	}
	for _, name := range cfg.Dir.NotifyNames {
		for _, ip := range cfg.Dir.Pool(name) {
			s.ensureNotifyHost(ip)
		}
	}
	for _, name := range cfg.Dir.StorageNames {
		for _, ip := range cfg.Dir.Pool(name) {
			s.ensureHost(ip, dnssim.AmazonDC, s.acceptStorage)
		}
	}
	// Remaining Amazon/Dropbox names (web, api, logs) are served by simple
	// storage-style endpoints; the workload model generates their traffic
	// at flow level, but the hosts exist so packet-level tests can reach
	// them.
	for _, name := range []string{"www.dropbox.com", "api.dropbox.com", "d.dropbox.com",
		"dl.dropbox.com", "dl-web.dropbox.com", "api-content.dropbox.com", "dl-debug1.dropbox.com"} {
		for _, ip := range cfg.Dir.Pool(name) {
			s.ensureHost(ip, cfg.Dir.DataCenter(ip), s.acceptStorage)
		}
	}
	return s
}

func (s *Service) ensureHost(ip wire.IP, site string, accept func(*tcpsim.Conn)) {
	if s.cfg.Net.Host(ip) != nil {
		return
	}
	h := s.cfg.Net.AddHost(ip, netem.SiteID(site), storageAccess())
	st := tcpsim.NewStack(h, s.cfg.Sched, s.rng, s.cfg.ServerIW)
	st.Listen(443, accept)
}

func (s *Service) ensureNotifyHost(ip wire.IP) {
	if s.cfg.Net.Host(ip) != nil {
		return
	}
	h := s.cfg.Net.AddHost(ip, netem.SiteID(dnssim.DropboxDC), netem.DataCenter())
	st := tcpsim.NewStack(h, s.cfg.Sched, s.rng, s.cfg.ServerIW)
	st.Listen(80, s.notify.accept)
}

// storageAccess rate-limits each storage front-end to ~10 Mbit/s per
// server in both directions, matching the ceiling the paper observed ("the
// highest observed throughput, close to 10 Mbits/s", Sec. 4.4).
func storageAccess() netem.AccessProfile {
	return netem.AccessProfile{UpRate: 1.25e6, DownRate: 1.25e6, Delay: 100 * time.Microsecond}
}

// SeedChunk pre-populates the storage back-end with a chunk and its
// compressed transfer size — used by experiment labs to stage content for
// retrieve-side measurements without a full upload pass.
func (s *Service) SeedChunk(ref chunker.Ref, wireSize int) {
	s.Meta.StoreChunk(ref)
	s.wireSize[ref.Hash] = wireSize
}

// RegisterPending is called by clients right after dialing: it lets the
// accepting server pair the TLS side channels.
func (s *Service) RegisterPending(local wire.Endpoint, sess *tlssim.Session) {
	s.pairing[local] = sess
}

func (s *Service) pairServer(conn *tcpsim.Conn, server *tlssim.Session) bool {
	client, ok := s.pairing[conn.RemoteEndpoint()]
	if !ok {
		return false
	}
	delete(s.pairing, conn.RemoteEndpoint())
	tlssim.Pair(client, server)
	return true
}

// ---------- control servers ----------

func (s *Service) acceptControl(conn *tcpsim.Conn) {
	sess := tlssim.NewServer(conn, "*.dropbox.com")
	if !s.pairServer(conn, sess) {
		conn.Abort()
		return
	}
	var idle simtime.EventID
	resetIdle := func() {
		idle.Cancel()
		idle = s.cfg.Sched.After(ControlIdleTimeout, func() {
			sess.CloseNotify()
		})
	}
	resetIdle()
	sess.OnMessage = func(meta any, size int) {
		resetIdle()
		s.cfg.Sched.After(Reaction(s.rng, ServerReactionMedian), func() {
			s.handleControl(sess, meta)
			resetIdle()
		})
	}
	sess.OnClosed = func() { idle.Cancel() }
	sess.OnReset = func() { idle.Cancel() }
}

func (s *Service) trace(server string, meta any) {
	if s.Trace != nil {
		s.Trace(server, meta)
	}
}

func (s *Service) handleControl(sess *tlssim.Session, meta any) {
	s.trace("control", meta)
	switch m := meta.(type) {
	case MsgRegisterHost:
		reply(sess, MsgRegisterOK{})
	case MsgList:
		resp := MsgListResp{Updates: s.Meta.UpdatesSince(m.Namespace, m.Cursor), Wires: make(map[chunker.Hash]int)}
		for _, e := range resp.Updates {
			for _, r := range e.Refs {
				resp.Wires[r.Hash] = s.chunkWire(r.Hash)
			}
		}
		resp.StorageNames = s.storageNameSlice()
		reply(sess, resp)
	case MsgCommitBatch:
		missing := s.Meta.NeedBlocks(m.Refs)
		reply(sess, MsgNeedBlocks{Missing: missing})
	case MsgCloseChangeset:
		// Committing with a path derived from the host keeps journal
		// entries distinct without a full file-tree model.
		seq, err := s.Meta.Commit(m.Namespace, commitPath(m.Host), m.Refs)
		if err != nil {
			reply(sess, MsgOK{}) // commit of unknown namespace: tolerate
			return
		}
		reply(sess, MsgCommitDone{Seq: seq})
	default:
		reply(sess, MsgOK{})
	}
}

// MsgCommitDone acknowledges close_changeset with the committed sequence so
// the uploader can advance its cursor past its own entry. (Simplification:
// concurrent commits by other devices between a client's list and commit
// are picked up by the next notification cycle.)
type MsgCommitDone struct{ Seq uint64 }

func commitPath(h HostID) string {
	return "f" + string(rune('a'+int(h%26))) + "/upload"
}

func (s *Service) storageNameSlice() []string {
	names := s.cfg.Dir.StorageNames
	k := min(StorageNamesPerClient, len(names))
	out := make([]string, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, names[(s.nameCursor+i)%len(names)])
	}
	s.nameCursor = (s.nameCursor + k) % len(names)
	return out
}

func reply(sess *tlssim.Session, m any) {
	sess.Send(m, ControlMsgSize(m))
}

// ---------- storage servers ----------

func (s *Service) acceptStorage(conn *tcpsim.Conn) {
	sess := tlssim.NewServer(conn, "*.dropbox.com")
	if !s.pairServer(conn, sess) {
		conn.Abort()
		return
	}
	// Fig. 19: the server closes a storage connection that stayed quiet for
	// StorageIdleTimeout with an SSL alert followed by FIN. Quiet means no
	// bytes arriving and none of the server's own awaiting their ACK, so
	// the clock never runs while a request is processed or a response
	// drains, however slow the client's link.
	var idle simtime.EventID
	closed := false
	resetIdle := func() {
		idle.Cancel()
		idle = s.cfg.Sched.After(StorageIdleTimeout, sess.CloseNotify)
	}
	resetIdle()
	// Any inbound bytes count as activity: a 60 s timer must not sever a
	// slow upload in progress, only truly idle connections. Rearming is
	// throttled to once per second to keep scheduler churn low.
	var lastArm simtime.Time
	sess.OnActivity = func() {
		if closed {
			return
		}
		if now := s.cfg.Sched.Now(); now.Sub(lastArm) >= time.Second {
			lastArm = now
			resetIdle()
		}
	}
	// So does the ACK that leaves a response fully delivered.
	conn.OnDrained = resetIdle
	sess.OnMessage = func(meta any, size int) {
		if closed {
			return
		}
		idle.Cancel()
		s.cfg.Sched.After(Reaction(s.rng, ServerReactionMedian), func() {
			if closed {
				return
			}
			s.handleStorage(sess, meta)
			idle.Cancel() // until the response is acknowledged
		})
	}
	sess.OnClosed = func() { closed = true; idle.Cancel() }
	sess.OnReset = func() { closed = true; idle.Cancel() }
}

func (s *Service) handleStorage(sess *tlssim.Session, meta any) {
	s.trace("storage", meta)
	switch m := meta.(type) {
	case MsgStore:
		s.Meta.StoreChunk(m.Ref)
		s.wireSize[m.Ref.Hash] = m.WireSize
		sess.Send(MsgStoreOK{}, ServerOpOverhead)
	case MsgStoreBatch:
		for i, r := range m.Refs {
			s.Meta.StoreChunk(r)
			s.wireSize[r.Hash] = m.Wires[i]
		}
		sess.Send(MsgStoreOK{}, ServerOpOverhead)
	case MsgRetrieve:
		ref := chunker.Ref{Hash: m.Hash, Size: s.Meta.ChunkSize(m.Hash)}
		sess.Send(MsgRetrieveData{Refs: []chunker.Ref{ref}}, ServerOpOverhead+s.chunkWire(m.Hash))
	case MsgRetrieveBatch:
		total := 0
		refs := make([]chunker.Ref, 0, len(m.Hashes))
		for _, h := range m.Hashes {
			total += s.chunkWire(h)
			refs = append(refs, chunker.Ref{Hash: h, Size: s.Meta.ChunkSize(h)})
		}
		sess.Send(MsgRetrieveData{Refs: refs}, ServerOpOverhead+total)
	}
}

// chunkWire returns the compressed size a stored chunk moves on a
// retrieve: what its upload (or SeedChunk) sent, else its raw size.
func (s *Service) chunkWire(h chunker.Hash) int {
	if w, ok := s.wireSize[h]; ok {
		return w
	}
	return s.Meta.ChunkSize(h)
}
