package dropbox

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/wire"
)

// The server side of the cleartext notification long-poll (Sec. 2.3.1).
// Requests use wire's codec, which the client and the probe share; the
// response codec lives here because only the client and the server speak
// it.

// EncodeNotifyResponse renders the long-poll response.
func EncodeNotifyResponse(r NotifyResponse) []byte {
	var body strings.Builder
	body.WriteString(`{"ret":"punt","changed":[`)
	for i, ns := range r.Changed {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(strconv.FormatUint(uint64(ns), 10))
	}
	body.WriteString("]}")
	return []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", body.Len(), body.String()))
}

// ParseNotifyResponse recovers the changed-namespace list.
func ParseNotifyResponse(data []byte) (NotifyResponse, bool) {
	s := string(data)
	i := strings.Index(s, `"changed":[`)
	if i < 0 {
		return NotifyResponse{}, false
	}
	s = s[i+len(`"changed":["`)-1:]
	end := strings.IndexByte(s, ']')
	if end < 0 {
		return NotifyResponse{}, false
	}
	var resp NotifyResponse
	for _, part := range strings.Split(s[:end], ",") {
		if part == "" {
			continue
		}
		id, err := strconv.ParseUint(part, 10, 32)
		if err != nil {
			return NotifyResponse{}, false
		}
		resp.Changed = append(resp.Changed, NamespaceID(id))
	}
	return resp, true
}

// notifyState is the server side of the long-poll protocol, shared by all
// notification front-ends.
type notifyState struct {
	svc     *Service
	waiters map[*tcpsim.Conn]*notifyWaiter
	byNS    map[NamespaceID]map[*tcpsim.Conn]struct{}
	nextSeq uint64
}

type notifyWaiter struct {
	conn  *tcpsim.Conn
	req   wire.NotifyRequest
	timer simtime.EventID
	buf   []byte
	armed bool   // request fully received, response pending
	seq   uint64 // arrival order, the deterministic broadcast order
}

func newNotifyState(svc *Service) *notifyState {
	return &notifyState{
		svc:     svc,
		waiters: make(map[*tcpsim.Conn]*notifyWaiter),
		byNS:    make(map[NamespaceID]map[*tcpsim.Conn]struct{}),
	}
}

func (n *notifyState) accept(conn *tcpsim.Conn) {
	n.nextSeq++
	w := &notifyWaiter{conn: conn, seq: n.nextSeq}
	n.waiters[conn] = w
	conn.OnRecv = func(data []byte, size int, push bool) {
		w.buf = append(w.buf, data...)
		if !strings.Contains(string(w.buf), "\r\n\r\n") {
			return
		}
		req, ok := wire.ParseNotifyRequest(w.buf)
		w.buf = nil
		if !ok {
			conn.Abort()
			n.drop(conn)
			return
		}
		n.arm(w, req)
	}
	cleanup := func() { n.drop(conn) }
	conn.OnPeerClose = func() {
		conn.Close()
		cleanup()
	}
	conn.OnReset = cleanup
	conn.OnClosed = cleanup
}

// arm registers the waiter's subscriptions and schedules the 60 s punt.
func (n *notifyState) arm(w *notifyWaiter, req wire.NotifyRequest) {
	w.req = req
	w.armed = true
	for _, id := range req.Namespaces {
		ns := NamespaceID(id)
		set := n.byNS[ns]
		if set == nil {
			set = make(map[*tcpsim.Conn]struct{})
			n.byNS[ns] = set
		}
		set[w.conn] = struct{}{}
	}
	w.timer = n.svc.cfg.Sched.After(NotifyPollPeriod, func() {
		n.respond(w, nil)
	})
}

// journalAdvanced pushes an immediate response to every device subscribed
// to the namespace ("changes on the central storage are advertised as soon
// as they are performed").
func (n *notifyState) journalAdvanced(ns NamespaceID, seq uint64) {
	set := n.byNS[ns]
	if len(set) == 0 {
		return
	}
	// Iterating a map keyed by *Conn follows pointer hash order, which
	// varies with heap layout run to run — with several devices on one
	// namespace the broadcast order (and every downstream packet time)
	// became nondeterministic. Respond in connection arrival order.
	ws := make([]*notifyWaiter, 0, len(set))
	for conn := range set {
		if w := n.waiters[conn]; w != nil && w.armed {
			ws = append(ws, w)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].seq < ws[j].seq })
	for _, w := range ws {
		n.respond(w, []NamespaceID{ns})
	}
}

func (n *notifyState) respond(w *notifyWaiter, changed []NamespaceID) {
	if !w.armed {
		return
	}
	w.armed = false
	w.timer.Cancel()
	n.unsubscribe(w)
	resp := EncodeNotifyResponse(NotifyResponse{Changed: changed})
	w.conn.Write(resp, len(resp), true)
}

func (n *notifyState) unsubscribe(w *notifyWaiter) {
	for _, id := range w.req.Namespaces {
		ns := NamespaceID(id)
		if set := n.byNS[ns]; set != nil {
			delete(set, w.conn)
			if len(set) == 0 {
				delete(n.byNS, ns)
			}
		}
	}
}

func (n *notifyState) drop(conn *tcpsim.Conn) {
	w := n.waiters[conn]
	if w == nil {
		return
	}
	w.timer.Cancel()
	n.unsubscribe(w)
	delete(n.waiters, conn)
}
