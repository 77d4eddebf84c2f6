package wire

import (
	"strconv"
	"strings"
)

// The notification long-poll is the one Dropbox exchange that is not
// TLS-encrypted (Sec. 2.3.1): a client's request carries its device
// identifier (host_int) and namespace list in the clear, which is how the
// paper's probe counts devices and shared folders. The client, the
// notification server and the probe all use this one codec.

// NotifyRequest is a notification long-poll request.
type NotifyRequest struct {
	Host       uint64
	Namespaces []uint32
}

// EncodeNotifyRequest renders the cleartext long-poll request.
func EncodeNotifyRequest(r NotifyRequest) []byte {
	var b strings.Builder
	b.WriteString("GET /subscribe?host_int=")
	b.WriteString(strconv.FormatUint(r.Host, 10))
	b.WriteString("&ns_map=")
	for i, ns := range r.Namespaces {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(ns), 10))
		b.WriteString("_1")
	}
	b.WriteString(" HTTP/1.1\r\nHost: notify.dropbox.com\r\nConnection: keep-alive\r\n\r\n")
	return []byte(b.String())
}

// ParseNotifyRequest recovers a request from captured bytes.
func ParseNotifyRequest(data []byte) (NotifyRequest, bool) {
	s := string(data)
	const pfx = "GET /subscribe?host_int="
	start := strings.Index(s, pfx)
	if start < 0 {
		return NotifyRequest{}, false
	}
	s = s[start+len(pfx):]
	amp := strings.Index(s, "&ns_map=")
	if amp < 0 {
		return NotifyRequest{}, false
	}
	host, err := strconv.ParseUint(s[:amp], 10, 64)
	if err != nil {
		return NotifyRequest{}, false
	}
	rest := s[amp+len("&ns_map="):]
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return NotifyRequest{}, false
	}
	req := NotifyRequest{Host: host}
	for _, part := range strings.Split(rest[:sp], ",") {
		if part == "" {
			continue
		}
		idStr, _, _ := strings.Cut(part, "_")
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil {
			return NotifyRequest{}, false
		}
		req.Namespaces = append(req.Namespaces, uint32(id))
	}
	return req, true
}
